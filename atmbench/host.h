/**
 * @file
 * Host-side measurements: process memory and CPU time.
 */

#pragma once

namespace atmbench {

/**
 * Peak resident set (MB): this program's high-water mark plus that of
 * its largest waited-for child (the fleet's forked workers). The
 * launcher must start the program as a fresh child process, so that
 * no other child's peak is on record.
 */
[[nodiscard]] double peakRssMb();

/** User + system CPU seconds this process has used, all threads. */
[[nodiscard]] double processCpuSeconds();

} // namespace atmbench
