/**
 * @file
 * Exact digests of simulated outputs.
 *
 * Every floating-point value is written as hexfloat, so two digests
 * are equal exactly when the outputs are bitwise-identical. Host
 * timings (RunResult::wallSeconds, phaseStats) are left out. The
 * benchmark compares digests between the rounds of one run and prints
 * a 64-bit hash of each workload's digest, so runs and commits can be
 * compared too. Digests are never compared against a committed
 * constant: floating-point results may differ between toolchains.
 */

#pragma once

#include <cstdint>
#include <string>

#include "core/limit_table.h"
#include "core/population.h"
#include "fleet/supervisor.h"
#include "sim/run_result.h"

namespace atmbench {

/** Every accumulator and counter of one engine run. */
[[nodiscard]] std::string runDigest(const atmsim::sim::RunResult &result);

/** All four limit rows, the distributions and limit frequencies. */
[[nodiscard]] std::string tableDigest(const atmsim::core::LimitTable &table);

/** Exact population aggregate (Welford state included). */
[[nodiscard]] std::string
statsDigest(const atmsim::core::PopulationStats &stats);

/** Aggregate, metric fold and coverage of a fleet campaign. */
[[nodiscard]] std::string
fleetDigest(const atmsim::fleet::FleetResult &result);

/** FNV-1a 64-bit hash. */
[[nodiscard]] std::uint64_t fnv1a(const std::string &text);

/** A hash as 16 hex digits. */
[[nodiscard]] std::string hex64(std::uint64_t value);

} // namespace atmbench
