#include "obs/phase.h"

#include <algorithm>
#include <array>

namespace atmsim::obs {

namespace {

double
measureClockReadNs()
{
    // Back-to-back reads: the span between the first and last read of
    // a batch is (reads - 1) read latencies, which is what one timed
    // interval carries on top of the work it brackets.
    constexpr int kBatches = 9;
    constexpr int kReads = 64;
    std::array<double, kBatches> per_read{};
    for (double &cost : per_read) {
        const double first = monotonicWallNs();
        double last = first;
        for (int i = 1; i < kReads; ++i)
            last = monotonicWallNs();
        cost = (last - first) / (kReads - 1);
    }
    std::nth_element(per_read.begin(), per_read.begin() + kBatches / 2,
                     per_read.end());
    return per_read[kBatches / 2];
}

} // namespace

double
clockReadCostNs()
{
    static const double cost = measureClockReadNs();
    return cost;
}

} // namespace atmsim::obs
