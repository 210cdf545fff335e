/**
 * @file
 * PhaseProfiler: exact call counts, the stride-sampled timing
 * schedule, and the breakdown rows that add up to the run wall --
 * on the profiler alone and on a real engine run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "chip/chip.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "sim/sim_engine.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::obs {
namespace {

constexpr long kStride = PhaseProfiler::kStride;

const std::vector<PhaseDef> kDefs = {
    {"test.strided", true},
    {"test.rare", false},
};

/** Run `calls` begin/end pairs of one phase. */
void
invoke(PhaseProfiler &profiler, std::size_t phase, long calls)
{
    for (long i = 0; i < calls; ++i) {
        const double t0 = profiler.begin(phase);
        profiler.end(phase, t0);
    }
}

double
rowSum(const std::vector<PhaseStat> &rows)
{
    double sum = 0.0;
    for (const PhaseStat &row : rows)
        sum += row.wallNs;
    return sum;
}

TEST(PhaseProfiler, DisabledCountsAndTimesNothing)
{
    PhaseProfiler profiler(kDefs, false);
    EXPECT_FALSE(profiler.enabled());
    EXPECT_LT(profiler.begin(0), 0.0);
    invoke(profiler, 0, 100);
    invoke(profiler, 1, 100);
    const std::vector<PhaseStat> rows = profiler.snapshot(500.0, "rest");
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t p = 0; p < 2; ++p) {
        EXPECT_EQ(rows[p].calls, 0) << rows[p].name;
        EXPECT_EQ(rows[p].timed, 0) << rows[p].name;
        EXPECT_EQ(rows[p].wallNs, 0.0) << rows[p].name;
    }
    EXPECT_STREQ(rows[2].name, "rest");
    EXPECT_EQ(rows[2].wallNs, 500.0);
}

TEST(PhaseProfiler, CallsAreExact)
{
    PhaseProfiler profiler(kDefs, true);
    invoke(profiler, 0, 1234);
    invoke(profiler, 1, 77);
    const std::vector<PhaseStat> rows = profiler.snapshot(0.0, "rest");
    EXPECT_EQ(rows[0].calls, 1234);
    EXPECT_EQ(rows[1].calls, 77);
    EXPECT_EQ(rows[2].calls, 0);
    EXPECT_EQ(rows[2].timed, 0);
}

TEST(PhaseProfiler, StridedPhasesTimeOneCallInStride)
{
    for (const long calls : {1L, 2L, kStride - 1, kStride, kStride + 1,
                             2 * kStride, 2 * kStride + 1, 1000L}) {
        PhaseProfiler profiler(kDefs, true);
        invoke(profiler, 0, calls);
        const PhaseStat row = profiler.snapshot(0.0, "rest")[0];
        EXPECT_EQ(row.calls, calls);
        EXPECT_EQ(row.timed, (calls + kStride - 1) / kStride)
            << calls << " calls";
    }
}

TEST(PhaseProfiler, FirstCallOfEachStrideReadsTheClock)
{
    PhaseProfiler profiler(kDefs, true);
    for (long i = 0; i < 3 * kStride; ++i) {
        const double t0 = profiler.begin(0);
        EXPECT_EQ(t0 >= 0.0, i % kStride == 0) << "call " << i;
        profiler.end(0, t0);
    }
}

TEST(PhaseProfiler, RarePhasesAreTimedOnEveryCall)
{
    PhaseProfiler profiler(kDefs, true);
    invoke(profiler, 1, 3 * kStride + 5);
    const PhaseStat row = profiler.snapshot(0.0, "rest")[1];
    EXPECT_EQ(row.calls, 3 * kStride + 5);
    EXPECT_EQ(row.timed, row.calls);
}

TEST(PhaseProfiler, EstimatesAreNonNegativeAndRowsSumToTheWall)
{
    PhaseProfiler profiler(kDefs, true);
    const double wall_t0 = monotonicWallNs();
    invoke(profiler, 0, 10 * kStride);
    invoke(profiler, 1, 10);
    const double wall_ns = monotonicWallNs() - wall_t0;
    const std::vector<PhaseStat> rows =
        profiler.snapshot(wall_ns, "rest");
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_GE(rows[0].wallNs, 0.0);
    EXPECT_GE(rows[1].wallNs, 0.0);
    EXPECT_NEAR(rowSum(rows), wall_ns, 1e-9 * wall_ns);
    EXPECT_DOUBLE_EQ(profiler.wallNsSince(0, 0.0), rows[0].wallNs);
    EXPECT_DOUBLE_EQ(profiler.wallNsSince(1, rows[1].wallNs), 0.0);
}

TEST(PhaseProfiler, SampledIntervalsAreCappedRareOnesAreNot)
{
    // A stall inside a timed call of a sampled phase must not be
    // multiplied by the stride; a rare phase keeps its full interval.
    PhaseProfiler profiler(kDefs, true);
    const auto stall = [] {
        const double until = monotonicWallNs() + 1e6;
        while (monotonicWallNs() < until) {
        }
    };
    for (const std::size_t phase : {std::size_t{0}, std::size_t{1}}) {
        const double t0 = profiler.begin(phase);
        stall();
        profiler.end(phase, t0);
    }
    invoke(profiler, 0, kStride - 1);
    const std::vector<PhaseStat> rows = profiler.snapshot(0.0, "rest");
    EXPECT_EQ(rows[0].timed, 1);
    EXPECT_LE(rows[0].wallNs,
              PhaseProfiler::kMaxSampledIntervalNs * kStride);
    EXPECT_GE(rows[1].wallNs, 1e6);
}

TEST(PhaseProfiler, ClockCostIsCalibratedOncePerProcess)
{
    const double cost = clockReadCostNs();
    EXPECT_GT(cost, 0.0);
    EXPECT_TRUE(std::isfinite(cost));
    EXPECT_EQ(clockReadCostNs(), cost);
}

TEST(PhaseProfiler, EnginePhasesAddUpToRunWall)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    chip.assignWorkload(0, &workload::findWorkload("gcc"));
    MetricsRegistry metrics;
    sim::SimEngine engine(&chip);
    engine.setObservability({&metrics, nullptr, nullptr});
    const sim::RunResult result = engine.run(1.0);

    ASSERT_EQ(result.phaseStats.size(), 8u);
    EXPECT_STREQ(result.phaseStats.back().name, "engine.unattributed");
    for (std::size_t p = 0; p + 1 < result.phaseStats.size(); ++p) {
        const PhaseStat &row = result.phaseStats[p];
        EXPECT_GE(row.wallNs, 0.0) << row.name;
        EXPECT_LE(row.timed, row.calls) << row.name;
        EXPECT_EQ(row.timed > 0, row.calls > 0) << row.name;
    }
    const double wall_ns = result.wallSeconds * 1e9;
    EXPECT_NEAR(rowSum(result.phaseStats), wall_ns, 1e-9 * wall_ns);
}

} // namespace
} // namespace atmsim::obs
