/**
 * @file
 * Self-tests of the benchmark's output checks: each check passes on
 * real outputs and fails on a corrupted copy of them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checks.h"
#include "chip/chip.h"
#include "core/characterizer.h"
#include "digest.h"
#include "fleet/supervisor.h"
#include "spans.h"
#include "variation/reference_chips.h"

using namespace atmbench;
using namespace atmsim;

namespace {

core::LimitTable
analyticTable(int chip_index)
{
    chip::Chip chip(variation::makeReferenceChip(chip_index));
    core::Characterizer characterizer(&chip);
    return characterizer.characterizeChip();
}

sim::RunResult
runWithCores(const std::vector<double> &freq_mhz, long emergencies)
{
    sim::RunResult r;
    for (const double f : freq_mhz) {
        sim::CoreRunStats cs;
        cs.freqMhz.add(f);
        r.coreStats.push_back(cs);
    }
    r.safety.emergencies = emergencies;
    return r;
}

fleet::FleetConfig
smallFleet()
{
    fleet::FleetConfig config;
    config.population.chipCount = 8;
    config.shardSize = 4;
    config.workers = 0;
    return config;
}

} // namespace

TEST(Table1Exact, PassesOnAnalyticP0)
{
    EXPECT_TRUE(checkTable1Exact(analyticTable(0), 0).empty());
}

TEST(Table1Exact, FailsOnOneFlippedCell)
{
    core::LimitTable table = analyticTable(0);
    table.cores[3].worst += 1;
    const Failures f = checkTable1Exact(table, 0);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_NE(f[0].find("worst"), std::string::npos);
}

TEST(Table1Agreement, CountsTheFlippedCell)
{
    core::LimitTable table = analyticTable(0);
    Table1Agreement a = table1Agreement(table, 0);
    EXPECT_EQ(a.cells, 32);
    EXPECT_EQ(a.exact, 32);
    EXPECT_EQ(a.maxDevSteps, 0);
    table.cores[5].ubench -= 2;
    a = table1Agreement(table, 0);
    EXPECT_EQ(a.exact, 31);
    EXPECT_EQ(a.maxDevSteps, 2);
}

TEST(EngineTable, ToleratesOneStepOnIdleOnly)
{
    core::LimitTable table = analyticTable(1);
    EXPECT_TRUE(checkEngineTable(table, 1).empty());
    table.cores[0].idle += 1;
    EXPECT_TRUE(checkEngineTable(table, 1).empty());
    table.cores[0].idle += 1;
    EXPECT_EQ(checkEngineTable(table, 1).size(), 1u);
}

TEST(EngineTable, FailsOnNonMonotoneRows)
{
    core::LimitTable table = analyticTable(0);
    table.cores[2].worst = table.cores[2].normal + 1;
    const Failures f = checkEngineTable(table, 0);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_NE(f[0].find("monotone"), std::string::npos);
}

TEST(EngineTable, FailsOnMissingCores)
{
    core::LimitTable table = analyticTable(0);
    table.cores.pop_back();
    EXPECT_FALSE(checkEngineTable(table, 0).empty());
    EXPECT_FALSE(checkTable1Exact(table, 0).empty());
}

TEST(SupervisedSilent, FailsOnOneSilentFailure)
{
    sim::RunResult r;
    EXPECT_TRUE(checkSupervisedSilent(r, "cell").empty());
    r.safety.silentFailures = 1;
    EXPECT_EQ(checkSupervisedSilent(r, "cell").size(), 1u);
}

TEST(FleetFold, PassesOnTheCampaignItChecks)
{
    const fleet::FleetConfig config = smallFleet();
    const fleet::FleetResult result = fleet::runFleetCampaign(config);
    const FleetReference ref = referenceFold(config, result.coverage, 2);
    EXPECT_TRUE(checkFleetFold(result, ref).empty());
}

TEST(FleetFold, FailsOnAPerturbedFold)
{
    const fleet::FleetConfig config = smallFleet();
    const fleet::FleetResult result = fleet::runFleetCampaign(config);
    FleetReference ref = referenceFold(config, result.coverage, 2);
    ref.stats.idleLimitMhz.add(5000.0);
    EXPECT_FALSE(checkFleetFold(result, ref).empty());
}

TEST(FleetFold, FailsWhenASkippedShardIsFolded)
{
    const fleet::FleetConfig config = smallFleet();
    fleet::FleetResult result = fleet::runFleetCampaign(config);
    const FleetReference ref = referenceFold(config, result.coverage, 2);
    // The campaign claims shard 1 was abandoned but still folded it.
    result.coverage.failedShards.push_back(1);
    result.coverage.chipsSkipped += 4;
    result.coverage.chipsDone -= 4;
    EXPECT_FALSE(checkFleetFold(result, ref).empty());
    EXPECT_FALSE(
        checkFleetFold(result, referenceFold(config, result.coverage, 2))
            .empty());
}

TEST(FleetFold, FailsOnBrokenCoverage)
{
    const fleet::FleetConfig config = smallFleet();
    fleet::FleetResult result = fleet::runFleetCampaign(config);
    const FleetReference ref = referenceFold(config, result.coverage, 2);
    result.coverage.chipsSkipped += 1;
    EXPECT_FALSE(checkFleetFold(result, ref).empty());
}

TEST(SampledError, MeasuresTheWorstCore)
{
    const std::vector<sim::RunResult> soa = {
        runWithCores({4000.0, 5000.0}, 10)};
    const std::vector<sim::RunResult> close = {
        runWithCores({4020.0, 5000.0}, 11)};
    const SampledError ok = sampledError(close, soa);
    EXPECT_DOUBLE_EQ(ok.freq, 0.005);
    EXPECT_DOUBLE_EQ(ok.emerg, 0.1);
    EXPECT_TRUE(checkSampledError(ok).empty());

    const std::vector<sim::RunResult> far = {
        runWithCores({4000.0, 5100.0}, 10)};
    const SampledError bad = sampledError(far, soa);
    EXPECT_DOUBLE_EQ(bad.freq, 0.02);
    EXPECT_EQ(checkSampledError(bad).size(), 1u);
}

TEST(Digest, SeesOneUlpOfChange)
{
    sim::RunResult a = runWithCores({4000.0}, 0);
    sim::RunResult b = runWithCores({4000.0}, 0);
    EXPECT_EQ(runDigest(a), runDigest(b));
    b.minGridV = std::nextafter(b.minGridV, 1.0);
    EXPECT_NE(runDigest(a), runDigest(b));
    // Host timings are not outputs.
    b = a;
    b.wallSeconds = 3.0;
    EXPECT_EQ(runDigest(a), runDigest(b));
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    // Parent [0, 100] with children [10, 40] and [30, 60] on two
    // threads: covered 50, self 50.
    const std::vector<Span> spans = {
        {"exec.parallel_map", 0.0, 100.0, 1, 0, -1},
        {"sim.run", 10.0, 40.0, 2, 1, -1},
        {"sim.run", 30.0, 60.0, 3, 1, -1},
    };
    const auto layers = selfTimeByLayer(spans);
    EXPECT_DOUBLE_EQ(layers.at("exec"), 50.0);
    EXPECT_DOUBLE_EQ(layers.at("sim"), 60.0);
}

TEST(Spans, RecordOnlyWhenEnabled)
{
    SpanRecorder &rec = SpanRecorder::global();
    const std::size_t before = rec.spans().size();
    {
        ScopedSpan off("bench.off");
        EXPECT_EQ(off.id(), 0);
    }
    EXPECT_EQ(rec.spans().size(), before);
    rec.setEnabled(true);
    {
        ScopedSpan outer("bench.outer");
        ScopedSpan inner("sim.inner");
        EXPECT_EQ(currentSpan(), inner.id());
    }
    rec.setEnabled(false);
    const std::vector<Span> spans = rec.spans();
    ASSERT_EQ(spans.size(), before + 2);
    // Inner closes first and names outer as its parent.
    EXPECT_EQ(spans[before].parent, spans[before + 1].id);
}
