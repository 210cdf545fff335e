#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "digest.h"
#include "exec/thread_pool.h"
#include "fleet/protocol.h"
#include "spans.h"
#include "util/logging.h"
#include "variation/reference_chips.h"

namespace atmbench {

using namespace atmsim;

namespace {

struct Row
{
    const char *name;
    int measured;
    int target;
};

std::vector<Row>
rowsOf(const core::CoreLimits &c, const variation::CoreLimitTargets &t)
{
    return {{"idle", c.idle, t.idle},
            {"ubench", c.ubench, t.ubench},
            {"normal", c.normal, t.normal},
            {"worst", c.worst, t.worst}};
}

std::string
cellName(const core::LimitTable &table, std::size_t core, const char *row)
{
    std::ostringstream os;
    os << table.chipName << " core " << core << " (" << table.cores[core].coreName
       << ") " << row;
    return os.str();
}

Failures
checkCoreCount(const core::LimitTable &table)
{
    const auto expected =
        static_cast<std::size_t>(variation::kReferenceCoreCount / 2);
    if (table.cores.size() == expected)
        return {};
    return {table.chipName + ": " + std::to_string(table.cores.size())
            + " cores, expected " + std::to_string(expected)};
}

} // namespace

Failures
checkTable1Exact(const core::LimitTable &table, int chipIndex)
{
    Failures out = checkCoreCount(table);
    if (!out.empty())
        return out;
    for (std::size_t c = 0; c < table.cores.size(); ++c) {
        const auto &target =
            variation::referenceTargets(chipIndex, static_cast<int>(c));
        for (const Row &row : rowsOf(table.cores[c], target)) {
            if (row.measured != row.target) {
                out.push_back(cellName(table, c, row.name) + " is "
                              + std::to_string(row.measured)
                              + ", Table I says "
                              + std::to_string(row.target));
            }
        }
    }
    return out;
}

Failures
checkEngineTable(const core::LimitTable &table, int chipIndex)
{
    Failures out = checkCoreCount(table);
    if (!out.empty())
        return out;
    for (std::size_t c = 0; c < table.cores.size(); ++c) {
        const core::CoreLimits &limits = table.cores[c];
        const auto &target =
            variation::referenceTargets(chipIndex, static_cast<int>(c));
        if (std::abs(limits.idle - target.idle) > 1) {
            out.push_back(cellName(table, c, "idle") + " is "
                          + std::to_string(limits.idle)
                          + ", more than 1 step from Table I's "
                          + std::to_string(target.idle));
        }
        if (!(limits.idle >= limits.ubench && limits.ubench >= limits.normal
              && limits.normal >= limits.worst)) {
            out.push_back(cellName(table, c, "rows")
                          + " are not monotone: "
                          + std::to_string(limits.idle) + " "
                          + std::to_string(limits.ubench) + " "
                          + std::to_string(limits.normal) + " "
                          + std::to_string(limits.worst));
        }
    }
    return out;
}

Table1Agreement
table1Agreement(const core::LimitTable &table, int chipIndex)
{
    Table1Agreement out;
    for (std::size_t c = 0; c < table.cores.size(); ++c) {
        const auto &target =
            variation::referenceTargets(chipIndex, static_cast<int>(c));
        for (const Row &row : rowsOf(table.cores[c], target)) {
            const int dev = std::abs(row.measured - row.target);
            out.cells += 1;
            out.exact += dev == 0 ? 1 : 0;
            out.maxDevSteps = std::max(out.maxDevSteps, dev);
        }
    }
    return out;
}

Failures
checkSupervisedSilent(const sim::RunResult &result, const std::string &what)
{
    if (result.safety.silentFailures == 0)
        return {};
    return {what + ": " + std::to_string(result.safety.silentFailures)
            + " silent failure(s) under the safety monitor"};
}

FleetReference
referenceFold(const fleet::FleetConfig &config,
              const obs::FleetManifest &coverage, int jobs)
{
    std::vector<fleet::ShardRange> shards;
    for (const fleet::ShardRange &shard : fleet::planShards(
             config.population.chipCount, config.shardSize)) {
        if (std::find(coverage.failedShards.begin(),
                      coverage.failedShards.end(), shard.index)
            == coverage.failedShards.end())
            shards.push_back(shard);
    }

    struct ShardRun
    {
        std::vector<core::ChipSummary> chips;
        obs::MetricsSnapshot metrics;
        std::string error;
        double ns = 0.0;
    };
    const std::vector<ShardRun> runs = exec::parallelMap<ShardRun>(
        shards.size(),
        [&](std::size_t i) {
            const fleet::ShardRange &shard = shards[i];
            ShardRun run;
            obs::MetricsRegistry metrics;
            const double t0 = nowNs();
            try {
                ScopedSpan span("core.study_shard", shard.chips());
                run.chips = core::studyShard(config.population,
                                             shard.beginChip,
                                             shard.endChip, &metrics);
            } catch (const util::FatalError &e) {
                run.error = e.what();
            }
            run.ns = nowNs() - t0;
            run.metrics = metrics.snapshot();
            return run;
        },
        jobs);

    // The fold itself runs in shard order, as the supervisor's does.
    FleetReference ref;
    obs::MetricsRegistry registry;
    const double t0 = nowNs();
    {
        ScopedSpan span("core.fold", static_cast<long>(shards.size()));
        for (std::size_t i = 0; i < runs.size(); ++i) {
            ref.computeNs += runs[i].ns;
            if (!runs[i].error.empty()) {
                ref.failures.push_back(
                    "shard " + std::to_string(shards[i].index)
                    + " completed in the campaign but fails in-process: "
                    + runs[i].error);
                continue;
            }
            for (const core::ChipSummary &chip : runs[i].chips)
                core::foldChipSummary(ref.stats, chip,
                                      config.population.robustSpread);
            registry.mergeFrom(runs[i].metrics);
        }
    }
    ref.foldNs = nowNs() - t0;
    ref.metrics = registry.snapshot();
    return ref;
}

Failures
checkFleetFold(const fleet::FleetResult &result,
               const FleetReference &reference)
{
    Failures out = reference.failures;
    const obs::FleetManifest &cov = result.coverage;
    if (cov.chipsDone + cov.chipsSkipped != cov.chipsTotal) {
        out.push_back("fleet coverage: " + std::to_string(cov.chipsDone)
                      + " done + " + std::to_string(cov.chipsSkipped)
                      + " skipped != " + std::to_string(cov.chipsTotal)
                      + " total");
    }
    if (result.stats.chipCount != cov.chipsDone) {
        out.push_back("fleet aggregate folds "
                      + std::to_string(result.stats.chipCount)
                      + " chips, coverage reports "
                      + std::to_string(cov.chipsDone) + " done");
    }
    if (statsDigest(result.stats) != statsDigest(reference.stats))
        out.push_back("fleet aggregate differs from the in-process "
                      "studyShard + foldChipSummary fold");
    std::ostringstream got, want;
    result.metrics.writeJson(got);
    reference.metrics.writeJson(want);
    if (got.str() != want.str())
        out.push_back("fleet metric fold differs from the in-process "
                      "fold");
    return out;
}

SampledError
sampledError(const std::vector<sim::RunResult> &sampled,
             const std::vector<sim::RunResult> &soa)
{
    if (sampled.size() != soa.size())
        util::fatal("sampledError: ", sampled.size(), " sampled vs ",
                    soa.size(), " soa runs");
    SampledError err;
    for (std::size_t r = 0; r < sampled.size(); ++r) {
        const sim::RunResult &fast = sampled[r];
        const sim::RunResult &exact = soa[r];
        if (fast.coreStats.size() != exact.coreStats.size())
            util::fatal("sampledError: core counts differ in replay ", r);
        for (std::size_t c = 0; c < exact.coreStats.size(); ++c) {
            const double want = exact.coreStats[c].freqMhz.mean();
            const double got = fast.coreStats[c].freqMhz.mean();
            if (want > 0.0 && std::abs(got - want) / want > err.freq) {
                err.freq = std::abs(got - want) / want;
                err.freqRun = r;
                err.freqCore = c;
            }
        }
        const auto want = static_cast<double>(exact.safety.emergencies);
        const auto got = static_cast<double>(fast.safety.emergencies);
        err.emerg = std::max(err.emerg,
                             std::abs(got - want) / std::max(want, 1.0));
    }
    return err;
}

Failures
checkSampledError(const SampledError &error)
{
    if (error.freq < kSampledFreqErrLimit)
        return {};
    std::ostringstream os;
    os << "sampled mode misses the mean frequency of core "
       << error.freqCore << " in replay " << error.freqRun << " by "
       << error.freq * 100.0 << "% (limit "
       << kSampledFreqErrLimit * 100.0 << "%)";
    return {os.str()};
}

} // namespace atmbench
