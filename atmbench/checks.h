/**
 * @file
 * Output checks of the benchmark. Each returns the list of failures
 * (empty: the check passed), so a run can print every failure before
 * it fails, and the self-tests can feed each check a corrupted input.
 *
 * The checks hold on the code as it is; they do not demand more than
 * it delivers. In particular engine-mode characterization is not held
 * to Table I on every row (the gap is reported as table1_* instead),
 * only to the idle row within one step and monotone rows.
 */

#pragma once

#include <string>
#include <vector>

#include "core/limit_table.h"
#include "core/population.h"
#include "fleet/supervisor.h"
#include "obs/metrics.h"
#include "sim/run_result.h"

namespace atmbench {

using Failures = std::vector<std::string>;

/** Analytic characterization reproduces Table I exactly. */
[[nodiscard]] Failures checkTable1Exact(const atmsim::core::LimitTable &table,
                                        int chipIndex);

/** Engine-mode table: idle row within +-1 of Table I, and every core's
 *  rows monotone (idle >= ubench >= normal >= worst). */
[[nodiscard]] Failures
checkEngineTable(const atmsim::core::LimitTable &table, int chipIndex);

/** Agreement of a table with the paper's Table I, all four rows. */
struct Table1Agreement
{
    long cells = 0;
    long exact = 0;
    int maxDevSteps = 0;
};

[[nodiscard]] Table1Agreement
table1Agreement(const atmsim::core::LimitTable &table, int chipIndex);

/** No silent failure on a run a safety monitor supervised. */
[[nodiscard]] Failures
checkSupervisedSilent(const atmsim::sim::RunResult &result,
                      const std::string &what);

/** In-process recomputation of a campaign's completed shards. */
struct FleetReference
{
    atmsim::core::PopulationStats stats;
    atmsim::obs::MetricsSnapshot metrics;
    Failures failures;     ///< Completed shards that failed in-process.
    double computeNs = 0.0; ///< Summed wall time of the studyShard calls.
    double foldNs = 0.0;    ///< Wall time of the in-order fold.
};

/**
 * Recompute the campaign in-process: core::studyShard over exactly
 * the shards the campaign reports completed (on `jobs` threads),
 * folded in shard order with core::foldChipSummary and
 * MetricsRegistry::mergeFrom.
 */
[[nodiscard]] FleetReference
referenceFold(const atmsim::fleet::FleetConfig &config,
              const atmsim::obs::FleetManifest &coverage, int jobs);

/**
 * The campaign aggregate and metric fold are bitwise equal to the
 * reference, and done + skipped chips = total.
 */
[[nodiscard]] Failures checkFleetFold(const atmsim::fleet::FleetResult &result,
                                      const FleetReference &reference);

/** Sampled-mode error against a soa re-run of the same replays. */
struct SampledError
{
    double freq = 0.0;  ///< Max relative error of a per-core mean MHz.
    double emerg = 0.0; ///< Max relative error of chip emergencies.
    std::size_t freqRun = 0; ///< Replay and core of the worst freq error.
    std::size_t freqCore = 0;
};

[[nodiscard]] SampledError
sampledError(const std::vector<atmsim::sim::RunResult> &sampled,
             const std::vector<atmsim::sim::RunResult> &soa);

/** Largest sampled-mode frequency error the benchmark accepts
 *  (the envelope EXPERIMENTS.md claims). */
inline constexpr double kSampledFreqErrLimit = 0.01;

[[nodiscard]] Failures checkSampledError(const SampledError &error);

} // namespace atmbench
