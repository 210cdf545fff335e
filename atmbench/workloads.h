/**
 * @file
 * The benchmark's four workloads. README.md records why each was
 * chosen and which layers it stresses or bypasses.
 *
 * A workload is driven in four steps:
 *  - setup(): build every input from the seed and run the untimed
 *    warm-up: the round's first op on each of the workload's threads
 *    (or workers), so lazy per-thread set-up is paid here (the driver
 *    times this as setup_s);
 *  - round(): one fixed batch of ops, repeated for the timed window.
 *    Every round of a run must produce the same output digest;
 *  - verify(): checks that need extra work after the timed window;
 *  - probe(): traced runs only, per-layer measurements that need
 *    their own calls (profiler on/off, trial-shaped engine runs, the
 *    fleet's in-process per-chip pass).
 *
 * Job and worker counts are fixed per workload, never read from the
 * host, so a run does the same work on every machine.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "sim/run_result.h"

namespace atmbench {

/** A named value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** Traced-round tallies the per-layer rows are derived from. */
struct LayerTally
{
    std::map<std::string, double> phaseNs; ///< Engine phase -> wall ns.
    double profiledRunNs = 0.0; ///< Wall of runs that carry phaseStats.
    long steps = 0;
    long fastForwardedSteps = 0;
    double monitorNs = 0.0;
    long monitorCalls = 0;
    double monitoredRunNs = 0.0; ///< Wall of runs the monitor watched.

    /** Fold one engine run in (phase wall, steps). */
    void addRun(const atmsim::sim::RunResult &result);
};

/** What one round did. */
struct RoundResult
{
    long ops = 0;
    long failed = 0;
    std::vector<double> opMs; ///< Host time of each op that is timed.
    double simUs = 0.0;       ///< Simulated time the round covered.
    std::string digest;       ///< Exact digest of the round's outputs.
    Failures failures;        ///< Output-check failures.
    double busyFrac = -1.0;   ///< CPU-time busy fraction (< 0: from spans).
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Threads (or forked workers) the workload runs with. */
    [[nodiscard]] virtual int jobs() const = 0;

    /** What one op is, for the report. */
    [[nodiscard]] virtual const char *opName() const = 0;

    virtual void setup() = 0;
    virtual RoundResult round(bool traced, LayerTally &tally) = 0;

    /** Adds report metrics and check failures. */
    virtual void verify(MetricMap &report, Failures &failures) = 0;

    /** Adds per-layer metrics; spans are recording. */
    virtual void probe(MetricMap &layers, LayerTally &tally) = 0;
};

/** The workload names, in BENCHMARK.json order. */
[[nodiscard]] const std::vector<std::string> &workloadNames();

/** nullptr for an unknown name. */
[[nodiscard]] std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed);

} // namespace atmbench
