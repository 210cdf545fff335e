#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <string_view>
#include <utility>

#include "chip/chip.h"
#include "core/characterizer.h"
#include "core/governor.h"
#include "core/population.h"
#include "core/safety_monitor.h"
#include "core/stress_test.h"
#include "digest.h"
#include "exec/thread_pool.h"
#include "fault/fault_campaign.h"
#include "fleet/supervisor.h"
#include "host.h"
#include "obs/metrics.h"
#include "sim/sim_engine.h"
#include "spans.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "variation/calibration.h"
#include "variation/chip_generator.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmbench {

using namespace atmsim;

void
LayerTally::addRun(const sim::RunResult &result)
{
    steps += result.steps;
    fastForwardedSteps += result.fastForwardedSteps;
    if (result.phaseStats.empty())
        return;
    profiledRunNs += result.wallSeconds * 1e9;
    for (const obs::PhaseStat &phase : result.phaseStats) {
        std::string_view name = phase.name;
        if (name.starts_with("engine."))
            name.remove_prefix(7);
        phaseNs[std::string(name)] += phase.wallNs;
    }
}

namespace {

/** Independent stream of a workload seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
    return util::splitMix64(state);
}

double
msSince(double t0_ns)
{
    return (nowNs() - t0_ns) * 1e-6;
}

/** Forwards every observer call and times it (traced rounds only). */
class TimedObserver final : public sim::EngineObserver
{
  public:
    explicit TimedObserver(sim::EngineObserver &inner) : inner_(inner) {}

    void
    onRunStart(std::size_t expected) override
    {
        const double t0 = nowNs();
        inner_.onRunStart(expected);
        charge(t0);
    }

    bool
    onViolation(const sim::ViolationEvent &event) override
    {
        const double t0 = nowNs();
        const bool detected = inner_.onViolation(event);
        charge(t0);
        return detected;
    }

    void
    onSample(util::Nanoseconds now,
             const std::vector<sim::CoreSample> &cores) override
    {
        const double t0 = nowNs();
        inner_.onSample(now, cores);
        charge(t0);
    }

    void
    finish(util::Nanoseconds end, sim::SafetyCounters &counters) override
    {
        const double t0 = nowNs();
        inner_.finish(end, counters);
        charge(t0);
    }

    double ns = 0.0;
    long calls = 0;

  private:
    void
    charge(double t0)
    {
        ns += nowNs() - t0;
        ++calls;
    }

    sim::EngineObserver &inner_;
};

/** One engine run inside a parallel round. */
struct EngineOp
{
    sim::RunResult result;
    bool failed = false;
    std::string error;
    double ms = 0.0;
    double monitorNs = 0.0;
    long monitorCalls = 0;
    bool monitored = false;
};

/**
 * Run ops [0, count) through exec::parallelMap, each as an exec.task
 * span under one exec.parallel_map span.
 */
template <typename Fn>
std::vector<EngineOp>
parallelOps(std::size_t count, int jobs, Fn &&op)
{
    ScopedSpan map("exec.parallel_map", static_cast<long>(count));
    const long parent = map.id();
    return exec::parallelMap<EngineOp>(
        count,
        [&](std::size_t i) {
            ScopedSpan task("exec.task", parent, static_cast<long>(i));
            return op(i);
        },
        jobs);
}

/** Guarded engine run: a FatalError fails this op, not the run. */
template <typename Fn>
EngineOp
guardedRun(Fn &&body)
{
    EngineOp op;
    const double t0 = nowNs();
    try {
        body(op);
    } catch (const util::FatalError &e) {
        op.failed = true;
        op.error = e.what();
    }
    op.ms = msSince(t0);
    return op;
}

sim::RunResult
timedRun(sim::SimEngine &engine, double duration_us)
{
    ScopedSpan span("sim.run");
    sim::RunResult result = engine.run(duration_us);
    span.setArg(result.steps);
    return result;
}

std::unique_ptr<chip::Chip>
cloneChip(const chip::Chip &source)
{
    ScopedSpan span("chip.clone");
    return std::make_unique<chip::Chip>(source.silicon(), source.config());
}

/** Fold a parallel round's engine ops into the round result. */
void
collectOps(const std::vector<EngineOp> &ops, RoundResult &out,
           LayerTally &tally)
{
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const EngineOp &op = ops[i];
        out.ops += 1;
        out.opMs.push_back(op.ms);
        if (op.failed) {
            out.failed += 1;
            out.digest += "failed:" + op.error + "\n";
            continue;
        }
        out.simUs += op.result.durationNs * 1e-3;
        out.digest += runDigest(op.result) + "\n";
        if (op.monitored) {
            for (std::string &f : checkSupervisedSilent(
                     op.result, "op " + std::to_string(i)))
                out.failures.push_back(std::move(f));
            tally.monitorNs += op.monitorNs;
            tally.monitorCalls += op.monitorCalls;
            tally.monitoredRunNs += op.result.wallSeconds * 1e9;
        }
        tally.addRun(op.result);
    }
}

/** Analytic characterization, timed and trial-counted. */
void
probeAnalytic(const chip::Chip &source, MetricMap &layers)
{
    chip::Chip chip(source.silicon(), source.config());
    obs::MetricsRegistry registry;
    core::Characterizer characterizer(&chip);
    characterizer.setObservability({&registry, nullptr});
    const double t0 = nowNs();
    {
        ScopedSpan span("core.characterize_analytic");
        (void)characterizer.characterizeChip();
    }
    const double seconds = (nowNs() - t0) * 1e-9;
    const auto trials =
        static_cast<double>(registry.counter("characterizer.trials").value());
    layers["core.trials_per_s"].value = trials / seconds;
}

/**
 * Profiler cost: the same op with and without a metrics registry,
 * alternated, as the ratio of median wall times minus one.
 */
template <typename Fn>
double
profilerOverhead(int pairs, Fn &&run_op)
{
    std::vector<double> on;
    std::vector<double> off;
    for (int i = 0; i < pairs; ++i) {
        double t0 = nowNs();
        run_op(true);
        on.push_back(nowNs() - t0);
        t0 = nowNs();
        run_op(false);
        off.push_back(nowNs() - t0);
    }
    return util::percentile(on, 50.0) / util::percentile(off, 50.0) - 1.0;
}

// --- fault_sweep ------------------------------------------------------

struct SweepPoint
{
    fault::FaultKind kind;
    double magnitude;
};

struct Deployment
{
    core::GovernorPolicy policy;
    bool monitored;
};

/** The bench/fault_campaign grid. */
constexpr std::array<SweepPoint, 13> kSweepPoints = {{
    {fault::FaultKind::CpmStuckAt, 8.0},
    {fault::FaultKind::CpmStuckAt, 24.0},
    {fault::FaultKind::CpmSkippedStep, 2.0},
    {fault::FaultKind::CpmSkippedStep, 4.0},
    {fault::FaultKind::SensorDropout, 0.0},
    {fault::FaultKind::VrmLoadStep, 20.0},
    {fault::FaultKind::VrmLoadStep, 60.0},
    {fault::FaultKind::DroopStorm, 1.5},
    {fault::FaultKind::DroopStorm, 3.0},
    {fault::FaultKind::AgingJump, 0.03},
    {fault::FaultKind::AgingJump, 0.08},
    {fault::FaultKind::ThermalExcursion, 15.0},
    {fault::FaultKind::ThermalExcursion, 30.0},
}};

constexpr std::array<Deployment, 3> kDeployments = {{
    {core::GovernorPolicy::FineTuned, true},
    {core::GovernorPolicy::FineTuned, false},
    {core::GovernorPolicy::DefaultAtm, false},
}};

class FaultSweep final : public Workload
{
  public:
    explicit FaultSweep(std::uint64_t seed) : seed_(seed) {}

    int jobs() const override { return 4; }
    const char *opName() const override { return "fault cell"; }

    void
    setup() override
    {
        chip_ = std::make_unique<chip::Chip>(variation::makeReferenceChip(0));
        core::Characterizer characterizer(chip_.get());
        limits_ = characterizer.characterizeChip();
        setupFailures_ = checkTable1Exact(limits_, 0);
        config_.stopOnViolation = false;
        config_.runNoisePs = 1.1;
        config_.seed = derive(seed_, 1);
        config_.mode = sim::EngineMode::Soa;
        x264_ = &workload::findWorkload("x264");
        (void)parallelOps(jobs(), jobs(), [&](std::size_t i) {
            return runCell(i, false, true);
        });
    }

    RoundResult
    round(bool traced, LayerTally &tally) override
    {
        const std::size_t cells = kSweepPoints.size() * kDeployments.size();
        RoundResult out;
        collectOps(parallelOps(cells, jobs(),
                               [&](std::size_t i) {
                                   return runCell(i, traced, true);
                               }),
                   out, tally);
        return out;
    }

    void
    verify(MetricMap &, Failures &failures) override
    {
        failures.insert(failures.end(), setupFailures_.begin(),
                        setupFailures_.end());
    }

    void
    probe(MetricMap &layers, LayerTally &) override
    {
        probeAnalytic(*chip_, layers);
        // A monitored DroopStorm cell: faults, monitor and recovery
        // all active.
        const std::size_t cell = 7 * kDeployments.size();
        layers["obs.profiler_overhead"].value = profilerOverhead(
            10, [&](bool profiled) { (void)runCell(cell, false, profiled); });
    }

  private:
    EngineOp
    runCell(std::size_t i, bool traced, bool profiled) const
    {
        const SweepPoint &point = kSweepPoints[i / kDeployments.size()];
        const Deployment &deployment = kDeployments[i % kDeployments.size()];
        return guardedRun([&](EngineOp &op) {
            obs::MetricsRegistry shard;
            const obs::Observability sinks{profiled ? &shard : nullptr,
                                           nullptr};
            const std::unique_ptr<chip::Chip> chip = cloneChip(*chip_);
            core::Governor governor(chip.get(), limits_);
            governor.setObservability(sinks);
            {
                ScopedSpan span("core.governor_apply");
                governor.apply(deployment.policy);
            }
            chip->assignWorkload(2, x264_);

            fault::FaultSpec spec;
            spec.kind = point.kind;
            spec.core = point.kind == fault::FaultKind::VrmLoadStep ? -1 : 2;
            spec.startUs = 1.0;
            spec.durationUs = 5.0;
            spec.magnitude = point.magnitude;
            fault::FaultCampaign campaign;
            campaign.add(spec);

            core::SafetyMonitorConfig monitor_config;
            monitor_config.backoffBaseUs = 1.0;
            monitor_config.maxBackoffUs = 4.0;
            monitor_config.stageIntervalUs = 0.2;
            core::SafetyMonitor monitor(
                chip.get(), governor.reductions(deployment.policy),
                monitor_config);
            monitor.setObservability(sinks);
            TimedObserver timed(monitor);

            sim::SimEngine engine(chip.get(), config_);
            engine.setCampaign(&campaign);
            if (deployment.monitored) {
                engine.setObserver(traced
                                       ? static_cast<sim::EngineObserver *>(
                                             &timed)
                                       : &monitor);
            }
            engine.setObservability(sinks);
            op.result = timedRun(engine, 12.0);
            op.monitored = deployment.monitored;
            op.monitorNs = timed.ns;
            op.monitorCalls = timed.calls;
        });
    }

    std::uint64_t seed_;
    std::unique_ptr<chip::Chip> chip_;
    core::LimitTable limits_;
    const workload::WorkloadTraits *x264_ = nullptr;
    sim::SimConfig config_;
    Failures setupFailures_;
};

// --- characterize_engine ----------------------------------------------

class CharacterizeEngine final : public Workload
{
  public:
    /** Characterizer seeds per chip and round: the cost of a table
     *  depends on its seed, so a round averages over two. */
    static constexpr int kSeeds = 2;
    static constexpr int kOps = 2 * kSeeds;

    explicit CharacterizeEngine(std::uint64_t seed) : seed_(seed) {}

    int jobs() const override { return 4; }
    const char *opName() const override { return "characterized chip"; }

    void
    setup() override
    {
        for (int p = 0; p < 2; ++p) {
            chips_[static_cast<std::size_t>(p)] =
                std::make_unique<chip::Chip>(variation::makeReferenceChip(p));
        }
        core::Characterizer analytic(chips_[0].get());
        setupFailures_ = checkTable1Exact(analytic.characterizeChip(), 0);
        config_.mode = core::CharacterizerConfig::Mode::Engine;
        config_.reps = 8;
        config_.engineWindowUs = 1.0;
        config_.jobs = jobs();
        tables_[0] = characterize(0);
    }

    RoundResult
    round(bool, LayerTally &) override
    {
        RoundResult out;
        double cpu = 0.0;
        double wall = 0.0;
        for (int op = 0; op < kOps; ++op) {
            const int p = chipOf(op);
            const auto oi = static_cast<std::size_t>(op);
            out.ops += 1;
            const double cpu0 = processCpuSeconds();
            const double t0 = nowNs();
            try {
                ScopedSpan span("core.characterize_engine", op);
                tables_[oi] = characterize(op);
            } catch (const util::FatalError &e) {
                out.failed += 1;
                out.digest += std::string("failed:") + e.what() + "\n";
                continue;
            }
            const double ms = msSince(t0);
            out.opMs.push_back(ms);
            wall += ms * 1e-3;
            cpu += processCpuSeconds() - cpu0;
            out.digest += tableDigest(tables_[oi]) + "\n";
            for (std::string &f : checkEngineTable(tables_[oi], p))
                out.failures.push_back(std::move(f));
        }
        if (wall > 0.0)
            out.busyFrac = cpu / (wall * jobs());
        return out;
    }

    void
    verify(MetricMap &report, Failures &failures) override
    {
        failures.insert(failures.end(), setupFailures_.begin(),
                        setupFailures_.end());
        Table1Agreement total;
        for (int op = 0; op < kOps; ++op) {
            const Table1Agreement a = table1Agreement(
                tables_[static_cast<std::size_t>(op)], chipOf(op));
            total.cells += a.cells;
            total.exact += a.exact;
            total.maxDevSteps = std::max(total.maxDevSteps, a.maxDevSteps);
        }
        report["table1_exact_frac"] = {
            static_cast<double>(total.exact)
                / static_cast<double>(std::max(total.cells, 1L)),
            "frac"};
        report["table1_max_dev_steps"] = {
            static_cast<double>(total.maxDevSteps), "steps"};
    }

    void
    probe(MetricMap &layers, LayerTally &tally) override
    {
        probeAnalytic(*chips_[0], layers);
        core::CharacterizerConfig config = config_;
        config.seed = derive(seed_, 2);

        // Engine trials per second: one core of P0, trial-counted.
        {
            chip::Chip chip(chips_[0]->silicon(), chips_[0]->config());
            obs::MetricsRegistry registry;
            core::Characterizer characterizer(&chip, config);
            characterizer.setObservability({&registry, nullptr});
            const double t0 = nowNs();
            (void)characterizer.characterizeCore(0);
            const double seconds = (nowNs() - t0) * 1e-9;
            layers["core.trials_per_s"].value =
                static_cast<double>(
                    registry.counter("characterizer.trials").value())
                / seconds;
        }

        // The engine phases of characterization trials: trial-shaped
        // runs (1 us window, stop at the first violation, idle chip,
        // core at its idle limit, the rep's stratified noise) with the
        // profiler on, since the characterizer keeps its RunResults.
        const core::LimitTable &table = tables_[0];
        const auto trial = [&](int core, int rep, bool profiled) {
            const std::unique_ptr<chip::Chip> chip = cloneChip(*chips_[0]);
            for (int c = 0; c < chip->coreCount(); ++c)
                chip->core(c).setMode(chip::CoreMode::AtmOverclock);
            chip->core(core).setCpmReduction(util::CpmSteps{
                table.cores[static_cast<std::size_t>(core)].idle});
            sim::SimConfig sim_config;
            sim_config.runNoisePs =
                variation::runNoisePs(chip->core(core).silicon(), rep);
            sim_config.seed = config.seed ^ static_cast<std::uint64_t>(rep);
            obs::MetricsRegistry registry;
            sim::SimEngine engine(chip.get(), sim_config);
            if (profiled)
                engine.setObservability({&registry, nullptr});
            return timedRun(engine, config.engineWindowUs);
        };
        for (int core = 0; core < chips_[0]->coreCount(); ++core) {
            for (int rep = 0; rep < config.reps; ++rep)
                tally.addRun(trial(core, rep, true));
        }
        layers["obs.profiler_overhead"].value =
            profilerOverhead(10, [&](bool profiled) {
                for (int core = 0; core < chips_[0]->coreCount(); ++core)
                    (void)trial(core, 0, profiled);
            });
    }

  private:
    static int chipOf(int op) { return op % 2; }

    /** Op k characterizes chip k % 2 under characterizer seed k / 2. */
    core::LimitTable
    characterize(int op)
    {
        core::CharacterizerConfig config = config_;
        config.seed = derive(seed_, 2 + static_cast<std::uint64_t>(op / 2));
        core::Characterizer characterizer(
            chips_[static_cast<std::size_t>(chipOf(op))].get(), config);
        return characterizer.characterizeChip();
    }

    std::uint64_t seed_;
    std::array<std::unique_ptr<chip::Chip>, 2> chips_;
    std::array<core::LimitTable, kOps> tables_;
    core::CharacterizerConfig config_;
    Failures setupFailures_;
};

// --- fleet_population -------------------------------------------------

class FleetPopulation final : public Workload
{
  public:
    static constexpr int kChips = 4096;

    explicit FleetPopulation(std::uint64_t seed)
    {
        config_.population.chipCount = kChips;
        // Seed 0 is fleet_study's default population (seed base 1000).
        config_.population.seedBase = 1000 + seed * kChips;
        config_.workers = 2;
    }

    int jobs() const override { return config_.workers; }
    const char *opName() const override { return "population chip"; }

    void
    setup() override
    {
        chip::Chip p0(variation::makeReferenceChip(0));
        core::Characterizer analytic(&p0);
        setupFailures_ = checkTable1Exact(analytic.characterizeChip(), 0);
        // Warm-up: the population's first shard for each worker,
        // through the campaign path (fork, pipes, fold).
        fleet::FleetConfig warmup = config_;
        warmup.population.chipCount = config_.shardSize * jobs();
        (void)fleet::runFleetCampaign(warmup);
    }

    RoundResult
    round(bool, LayerTally &) override
    {
        RoundResult out;
        {
            ScopedSpan span("fleet.campaign", kChips);
            last_ = fleet::runFleetCampaign(config_);
        }
        out.ops = last_.coverage.chipsTotal;
        out.failed = last_.coverage.chipsSkipped;
        out.digest = fleetDigest(last_);
        return out;
    }

    void
    verify(MetricMap &, Failures &failures) override
    {
        failures.insert(failures.end(), setupFailures_.begin(),
                        setupFailures_.end());
        reference_ = referenceFold(config_, last_.coverage, jobs());
        for (std::string &f : checkFleetFold(last_, reference_))
            failures.push_back(std::move(f));
    }

    void
    probe(MetricMap &layers, LayerTally &) override
    {
        const obs::FleetManifest &cov = last_.coverage;
        layers["fleet.compute_s"].value = reference_.computeNs * 1e-9;
        layers["fleet.fold_ms"].value = reference_.foldNs * 1e-6;
        layers["fleet.retries"].value = static_cast<double>(cov.retries);
        layers["fleet.chips_skipped"].value =
            static_cast<double>(cov.chipsSkipped);

        // The population's layers one call at a time, in-process, on
        // as many threads as the campaign has workers.
        struct ChipCalls
        {
            bool generated = false;
            long trials = 0;
            double characterizeNs = 0.0;
        };
        const std::vector<ChipCalls> calls = exec::parallelMap<ChipCalls>(
            kChips,
            [&](std::size_t i) {
                ChipCalls out;
                variation::ChipSilicon silicon;
                try {
                    ScopedSpan span("variation.generate_chip");
                    silicon = variation::generateChip(
                        "POP" + std::to_string(i),
                        config_.population.seedBase + i,
                        config_.population.generator);
                } catch (const util::FatalError &) {
                    return out;
                }
                out.generated = true;
                std::unique_ptr<chip::Chip> chip;
                {
                    ScopedSpan span("chip.clone");
                    chip = std::make_unique<chip::Chip>(std::move(silicon));
                }
                obs::MetricsRegistry registry;
                core::CharacterizerConfig ccfg;
                ccfg.jobs = 1;
                core::Characterizer characterizer(chip.get(), ccfg);
                characterizer.setObservability({&registry, nullptr});
                const double t0 = nowNs();
                {
                    ScopedSpan span("core.characterize_analytic");
                    (void)characterizer.characterizeChip();
                }
                out.characterizeNs = nowNs() - t0;
                out.trials =
                    registry.counter("characterizer.trials").value();
                return out;
            },
            jobs());
        long generate_failed = 0;
        long trials = 0;
        double characterize_ns = 0.0;
        for (const ChipCalls &c : calls) {
            generate_failed += c.generated ? 0 : 1;
            trials += c.trials;
            characterize_ns += c.characterizeNs;
        }
        layers["variation.generate_failed"].value =
            static_cast<double>(generate_failed);
        layers["core.trials_per_s"].value =
            static_cast<double>(trials) / (characterize_ns * 1e-9);
    }

  private:
    fleet::FleetConfig config_;
    fleet::FleetResult last_;
    FleetReference reference_;
    Failures setupFailures_;
};

// --- replay_sampled ---------------------------------------------------

/** Fault kinds and magnitudes a replay's sparse campaign draws from. */
constexpr std::array<SweepPoint, 6> kReplayFaults = {{
    {fault::FaultKind::CpmStuckAt, 8.0},
    {fault::FaultKind::CpmSkippedStep, 2.0},
    {fault::FaultKind::VrmLoadStep, 20.0},
    {fault::FaultKind::DroopStorm, 1.5},
    {fault::FaultKind::AgingJump, 0.03},
    {fault::FaultKind::ThermalExcursion, 15.0},
}};

class ReplaySampled final : public Workload
{
  public:
    /** Replays per chip and round; window per replay (us). */
    static constexpr int kVariants = 8;
    static constexpr double kWindowUs = 100.0;

    explicit ReplaySampled(std::uint64_t seed) : seed_(seed) {}

    int jobs() const override { return 4; }
    const char *opName() const override { return "deployed-limit replay"; }

    void
    setup() override
    {
        specs_.clear();
        for (int p = 0; p < 2; ++p) {
            const auto pi = static_cast<std::size_t>(p);
            chips_[pi] =
                std::make_unique<chip::Chip>(variation::makeReferenceChip(p));
            core::StressTester tester(chips_[pi].get());
            deployed_[pi] = tester.deriveDeployedConfig(0).reductionPerCore;
        }
        core::Characterizer analytic(chips_[0].get());
        setupFailures_ = checkTable1Exact(analytic.characterizeChip(), 0);

        const auto apps = workload::profiledApps();
        for (int p = 0; p < 2; ++p) {
            for (int v = 0; v < kVariants; ++v) {
                util::Rng rng(derive(seed_, 16 + 2 * v + p));
                Spec spec;
                spec.chip = p;
                spec.seed = rng.u64();
                const int n = chips_[0]->coreCount();
                std::vector<int> cores(static_cast<std::size_t>(n));
                for (int c = 0; c < n; ++c)
                    cores[static_cast<std::size_t>(c)] = c;
                for (int c = n - 1; c > 0; --c) {
                    std::swap(cores[static_cast<std::size_t>(c)],
                              cores[rng.below(
                                  static_cast<std::uint64_t>(c + 1))]);
                }
                for (int k = 0; k < n / 2; ++k) {
                    spec.apps.emplace_back(
                        cores[static_cast<std::size_t>(k)],
                        apps[rng.below(apps.size())]);
                }
                for (int f = 0; f < 2; ++f) {
                    const SweepPoint &point =
                        kReplayFaults[rng.below(kReplayFaults.size())];
                    fault::FaultSpec fs;
                    fs.kind = point.kind;
                    fs.core = point.kind == fault::FaultKind::VrmLoadStep
                                  ? -1
                                  : static_cast<int>(rng.below(
                                      static_cast<std::uint64_t>(n)));
                    fs.startUs = rng.uniform(10.0, 80.0);
                    fs.durationUs = 5.0;
                    fs.magnitude = point.magnitude;
                    spec.campaign.add(fs);
                }
                spec.campaign.validate(n);
                specs_.push_back(std::move(spec));
            }
        }
        (void)parallelOps(jobs(), jobs(), [&](std::size_t i) {
            return runReplay(i, sim::EngineMode::Sampled, false, true);
        });
    }

    RoundResult
    round(bool traced, LayerTally &tally) override
    {
        RoundResult out;
        std::vector<EngineOp> ops =
            parallelOps(specs_.size(), jobs(), [&](std::size_t i) {
                return runReplay(i, sim::EngineMode::Sampled, traced, true);
            });
        collectOps(ops, out, tally);
        last_.clear();
        for (EngineOp &op : ops)
            last_.push_back(std::move(op.result));
        return out;
    }

    void
    verify(MetricMap &report, Failures &failures) override
    {
        failures.insert(failures.end(), setupFailures_.begin(),
                        setupFailures_.end());
        const std::vector<EngineOp> soa = exec::parallelMap<EngineOp>(
            specs_.size(),
            [&](std::size_t i) {
                return runReplay(i, sim::EngineMode::Soa, false, true);
            },
            jobs());
        std::vector<sim::RunResult> exact;
        for (std::size_t i = 0; i < soa.size(); ++i) {
            if (soa[i].failed) {
                failures.push_back("soa re-run of replay "
                                   + std::to_string(i)
                                   + " failed: " + soa[i].error);
                return;
            }
            exact.push_back(soa[i].result);
        }
        const SampledError err = sampledError(last_, exact);
        report["sampled_freq_err"] = {err.freq, "frac"};
        report["sampled_emerg_err"] = {err.emerg, "frac"};
        for (std::string &f : checkSampledError(err)) {
            const std::size_t r = err.freqRun;
            const auto mhz = [&](const sim::RunResult &run) {
                return std::to_string(run.meanFreqMhz(
                    static_cast<int>(err.freqCore)));
            };
            const auto safety = [](const sim::RunResult &run) {
                std::string text;
                for (const auto &[name, value] : run.safety.named())
                    text += " " + std::string(name) + "="
                          + std::to_string(static_cast<long>(value));
                return text;
            };
            failures.push_back(f + "; campaign "
                               + specs_[r].campaign.format() + "; MHz "
                               + mhz(last_[r]) + " sampled vs "
                               + mhz(exact[r]) + " soa; sampled"
                               + safety(last_[r]) + "; soa"
                               + safety(exact[r]));
        }
    }

    void
    probe(MetricMap &layers, LayerTally &) override
    {
        probeAnalytic(*chips_[0], layers);
        layers["obs.profiler_overhead"].value =
            profilerOverhead(3, [&](bool profiled) {
                (void)runReplay(0, sim::EngineMode::Sampled, false, profiled);
            });
    }

  private:
    struct Spec
    {
        int chip = 0;
        std::uint64_t seed = 0;
        std::vector<std::pair<int, const workload::WorkloadTraits *>> apps;
        fault::FaultCampaign campaign;
    };

    EngineOp
    runReplay(std::size_t i, sim::EngineMode mode, bool traced,
              bool profiled) const
    {
        const Spec &spec = specs_[i];
        const auto pi = static_cast<std::size_t>(spec.chip);
        return guardedRun([&](EngineOp &op) {
            const std::unique_ptr<chip::Chip> chip = cloneChip(*chips_[pi]);
            for (int c = 0; c < chip->coreCount(); ++c) {
                chip->core(c).setMode(chip::CoreMode::AtmOverclock);
                chip->core(c).setCpmReduction(util::CpmSteps{
                    deployed_[pi][static_cast<std::size_t>(c)]});
            }
            for (const auto &[core, app] : spec.apps)
                chip->assignWorkload(core, app);
            fault::FaultCampaign campaign = spec.campaign;
            obs::MetricsRegistry registry;
            const obs::Observability sinks{profiled ? &registry : nullptr,
                                           nullptr};
            core::SafetyMonitor monitor(chip.get(), deployed_[pi]);
            monitor.setObservability(sinks);
            TimedObserver timed(monitor);

            sim::SimConfig config;
            config.stopOnViolation = false;
            config.runNoisePs = 1.1;
            config.seed = spec.seed;
            config.mode = mode;
            sim::SimEngine engine(chip.get(), config);
            engine.setCampaign(&campaign);
            engine.setObserver(traced ? static_cast<sim::EngineObserver *>(
                                            &timed)
                                      : &monitor);
            engine.setObservability(sinks);
            op.result = timedRun(engine, kWindowUs);
            op.monitored = true;
            op.monitorNs = timed.ns;
            op.monitorCalls = timed.calls;
        });
    }

    std::uint64_t seed_;
    std::array<std::unique_ptr<chip::Chip>, 2> chips_;
    std::array<std::vector<int>, 2> deployed_;
    std::vector<Spec> specs_;
    std::vector<sim::RunResult> last_;
    Failures setupFailures_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fault_sweep", "characterize_engine", "fleet_population",
        "replay_sampled"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "fault_sweep")
        return std::make_unique<FaultSweep>(seed);
    if (name == "characterize_engine")
        return std::make_unique<CharacterizeEngine>(seed);
    if (name == "fleet_population")
        return std::make_unique<FleetPopulation>(seed);
    if (name == "replay_sampled")
        return std::make_unique<ReplaySampled>(seed);
    return nullptr;
}

} // namespace atmbench
