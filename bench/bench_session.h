/**
 * @file
 * Per-harness observability session.
 *
 * Every figure/table/ablation harness owns one BenchSession. The
 * session strips the shared observability flags from the command
 * line before the harness parses its own arguments, carries the
 * metrics registry and (optional) trace collector the harness hands
 * to engines and characterizers, accumulates engine totals across
 * runs, and -- on destruction -- writes the run-provenance manifest
 * (and trace) next to the harness's printed output:
 *
 *   --manifest <path>   manifest destination
 *                       (default BENCH_<tool>.json in the cwd)
 *   --no-manifest       skip the manifest entirely
 *   --trace [<path>]    also write a Chrome/Perfetto trace
 *                       (default BENCH_<tool>.trace.json)
 *   --flight-recorder [<n>]
 *                       attach a per-core flight recorder (black-box
 *                       event ring, n events per core, default 256);
 *                       the ring is dumped to BENCH_<tool>.flight.json
 *                       when a violation latched a dump request or
 *                       the harness was interrupted
 *   --flight-dump       always dump the flight ring at exit
 *                       (implies --flight-recorder)
 *   --jobs <n>          worker threads for parallel sweeps
 *                       (default: hardware concurrency; n >= 1;
 *                       outputs are identical at every n)
 *   --engine-mode <m>   engine step-loop implementation: soa
 *                       (default; exact) or sampled (steady-state
 *                       fast-forward; approximate -- see
 *                       EXPERIMENTS.md)
 *
 * A bad value for one of these flags prints the message and exits 2.
 *
 * The filtered argument list is exposed via argc()/argv() so
 * harnesses that reject unknown arguments keep doing so.
 *
 * The session also installs SIGINT/SIGTERM handlers for its
 * lifetime: an interrupted harness still flushes its manifest (and
 * trace), with the manifest's `interrupted` flag set, so a ^C'd
 * campaign leaves an honest partial record instead of nothing. The
 * process then exits 128+signal, the shell convention for a
 * signal-terminated command.
 */

#pragma once

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "sim/run_result.h"
#include "sim/sim_engine.h"
#include "util/logging.h"

namespace atmsim::bench {

/** Observability wrapper for one harness invocation. */
class BenchSession
{
  public:
    /**
     * @param tool Harness name, e.g. "fig11_stress_test"; names the
     *        default output files and the manifest's tool field.
     * @param argc,argv The harness's raw command line; observability
     *        flags are consumed here.
     */
    BenchSession(std::string tool, int argc, char **argv)
        : tool_(std::move(tool)), startWallNs_(obs::monotonicWallNs())
    {
        manifestPath_ = "BENCH_" + tool_ + ".json";
        tracePath_ = "BENCH_" + tool_ + ".trace.json";
        flightPath_ = "BENCH_" + tool_ + ".flight.json";
        parseArgs(argc, argv);
        manifest_.jobsRequested = jobs_; // 0 = flag absent.
        if (jobs_ == 0)
            jobs_ = exec::hardwareConcurrency();
        exec::setDefaultJobs(jobs_); // fatal on jobs < 1
        manifest_.jobs = jobs_;
        manifest_.profilerClockNs = obs::clockReadCostNs();
        util::setLogContext(tool_);
        if (traceEnabled_)
            trace_.emplace();
        if (flightEnabled_)
            flight_.emplace(kFlightCores, flightCapacity_);
        installSignalHandlers();
    }

    ~BenchSession()
    {
        removeSignalHandlers();
        try {
            writeOutputs();
        } catch (const std::exception &e) {
            std::cerr << tool_ << ": manifest write failed: "
                      << e.what() << "\n";
        }
        util::setLogContext("");
    }

    BenchSession(const BenchSession &) = delete;
    BenchSession &operator=(const BenchSession &) = delete;

    // --- Filtered command line -----------------------------------------

    int argc() const { return static_cast<int>(argvPtrs_.size()); }

    char **argv() { return argvPtrs_.data(); }

    /** Filtered arguments without argv[0]. */
    const std::vector<std::string> &args() const { return args_; }

    // --- Observability backends ----------------------------------------

    obs::MetricsRegistry &metrics() { return metrics_; }

    /** Null unless --trace was given. */
    obs::TraceCollector *trace()
    {
        return traceEnabled_ ? &*trace_ : nullptr;
    }

    /** Null unless --flight-recorder / --flight-dump was given. */
    obs::FlightRecorder *flight()
    {
        return flightEnabled_ ? &*flight_ : nullptr;
    }

    /** Bundle to hand to engines, characterizers, and monitors. */
    obs::Observability
    observability()
    {
        return {&metrics_, trace(), flight()};
    }

    /** Attach this session's sinks to an engine. */
    void observe(sim::SimEngine &engine)
    {
        engine.setObservability(observability());
    }

    // --- Provenance ----------------------------------------------------

    void setChip(const std::string &name) { manifest_.chip = name; }

    void setSeed(std::uint64_t seed) { manifest_.seed = seed; }

    void
    setFaultCampaign(const std::string &text)
    {
        manifest_.faultCampaign = text;
    }

    /** Record one configuration key/value pair. */
    void
    setConfig(const std::string &key, const std::string &value)
    {
        for (auto &kv : manifest_.config) {
            if (kv.first == key) {
                kv.second = value;
                return;
            }
        }
        manifest_.config.emplace_back(key, value);
    }

    /** Record the engine configuration a harness runs with. */
    void
    setConfig(const sim::SimConfig &config)
    {
        setConfig("sim.dt_ns", fmt(config.dtNs));
        setConfig("sim.slow_cadence", fmt(config.slowCadence));
        setConfig("sim.stats_cadence", fmt(config.statsCadence));
        setConfig("sim.run_noise_ps", fmt(config.runNoisePs));
        setConfig("sim.stop_on_violation",
                  config.stopOnViolation ? "true" : "false");
        setConfig("sim.engine_mode", sim::engineModeName(config.mode));
        manifest_.engineMode = sim::engineModeName(config.mode);
        setSeed(config.seed);
    }

    /** Append/overwrite one harness-level counter. */
    void
    setCounter(const std::string &name, double value)
    {
        manifest_.setCounter(name, value);
    }

    /** Record a fleet campaign's coverage in the manifest. */
    void
    setFleet(const obs::FleetManifest &fleet)
    {
        manifest_.fleet = fleet;
    }

    /**
     * Hand over the span batches a fleet campaign streamed from its
     * workers. When --trace is on, the trace written at exit becomes
     * the merged campaign trace: supervisor events plus one pid/tid
     * lane per worker process.
     */
    void
    setWorkerSpans(std::vector<obs::ProcessSpans> spans)
    {
        workerSpans_ = std::move(spans);
    }

    /**
     * Mark the manifest as cut short. The signal path sets this
     * automatically; harnesses with their own early-exit logic can
     * set it explicitly before destruction.
     */
    void markInterrupted() { manifest_.interrupted = true; }

    /**
     * Fold one engine run into the manifest: run/step/wall totals,
     * the per-phase breakdown, and the run's safety counters.
     */
    void
    noteEngineRun(const sim::RunResult &result)
    {
        manifest_.engineRuns += 1;
        manifest_.engineSteps += result.steps;
        manifest_.engineWallSeconds += result.wallSeconds;
        manifest_.engineSimNs += result.durationNs;
        manifest_.engineFastForwardedSteps += result.fastForwardedSteps;
        for (const auto &stat : result.phaseStats)
            mergePhase(stat);
        for (const auto &[name, value] : result.safety.named())
            addCounter(name, value);
    }

    /** Resolved --jobs value (also installed as the process default). */
    int jobs() const { return jobs_; }

    /** Engine step-loop implementation from --engine-mode (default
     *  Soa). Harnesses copy this into their SimConfig. */
    sim::EngineMode engineMode() const { return engineMode_; }

    /** Apply the session's --engine-mode selection to a config. */
    void applyEngineMode(sim::SimConfig &config) const
    {
        config.mode = engineMode_;
    }

    bool manifestEnabled() const { return manifestEnabled_; }
    const std::string &manifestPath() const { return manifestPath_; }
    const std::string &tracePath() const { return tracePath_; }

  private:
    template <typename T>
    static std::string
    fmt(T value)
    {
        std::ostringstream os;
        os << value;
        return os.str();
    }

    void
    parseArgs(int argc, char **argv)
    {
        argvPtrs_.push_back(argc > 0 ? argv[0] : nullptr);
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const bool has_next = i + 1 < argc
                                  && argv[i + 1][0] != '-';
            if (arg == "--no-manifest") {
                manifestEnabled_ = false;
            } else if (arg == "--manifest" && has_next) {
                manifestPath_ = argv[++i];
            } else if (arg.rfind("--manifest=", 0) == 0) {
                manifestPath_ = arg.substr(11);
            } else if (arg == "--trace") {
                traceEnabled_ = true;
                if (has_next)
                    tracePath_ = argv[++i];
            } else if (arg.rfind("--trace=", 0) == 0) {
                traceEnabled_ = true;
                tracePath_ = arg.substr(8);
            } else if (arg == "--flight-recorder") {
                flightEnabled_ = true;
                if (has_next)
                    flightCapacity_ = parseFlightCapacity(argv[++i]);
            } else if (arg.rfind("--flight-recorder=", 0) == 0) {
                flightEnabled_ = true;
                flightCapacity_ = parseFlightCapacity(arg.substr(18));
            } else if (arg == "--flight-dump") {
                flightEnabled_ = true;
                flightDumpForced_ = true;
            } else if (arg == "--jobs" && i + 1 < argc) {
                jobs_ = parseJobs(argv[++i]);
            } else if (arg.rfind("--jobs=", 0) == 0) {
                jobs_ = parseJobs(arg.substr(7));
            } else if (arg == "--engine-mode" && i + 1 < argc) {
                engineMode_ = parseEngineMode(argv[++i]);
            } else if (arg.rfind("--engine-mode=", 0) == 0) {
                engineMode_ = parseEngineMode(arg.substr(14));
            } else {
                args_.push_back(arg);
                argvPtrs_.push_back(argv[i]);
            }
        }
        manifest_.args = args_;
    }

    static int
    parseJobs(const std::string &text)
    {
        std::size_t used = 0;
        int jobs = 0;
        try {
            jobs = std::stoi(text, &used);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != text.size() || jobs < 1)
            badValue("--jobs wants an integer >= 1, got '" + text
                     + "'");
        return jobs;
    }

    static sim::EngineMode
    parseEngineMode(const std::string &text)
    {
        sim::EngineMode mode = sim::EngineMode::Soa;
        if (!sim::engineModeFromName(text, mode))
            badValue("--engine-mode wants soa or sampled, got '" + text
                     + "'");
        return mode;
    }

    static int
    parseFlightCapacity(const std::string &text)
    {
        std::size_t used = 0;
        int capacity = 0;
        try {
            capacity = std::stoi(text, &used);
        } catch (const std::exception &) {
            used = 0;
        }
        if (used != text.size() || capacity < 1)
            badValue("--flight-recorder wants a per-core capacity"
                     " >= 1, got '" + text + "'");
        return capacity;
    }

    /** A bad shared-flag value is a user error, not a crash: print
     *  the message and exit with the usage-error status 2. */
    [[noreturn]] static void
    badValue(const std::string &message)
    {
        std::cerr << "error: " << message << "\n";
        std::exit(2);
    }

    void
    mergePhase(const obs::PhaseStat &stat)
    {
        for (auto &existing : manifest_.phases) {
            if (std::string(existing.name) == stat.name) {
                existing.wallNs += stat.wallNs;
                existing.calls += stat.calls;
                existing.timed += stat.timed;
                return;
            }
        }
        manifest_.phases.push_back(stat);
    }

    void
    addCounter(const std::string &name, double value)
    {
        for (auto &kv : manifest_.counters) {
            if (kv.first == name) {
                kv.second += value;
                return;
            }
        }
        manifest_.counters.emplace_back(name, value);
    }

    /**
     * The session whose outputs the signal handlers flush. One
     * harness owns one session at a time; nested sessions keep the
     * outermost one armed.
     */
    static BenchSession *&
    activeSession()
    {
        static BenchSession *session = nullptr;
        return session;
    }

    /**
     * SIGINT/SIGTERM: flush the manifest and trace with the
     * `interrupted` flag set, then exit 128+signal. Writing a file
     * is not async-signal-safe in the letter of the law; for an
     * interactive ^C on a harness the trade -- an honest partial
     * manifest versus none at all -- is worth it, and the exit path
     * never returns into the interrupted code. The flush takes the
     * best-effort route: registry and trace locks are only
     * *try*-acquired, so a signal landing while the interrupted
     * thread holds one skips that section instead of deadlocking.
     */
    // atmlint: contract(signal_handler)
    static void
    onSignal(int sig)
    {
        BenchSession *session = activeSession();
        if (session != nullptr) {
            activeSession() = nullptr;
            session->manifest_.interrupted = true;
            try {
                session->writeOutputsBestEffort();
            } catch (...) {
                // Dying anyway; nothing better to do with it.
            }
        }
        std::_Exit(128 + sig);
    }

    void
    installSignalHandlers()
    {
        if (activeSession() != nullptr)
            return;
        activeSession() = this;
        std::signal(SIGINT, &BenchSession::onSignal);
        std::signal(SIGTERM, &BenchSession::onSignal);
    }

    void
    removeSignalHandlers()
    {
        if (activeSession() != this)
            return;
        activeSession() = nullptr;
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);
    }

    /** Normal exit path: blocking snapshots, everything written. */
    void
    writeOutputs()
    {
        if (traceEnabled_) {
            std::ofstream os(tracePath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << tracePath_
                          << "\n";
            } else {
                if (workerSpans_.empty())
                    trace_->writeChromeTrace(os);
                else
                    trace_->writeChromeTrace(os, workerSpans_);
                std::cout << "[" << tool_ << "] trace written to "
                          << tracePath_ << "\n";
            }
        }
        if (flightEnabled_
            && (flightDumpForced_ || flight_->dumpRequested()
                || manifest_.interrupted)) {
            std::ofstream os(flightPath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << flightPath_
                          << "\n";
            } else {
                flight_->writeJson(os);
                std::cout << "[" << tool_ << "] flight ring dumped"
                          << " to " << flightPath_ << "\n";
            }
        }
        if (!manifestEnabled_)
            return;
        // Loss accounting belongs in the metric snapshot the manifest
        // (and any fleet fold upstream) reports -- only on this
        // blocking path; the signal path must not touch the registry
        // lock.
        if (traceEnabled_) {
            metrics_.counter("obs.trace.dropped_events")
                .inc(static_cast<long>(trace_->droppedEvents()));
        }
        if (flightEnabled_) {
            metrics_.counter("obs.flight.wrapped_events")
                .inc(flight_->wrappedEvents());
            metrics_.counter("obs.flight.dropped_events")
                .inc(flight_->droppedEvents());
        }
        manifest_.metrics = metrics_.snapshot();
        writeManifestFile();
    }

    /**
     * Signal path: identical output when the locks are free, but
     * every lock is try-acquired exactly once. A section whose lock
     * the interrupted thread holds is skipped (empty metrics, no
     * trace) rather than deadlocking inside the handler. Kept as a
     * separate function -- not a flag on writeOutputs() -- so the
     * handler's call closure provably never contains a blocking
     * acquire.
     */
    void
    writeOutputsBestEffort()
    {
        if (traceEnabled_) {
            std::ofstream os(tracePath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << tracePath_
                          << "\n";
            } else if (workerSpans_.empty()
                           ? !trace_->tryWriteChromeTrace(os)
                           : !trace_->tryWriteChromeTrace(
                                 os, workerSpans_)) {
                std::cerr << tool_ << ": trace skipped (collector "
                          << "locked at interrupt)\n";
            } else {
                std::cout << "[" << tool_ << "] trace written to "
                          << tracePath_ << "\n";
            }
        }
        // The flight ring is the one backend built for this path:
        // writeJson() takes no lock and reads only atomics, so the
        // black box survives exactly the crashes it exists for.
        if (flightEnabled_) {
            std::ofstream os(flightPath_);
            if (!os) {
                std::cerr << tool_ << ": cannot open " << flightPath_
                          << "\n";
            } else {
                flight_->writeJson(os);
                std::cout << "[" << tool_ << "] flight ring dumped"
                          << " to " << flightPath_ << "\n";
            }
        }
        if (!manifestEnabled_)
            return;
        if (!metrics_.trySnapshot(manifest_.metrics))
            manifest_.metrics = {};
        writeManifestFile();
    }

    /** Shared tail of both output paths: stamp and write the
     *  manifest JSON. Takes no locks of its own. */
    void
    writeManifestFile()
    {
        manifest_.tool = tool_;
        manifest_.wallSeconds =
            (obs::monotonicWallNs() - startWallNs_) * 1e-9;
        std::ofstream os(manifestPath_);
        if (!os) {
            std::cerr << tool_ << ": cannot open " << manifestPath_
                      << "\n";
            return;
        }
        manifest_.writeJson(os);
        std::cout << "[" << tool_ << "] manifest written to "
                  << manifestPath_ << "\n";
    }

    /**
     * Flight ring width. Sized for the largest chip the harnesses
     * simulate (well past the 12-core POWER9 of the paper); events
     * for cores beyond it are counted as dropped, never written out
     * of bounds.
     */
    static constexpr int kFlightCores = 64;

    std::string tool_;
    double startWallNs_;
    bool manifestEnabled_ = true;
    bool traceEnabled_ = false;
    bool flightEnabled_ = false;
    bool flightDumpForced_ = false;
    int flightCapacity_ = 256;
    int jobs_ = 0; ///< 0 until resolved in the constructor.
    sim::EngineMode engineMode_ = sim::EngineMode::Soa;
    std::string manifestPath_;
    std::string tracePath_;
    std::string flightPath_;
    std::vector<std::string> args_;
    std::vector<char *> argvPtrs_;
    obs::MetricsRegistry metrics_;
    std::optional<obs::TraceCollector> trace_;
    std::optional<obs::FlightRecorder> flight_;
    std::vector<obs::ProcessSpans> workerSpans_;
    obs::RunManifest manifest_;
};

} // namespace atmsim::bench
