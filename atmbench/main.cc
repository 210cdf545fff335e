/**
 * @file
 * atmbench: one run of one benchmark workload.
 *
 * Usage: atmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                 [--spans-out <path>]
 *        atmbench --list-metrics
 *
 * A run sets the workload up (at least three times, reporting the
 * median as setup_s), repeats its round for the timed window, checks every
 * output, and prints a report followed by one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones, measured with
 * tracing off. With --trace 1 the window is split: an untraced half,
 * then a traced half whose spans give the per-layer metrics; the
 * difference between the halves is obs.trace_overhead. The run exits
 * 1 when a check fails and 2 on a usage error.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "digest.h"
#include "host.h"
#include "spans.h"
#include "util/stats.h"
#include "workloads.h"

using namespace atmbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every workload reports (BENCHMARK.json). */
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics every traced run reports (BENCHMARK.json).
 *  A layer the workload does not run reports 0. */
const std::vector<MetricDef> kPerLayer = {
    {"sim.run_ms_p50", "ms"},
    {"sim.ns_per_step", "ns"},
    {"sim.share", "frac"},
    {"sim.phase.settle.share", "frac"},
    {"sim.phase.faults.share", "frac"},
    {"sim.phase.thermal_cadence.share", "frac"},
    {"sim.phase.pdn_advance.share", "frac"},
    {"sim.phase.atm_loop.share", "frac"},
    {"sim.phase.violation_check.share", "frac"},
    {"sim.phase.stats_sample.share", "frac"},
    {"sim.unattributed.share", "frac"},
    {"sim.ff_frac", "frac"},
    {"core.characterize_ms.engine", "ms"},
    {"core.characterize_ms.analytic", "ms"},
    {"core.trials_per_s", "1/s"},
    {"core.monitor_ns_per_call", "ns"},
    {"core.monitor.share", "frac"},
    {"core.governor_apply_us", "us"},
    {"variation.generate_ms", "ms"},
    {"variation.generate_failed", "count"},
    {"fleet.campaign_s", "s"},
    {"fleet.compute_s", "s"},
    {"fleet.overhead_share", "frac"},
    {"fleet.retries", "count"},
    {"fleet.chips_skipped", "count"},
    {"fleet.fold_ms", "ms"},
    {"exec.busy_frac", "frac"},
    {"chip.clone_us", "us"},
    {"obs.trace_overhead", "frac"},
    {"obs.profiler_overhead", "frac"},
};

const char *const kPhases[] = {"settle",         "faults",
                               "thermal_cadence", "pdn_advance",
                               "atm_loop",       "violation_check",
                               "stats_sample"};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spansOut;
    bool listMetrics = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "atmbench: " << why
              << "\nusage: atmbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n"
                 "       atmbench --list-metrics\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            args.listMetrics = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string value = argv[++i];
        try {
            std::size_t used = 0;
            if (arg == "--workload") {
                args.workload = value;
                used = value.size();
            } else if (arg == "--seed") {
                args.seed = std::stoull(value, &used);
                have_seed = true;
            } else if (arg == "--seconds") {
                args.seconds = std::stod(value, &used);
            } else if (arg == "--trace") {
                args.trace = std::stoi(value, &used);
            } else if (arg == "--spans-out") {
                args.spansOut = value;
                used = value.size();
            } else {
                usage("unknown argument '" + arg + "'");
            }
            if (used != value.size())
                usage("bad value '" + value + "' for " + arg);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (args.listMetrics)
        return args;
    if (!makeWorkload(args.workload, 0))
        usage("unknown workload '" + args.workload + "'");
    if (!have_seed)
        usage("--seed is required");
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    if (args.trace != 0 && args.trace != 1)
        usage("--trace must be 0 or 1");
    return args;
}

double
median(const std::vector<double> &values)
{
    return atmsim::util::percentile(values, 50.0);
}

std::string
num(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/** One timed window: rounds until `seconds` have passed (at least one). */
struct Window
{
    std::vector<RoundResult> rounds;
    std::vector<double> wallS;
};

void
runWindow(Workload &w, double seconds, bool traced, LayerTally &tally,
          Window &out)
{
    const double start = nowNs();
    do {
        const double t0 = nowNs();
        RoundResult r;
        {
            ScopedSpan span("bench.round");
            r = w.round(traced, tally);
        }
        out.wallS.push_back((nowNs() - t0) * 1e-9);
        out.rounds.push_back(std::move(r));
    } while ((nowNs() - start) * 1e-9 < seconds);
}

/** Per-layer rows from the traced window's spans and tallies. */
void
deriveLayers(const std::vector<Span> &window, const std::vector<Span> &all,
             const LayerTally &tally, int jobs, double roundBusyFrac,
             MetricMap &layers)
{
    const auto set = [&](const char *name, double value) {
        layers[name].value = value;
    };
    const auto medianOf = [](const std::vector<double> &v) {
        return v.empty() ? 0.0 : median(v);
    };

    // Engine runs: the window's, plus the probe's trial-shaped runs
    // where the engine only runs inside the characterizer.
    const std::vector<double> runs = durationsOf(all, "sim.run");
    set("sim.run_ms_p50", medianOf(runs) * 1e-6);
    double run_ns = 0.0;
    long steps = 0;
    for (const Span &s : all) {
        if (std::string("sim.run") == s.name) {
            run_ns += s.endNs - s.startNs;
            steps += s.arg;
        }
    }
    set("sim.ns_per_step", steps > 0 ? run_ns / static_cast<double>(steps)
                                     : 0.0);

    const auto layerSelf = selfTimeByLayer(window);
    double total_self = 0.0;
    for (const auto &[layer, ns] : layerSelf)
        total_self += ns;
    const auto sim = layerSelf.find("sim");
    set("sim.share", sim != layerSelf.end() && total_self > 0.0
                         ? sim->second / total_self
                         : 0.0);

    if (tally.profiledRunNs > 0.0) {
        double attributed = 0.0;
        for (const char *phase : kPhases) {
            const auto it = tally.phaseNs.find(phase);
            const double share = it == tally.phaseNs.end()
                                     ? 0.0
                                     : it->second / tally.profiledRunNs;
            attributed += share;
            set(("sim.phase." + std::string(phase) + ".share").c_str(),
                share);
        }
        set("sim.unattributed.share", 1.0 - attributed);
    }
    set("sim.ff_frac", tally.steps > 0
                           ? static_cast<double>(tally.fastForwardedSteps)
                                 / static_cast<double>(tally.steps)
                           : 0.0);

    set("core.characterize_ms.engine",
        medianOf(durationsOf(all, "core.characterize_engine")) * 1e-6);
    set("core.characterize_ms.analytic",
        medianOf(durationsOf(all, "core.characterize_analytic")) * 1e-6);
    if (tally.monitorCalls > 0) {
        set("core.monitor_ns_per_call",
            tally.monitorNs / static_cast<double>(tally.monitorCalls));
        set("core.monitor.share", tally.monitorNs / tally.monitoredRunNs);
    }
    set("core.governor_apply_us",
        medianOf(durationsOf(all, "core.governor_apply")) * 1e-3);
    set("variation.generate_ms",
        medianOf(durationsOf(all, "variation.generate_chip")) * 1e-6);

    const double campaign_s =
        medianOf(durationsOf(window, "fleet.campaign")) * 1e-9;
    set("fleet.campaign_s", campaign_s);
    const double compute_s = layers["fleet.compute_s"].value;
    if (campaign_s > 0.0 && compute_s > 0.0)
        set("fleet.overhead_share", 1.0 - compute_s / (campaign_s * jobs));

    if (roundBusyFrac >= 0.0) {
        set("exec.busy_frac", roundBusyFrac);
    } else {
        double task_ns = 0.0;
        double map_ns = 0.0;
        for (const Span &s : window) {
            if (std::string("exec.task") == s.name)
                task_ns += s.endNs - s.startNs;
            else if (std::string("exec.parallel_map") == s.name)
                map_ns += s.endNs - s.startNs;
        }
        if (map_ns > 0.0)
            set("exec.busy_frac", task_ns / (map_ns * jobs));
    }
    set("chip.clone_us", medianOf(durationsOf(all, "chip.clone")) * 1e-3);
}

void
printJson(bool correct, long attempted, long failed,
          const std::vector<MetricDef> &defs, const MetricMap &values)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        const double value = it == values.end() ? 0.0 : it->second.value;
        os << (i ? ", " : "") << '"' << defs[i].name
           << "\": {\"value\": " << num(value) << ", \"unit\": \""
           << defs[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
run(const Args &args)
{
    // Set-up: each repetition builds the inputs afresh and runs the
    // warm-up. A short set-up is repeated until kSetupBudgetS have
    // been spent, so its median is not one scheduler hiccup. A traced
    // run reports no setup_s and sets up once.
    constexpr std::size_t kMinSetups = 3;
    constexpr std::size_t kMaxSetups = 25;
    constexpr double kSetupBudgetS = 2.0;
    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    std::unique_ptr<Workload> w;
    do {
        w = makeWorkload(args.workload, args.seed);
        const double t0 = nowNs();
        w->setup();
        setup_s.push_back((nowNs() - t0) * 1e-9);
        setup_total_s += setup_s.back();
    } while (!args.trace
             && (setup_s.size() < kMinSetups
                 || (setup_total_s < kSetupBudgetS
                     && setup_s.size() < kMaxSetups)));

    LayerTally untracedTally;
    LayerTally tally;
    Window plain;
    Window traced;
    runWindow(*w, args.trace ? args.seconds / 2 : args.seconds, false,
              untracedTally, plain);
    const double peak_rss = peakRssMb();
    std::vector<Span> windowSpans;
    if (args.trace) {
        SpanRecorder::global().setEnabled(true);
        runWindow(*w, args.seconds / 2, true, tally, traced);
        windowSpans = SpanRecorder::global().spans();
    }

    MetricMap report;
    Failures failures;
    w->verify(report, failures);

    MetricMap layers;
    if (args.trace) {
        w->probe(layers, tally);
        SpanRecorder::global().setEnabled(false);
        double busy = -1.0;
        for (const RoundResult &r : traced.rounds)
            busy = r.busyFrac >= 0.0 ? r.busyFrac : busy;
        deriveLayers(windowSpans, SpanRecorder::global().spans(), tally,
                     w->jobs(), busy, layers);
        layers["obs.trace_overhead"].value =
            median(traced.wallS) / median(plain.wallS) - 1.0;
    }

    // Outputs: every round repeats the same ops and must reproduce the
    // first round's digest and failures, so attempted and failed count
    // the run's distinct ops, whatever the number of rounds.
    std::vector<const RoundResult *> rounds;
    for (const RoundResult &r : plain.rounds)
        rounds.push_back(&r);
    for (const RoundResult &r : traced.rounds)
        rounds.push_back(&r);
    const long attempted = rounds[0]->ops;
    const long failed = rounds[0]->failed;
    std::vector<double> op_ms;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const RoundResult &r = *rounds[i];
        failures.insert(failures.end(), r.failures.begin(),
                        r.failures.end());
        if (r.digest != rounds[0]->digest) {
            failures.push_back("round " + std::to_string(i)
                               + " output digest differs from round 0");
        }
        if (r.ops != attempted || r.failed != failed) {
            failures.push_back("round " + std::to_string(i) + " failed "
                               + std::to_string(r.failed) + " of "
                               + std::to_string(r.ops)
                               + " ops, round 0 "
                               + std::to_string(failed) + " of "
                               + std::to_string(attempted));
        }
    }
    for (const RoundResult &r : plain.rounds)
        op_ms.insert(op_ms.end(), r.opMs.begin(), r.opMs.end());

    const RoundResult &first = plain.rounds.front();
    const double round_s = median(plain.wallS);
    MetricMap e2e;
    e2e["setup_s"] = {median(setup_s), "s"};
    e2e["ops_per_s"] = {static_cast<double>(first.ops) / round_s, "1/s"};
    e2e["peak_rss_mb"] = {peak_rss, "MB"};
    report["failed_frac"] = {
        static_cast<double>(failed)
            / static_cast<double>(std::max(attempted, 1L)),
        "frac"};
    if (first.simUs > 0.0)
        report["sim_us_per_s"] = {first.simUs / round_s, "us/s"};
    if (op_ms.size() >= 100) {
        report["op_ms_p50"] = {atmsim::util::percentile(op_ms, 50.0), "ms"};
        report["op_ms_p90"] = {atmsim::util::percentile(op_ms, 90.0), "ms"};
        report["op_ms_samples"] = {static_cast<double>(op_ms.size()),
                                   "count"};
    }

    std::cout << "atmbench " << args.workload << " seed=" << args.seed
              << " jobs=" << w->jobs() << " op=\"" << w->opName()
              << "\" rounds=" << plain.rounds.size() << "+"
              << traced.rounds.size() << " ops/round=" << first.ops
              << " timed_ops=" << op_ms.size() << "\n  round_s =";
    for (const double t : plain.wallS)
        std::cout << " " << num(t);
    std::cout << "\n  setups_s =";
    for (const double t : setup_s)
        std::cout << " " << num(t);
    std::cout << "\n";
    for (const auto &[name, m] : e2e)
        std::cout << "  " << name << " = " << num(m.value) << " " << m.unit
                  << "\n";
    for (const auto &[name, m] : report)
        std::cout << "  " << name << " = " << num(m.value) << " " << m.unit
                  << "\n";
    for (const auto &[name, m] : layers)
        std::cout << "  layer " << name << " = " << num(m.value) << "\n";
    std::cout << "  digest " << args.workload << " "
              << hex64(fnv1a(first.digest)) << "\n";
    for (const std::string &f : failures)
        std::cout << "  CHECK FAILED: " << f << "\n";
    if (failures.empty())
        std::cout << "  all output checks passed\n";

    if (args.trace && !args.spansOut.empty()) {
        const std::filesystem::path path(args.spansOut);
        if (path.has_parent_path())
            std::filesystem::create_directories(path.parent_path());
        std::ofstream os(path);
        SpanRecorder::global().dump(os);
    }

    if (args.trace) {
        MetricMap perLayer;
        for (const MetricDef &d : kPerLayer)
            perLayer[d.name] = {layers[d.name].value, d.unit};
        printJson(failures.empty(), attempted, failed, kPerLayer, perLayer);
    } else {
        printJson(failures.empty(), attempted, failed, kEndToEnd, e2e);
    }
    return failures.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.listMetrics) {
        for (const MetricDef &d : kEndToEnd)
            std::cout << "end_to_end " << d.name << " " << d.unit << "\n";
        for (const MetricDef &d : kPerLayer)
            std::cout << "per_layer " << d.name << " " << d.unit << "\n";
        for (const std::string &name : workloadNames())
            std::cout << "workload " << name << "\n";
        return 0;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "atmbench: " << e.what() << "\n";
        return 1;
    }
}
