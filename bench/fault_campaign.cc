/**
 * @file
 * Fault-injection campaign sweep: every fault kind in the taxonomy, at
 * two intensities, against three deployments -- fine-tuned limits with
 * the safety monitor, fine-tuned limits unsupervised, and the factory
 * default ATM configuration. The sweep quantifies the robustness story
 * behind the paper's Sec. VII-A deployment flow: fine-tuning alone
 * trades margin for exposure when hardware misbehaves; the monitor
 * buys the margin back per-core, without touching healthy cores.
 *
 * Usage: fault_campaign [--csv <path>] [--serial-check]
 *                       [--engine-mode soa|sampled]
 *
 * --serial-check re-runs the sweep serially and fails unless every
 * cell's result is bitwise-identical to the parallel run (the
 * jobs-invariance contract). The CSV's digest column hashes each
 * cell's full run digest; tests/golden/fault_campaign.csv pins it.
 */

#include <cstddef>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/governor.h"
#include "core/safety_monitor.h"
#include "exec/thread_pool.h"
#include "fault/fault_campaign.h"
#include "obs/metrics.h"
#include "sim/sim_engine.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/catalog.h"

using namespace atmsim;

namespace {

struct SweepPoint
{
    fault::FaultKind kind;
    double magnitude;
};

struct Deployment
{
    const char *name;
    core::GovernorPolicy policy;
    bool monitored;
};

std::string
fmt2(double value)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << value;
    return os.str();
}

/** 64-bit FNV-1a of the full run digest, as 16 hex digits: one CSV
 *  column that changes whenever any simulated bit of the cell does. */
std::string
digestHex(const sim::RunResult &result)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << util::fnv1a(sim::resultDigest(result));
    return os.str();
}

/** The campaign for one sweep point: a 5 us strike at core 2. */
fault::FaultCampaign
campaignFor(const SweepPoint &point)
{
    fault::FaultSpec spec;
    spec.kind = point.kind;
    spec.core = point.kind == fault::FaultKind::VrmLoadStep ? -1 : 2;
    spec.site = 0;
    spec.startUs = 1.0;
    spec.durationUs = 5.0;
    spec.magnitude = point.magnitude;
    fault::FaultCampaign campaign;
    campaign.add(spec);
    return campaign;
}

} // namespace

int
main(int raw_argc, char **raw_argv)
{
    bench::BenchSession session("fault_campaign", raw_argc, raw_argv);
    const int argc = session.argc();
    char **argv = session.argv();
    bench::banner("Fault campaign",
                  "Fault kind x intensity x deployment sweep: "
                  "violation episodes, silent failures, and monitor "
                  "recovery on reference chip 0 (fault at P0C2, "
                  "1-6 us window, 12 us runs).");

    const std::vector<SweepPoint> points = {
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
    };
    const std::vector<Deployment> deployments = {
        {"fine-tuned+monitor", core::GovernorPolicy::FineTuned, true},
        {"fine-tuned", core::GovernorPolicy::FineTuned, false},
        {"default-atm", core::GovernorPolicy::DefaultAtm, false},
    };

    auto chip = bench::makeReferenceChip(0);
    session.setChip(chip->name());
    const core::LimitTable limits = bench::characterize(*chip, session);
    const auto &x264 = workload::findWorkload("x264");

    bool serial_check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--serial-check")
            serial_check = true;
    }

    const std::string csv_path = bench::csvPathFromArgs(argc, argv);
    std::unique_ptr<util::CsvWriter> csv;
    if (!csv_path.empty()) {
        csv = std::make_unique<util::CsvWriter>(csv_path);
        csv->writeRow({"fault", "magnitude", "deployment", "episodes",
                       "detected", "silent", "anomalies", "quarantines",
                       "fallbacks", "recoveries", "degraded_us",
                       "emergencies", "digest"});
    }

    // One task per (fault, deployment) cell. Every cell runs on a
    // private chip clone with a private metric shard, so the grid is
    // identical at every --jobs value (the serial loop also leaked a
    // rounding residue from AgingJump revert into later cells; clones
    // make each cell exact). Rows, CSV lines, manifest totals, and
    // metric shards all fold in cell order below.
    sim::SimConfig config;
    config.stopOnViolation = false;
    config.runNoisePs = 1.1;
    config.seed = 17;
    session.applyEngineMode(config);
    session.setConfig(config);

    const std::size_t n_deploy = deployments.size();
    const std::size_t n_cells = points.size() * n_deploy;
    const auto run_cell = [&](std::size_t i,
                              obs::MetricsRegistry *shard) {
        const SweepPoint &point = points[i / n_deploy];
        const Deployment &deployment = deployments[i % n_deploy];
        const obs::Observability sinks{shard, nullptr};

        chip::Chip cell_chip(chip->silicon(), chip->config());
        core::Governor governor(&cell_chip, limits);
        governor.setObservability(sinks);
        governor.apply(deployment.policy);
        cell_chip.assignWorkload(2, &x264);
        fault::FaultCampaign campaign = campaignFor(point);

        core::SafetyMonitorConfig monitor_config;
        monitor_config.backoffBaseUs = 1.0;
        monitor_config.maxBackoffUs = 4.0;
        monitor_config.stageIntervalUs = 0.2;
        core::SafetyMonitor monitor(
            &cell_chip,
            governor.reductions(deployment.policy),
            monitor_config);
        monitor.setObservability(sinks);

        sim::SimEngine engine(&cell_chip, config);
        engine.setCampaign(&campaign);
        if (deployment.monitored)
            engine.setObserver(&monitor);
        engine.setObservability(sinks);
        return engine.run(12.0);
    };
    std::vector<std::unique_ptr<obs::MetricsRegistry>> shards(n_cells);
    const std::vector<sim::RunResult> results =
        exec::parallelMap<sim::RunResult>(
            n_cells,
            [&](std::size_t i) {
                shards[i] = std::make_unique<obs::MetricsRegistry>();
                return run_cell(i, shards[i].get());
            },
            session.jobs());
    for (const auto &shard : shards)
        session.metrics().mergeFrom(*shard);

    util::TextTable table;
    table.setHeader({"fault", "mag", "deployment", "episodes", "silent",
                     "quar", "fall", "recov", "degr us"});
    long unsupervised_silent = 0;
    long supervised_silent = 0;
    for (std::size_t i = 0; i < n_cells; ++i) {
        const SweepPoint &point = points[i / n_deploy];
        const Deployment &deployment = deployments[i % n_deploy];
        const sim::RunResult &result = results[i];
        session.noteEngineRun(result);

        const sim::SafetyCounters &s = result.safety;
        if (deployment.monitored)
            supervised_silent += s.silentFailures;
        else
            unsupervised_silent += s.silentFailures;
        table.addRow({faultKindName(point.kind),
                      fmt2(point.magnitude),
                      deployment.name,
                      std::to_string(result.totalViolations()),
                      std::to_string(s.silentFailures),
                      std::to_string(s.quarantines),
                      std::to_string(s.fallbacks),
                      std::to_string(s.recoveries),
                      fmt2(s.degradedTimeNs * 1e-3)});
        if (csv) {
            csv->writeRow({faultKindName(point.kind),
                           fmt2(point.magnitude),
                           deployment.name,
                           std::to_string(result.totalViolations()),
                           std::to_string(s.detectedViolations),
                           std::to_string(s.silentFailures),
                           std::to_string(s.anomalies),
                           std::to_string(s.quarantines),
                           std::to_string(s.fallbacks),
                           std::to_string(s.recoveries),
                           fmt2(s.degradedTimeNs * 1e-3),
                           std::to_string(s.emergencies),
                           digestHex(result)});
        }
    }
    table.print(std::cout);

    std::cout << "\nsilent failures: " << supervised_silent
              << " supervised vs " << unsupervised_silent
              << " unsupervised across the sweep.\n";
    if (supervised_silent == 0)
        std::cout << "the monitor detected every violation episode it "
                     "supervised.\n";

    if (serial_check) {
        // Re-run every cell serially and demand bitwise identity with
        // the parallel run: catches any jobs-dependence.
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < n_cells; ++i) {
            obs::MetricsRegistry scratch;
            const sim::RunResult ref = run_cell(i, &scratch);
            if (sim::resultDigest(ref) != sim::resultDigest(results[i])) {
                std::cerr << "serial check: cell " << i << " ("
                          << faultKindName(points[i / n_deploy].kind)
                          << " x "
                          << deployments[i % n_deploy].name
                          << ") differs from the serial run\n";
                ++mismatches;
            }
        }
        if (mismatches > 0) {
            std::cerr << "serial check FAILED: " << mismatches
                      << " cell(s) diverge from the serial run\n";
            return 1;
        }
        std::cout << "serial check passed: all " << n_cells
                  << " cells bitwise-identical to the serial run\n";
        // Record the verdict in the manifest so a committed
        // BENCH_fault_campaign.json is evidence of jobs-invariance,
        // not just a console line.
        session.setCounter("campaign.serial_check_cells",
                           static_cast<double>(n_cells));
        session.setCounter("campaign.serial_check_mismatches", 0.0);
    }
    return supervised_silent == 0 ? 0 : 1;
}
