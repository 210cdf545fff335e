/**
 * The exact engine's identity contract: EngineMode::Soa must
 * reproduce the committed golden digests bit for bit -- same
 * violations, same statistics accumulators, same safety counters --
 * across seeds, fault campaigns, mixed core modes, and attached
 * observers. Sampled mode is held to a looser contract (it is
 * approximate by design): the fast-forward must actually engage on
 * quiet runs and the headline means must land within 1% of soa. In
 * both modes, a profiled run (metrics attached) must match an
 * unprofiled one bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "chip/chip.h"
#include "core/safety_monitor.h"
#include "fault/fault_campaign.h"
#include "obs/metrics.h"
#include "sim/sim_engine.h"
#include "sim/steady_state.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace atmsim::sim {
namespace {

struct Scenario
{
    const char *name;
    std::uint64_t seed;
    const char *campaign;   ///< nullptr = no faults.
    bool mixedModes;        ///< Fixed-frequency core 1, gated core 3.
    bool monitored;         ///< Attach a SafetyMonitor.
    bool stopOnViolation;
    int reduction;          ///< CPM reduction on every ATM core.
    double runNoisePs;
};

/** One engine run of a scenario under the given mode, on a fresh
 *  chip, so the two modes never share mutable state. A non-null
 *  `metrics` is attached to the engine and the monitor, which turns
 *  the phase profiler on. */
RunResult
runScenario(const Scenario &sc, EngineMode mode, double duration_us,
            obs::MetricsRegistry *metrics = nullptr)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    const auto &x264 = workload::findWorkload("x264");
    chip.assignWorkload(2, &x264);
    for (int c = 0; c < chip.coreCount(); ++c)
        chip.core(c).setCpmReduction(util::CpmSteps{sc.reduction});
    if (sc.mixedModes) {
        chip.core(1).setMode(chip::CoreMode::FixedFrequency);
        chip.core(3).setMode(chip::CoreMode::Gated);
    }

    SimConfig config;
    config.mode = mode;
    config.seed = sc.seed;
    config.runNoisePs = sc.runNoisePs;
    config.stopOnViolation = sc.stopOnViolation;
    SimEngine engine(&chip, config);

    fault::FaultCampaign campaign;
    if (sc.campaign != nullptr) {
        campaign = fault::FaultCampaign::parse(sc.campaign);
        engine.setCampaign(&campaign);
    }
    std::vector<int> targets(
        static_cast<std::size_t>(chip.coreCount()), sc.reduction);
    core::SafetyMonitor monitor(&chip, targets);
    if (sc.monitored)
        engine.setObserver(&monitor);
    if (metrics != nullptr) {
        monitor.setObservability({metrics, nullptr, nullptr});
        engine.setObservability({metrics, nullptr, nullptr});
    }
    return engine.run(duration_us);
}

const Scenario kScenarios[] = {
    {"idle", 1, nullptr, false, false, true, 0, 0.0},
    {"noise-seed7", 7, nullptr, false, false, true, 0, 1.1},
    {"mixed-modes", 3, nullptr, true, false, true, 2, 0.5},
    {"cpm-stuck", 7,
     "cpm-stuck:core=2,site=0,start=1,dur=4,mag=24",
     false, false, false, 6, 1.1},
    {"cpm-stuck-monitored", 7,
     "cpm-stuck:core=2,site=0,start=1,dur=4,mag=24",
     false, true, false, 6, 1.1},
    {"droop-storm-mixed", 17,
     "droop-storm:core=2,start=1,dur=3,mag=2.5",
     true, true, false, 6, 1.1},
    {"vrm-step-stop", 17,
     "vrm-step:start=2,dur=4,mag=40",
     false, false, true, 4, 1.1},
    {"two-faults", 11,
     "thermal:core=2,start=1,dur=5,mag=25;"
     "aging-jump:core=0,start=3,dur=6,mag=0.05",
     false, true, false, 5, 1.1},
};

/**
 * The committed golden digests (tests/golden/engine_identity.txt, one
 * `<scenario> <resultDigest>` line per scenario) pin the exact engine's
 * output for every scenario above. On a mismatch the test writes the
 * digests it computed to engine_identity.actual.txt in its working
 * directory; replacing the golden file with it is a data change that
 * needs a CHANGES.md entry saying why the output moved.
 */
TEST(EngineIdentity, SoaMatchesGoldenDigests)
{
    const std::string path =
        std::string(ATMSIM_GOLDEN_DIR) + "/engine_identity.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::map<std::string, std::string> golden;
    std::string name, rest;
    while (in >> name && std::getline(in, rest))
        golden[name] = rest.substr(rest.find_first_not_of(' '));

    std::ostringstream actual;
    bool all_match = true;
    for (const Scenario &sc : kScenarios) {
        const std::string got =
            resultDigest(runScenario(sc, EngineMode::Soa, 8.0));
        actual << sc.name << ' ' << got << '\n';
        const auto it = golden.find(sc.name);
        const bool match = it != golden.end() && it->second == got;
        EXPECT_TRUE(match) << sc.name << " differs from " << path;
        all_match = all_match && match;
    }
    EXPECT_EQ(golden.size(), std::size(kScenarios));
    if (!all_match) {
        std::ofstream("engine_identity.actual.txt") << actual.str();
        ADD_FAILURE() << "computed digests written to "
                         "engine_identity.actual.txt";
    }
}

TEST(EngineIdentity, SoaIsDeterministicAcrossRepeats)
{
    const Scenario &sc = kScenarios[4]; // monitored fault replay
    const std::string first =
        resultDigest(runScenario(sc, EngineMode::Soa, 8.0));
    const std::string second =
        resultDigest(runScenario(sc, EngineMode::Soa, 8.0));
    EXPECT_EQ(first, second);
}

TEST(EngineIdentity, ProfilerLeavesResultsBitwiseUnchanged)
{
    // The phase profiler reads only the wall clock, never simulated
    // state: attaching a registry (profiler on) must not move a bit
    // of any result, in either fast mode, across the fault campaigns
    // and the monitored scenarios.
    for (const EngineMode mode : {EngineMode::Soa, EngineMode::Sampled}) {
        for (const Scenario &sc : kScenarios) {
            const std::string label =
                std::string(sc.name) + "/" + engineModeName(mode);
            obs::MetricsRegistry metrics;
            const RunResult plain = runScenario(sc, mode, 8.0);
            const RunResult profiled =
                runScenario(sc, mode, 8.0, &metrics);
            EXPECT_EQ(resultDigest(plain), resultDigest(profiled)) << label;
            EXPECT_EQ(plain.fastForwardedSteps,
                      profiled.fastForwardedSteps)
                << label;
            EXPECT_TRUE(plain.phaseStats.empty()) << label;

            // Every cycle-stepped step advances the PDN exactly once;
            // fast-forwarded steps never do.
            const auto pdn = std::find_if(
                profiled.phaseStats.begin(), profiled.phaseStats.end(),
                [](const obs::PhaseStat &p) {
                    return std::string(p.name) == "engine.pdn_advance";
                });
            ASSERT_NE(pdn, profiled.phaseStats.end()) << label;
            EXPECT_EQ(pdn->calls,
                      profiled.steps - profiled.fastForwardedSteps)
                << label;
        }
    }
}

TEST(EngineIdentity, SampledFastForwardsQuietRuns)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    SimConfig config;
    config.mode = EngineMode::Sampled;
    SimEngine engine(&chip, config);
    const RunResult result = engine.run(4.0);
    EXPECT_FALSE(result.failed());
    EXPECT_GT(result.fastForwardedSteps, result.steps / 2)
        << "detector never armed on an idle run";
    EXPECT_LE(result.fastForwardedSteps, result.steps);
}

TEST(EngineIdentity, SampledStaysWithinOnePercent)
{
    const auto run = [](EngineMode mode) {
        chip::Chip chip(variation::makeReferenceChip(0));
        const auto &gcc = workload::findWorkload("gcc");
        chip.assignWorkload(0, &gcc);
        SimConfig config;
        config.mode = mode;
        SimEngine engine(&chip, config);
        return engine.run(6.0);
    };
    const RunResult exact = run(EngineMode::Soa);
    const RunResult fast = run(EngineMode::Sampled);
    EXPECT_EQ(exact.steps, fast.steps);
    ASSERT_EQ(exact.coreStats.size(), fast.coreStats.size());
    for (std::size_t c = 0; c < exact.coreStats.size(); ++c) {
        EXPECT_EQ(exact.coreStats[c].freqMhz.count(),
                  fast.coreStats[c].freqMhz.count());
        EXPECT_NEAR(fast.coreStats[c].freqMhz.mean(),
                    exact.coreStats[c].freqMhz.mean(),
                    exact.coreStats[c].freqMhz.mean() * 0.01)
            << "core " << c;
        EXPECT_NEAR(fast.coreStats[c].voltageV.mean(),
                    exact.coreStats[c].voltageV.mean(),
                    exact.coreStats[c].voltageV.mean() * 0.01)
            << "core " << c;
    }
    EXPECT_NEAR(fast.chipPowerW.mean(), exact.chipPowerW.mean(),
                exact.chipPowerW.mean() * 0.01);
}

TEST(EngineIdentity, SampledNeverFastForwardsPastFaultEdges)
{
    // A campaign strike must be hit by cycle stepping, not jumped
    // over: the faulted core still violates, starting at the same
    // strike. Episode *counts* may differ by a step or two of
    // re-quantization (control actions land on the slow cadence
    // while fast-forwarding), so they are held to 90%, not equality.
    const Scenario &sc = kScenarios[3]; // cpm-stuck, unmonitored
    const RunResult exact = runScenario(sc, EngineMode::Soa, 8.0);
    const RunResult fast =
        runScenario(sc, EngineMode::Sampled, 8.0);
    long exact_eps = 0, fast_eps = 0;
    for (const CoreRunStats &cs : exact.coreStats)
        exact_eps += cs.violations;
    for (const CoreRunStats &cs : fast.coreStats)
        fast_eps += cs.violations;
    ASSERT_GT(exact_eps, 0);
    ASSERT_GT(fast_eps, 0);
    EXPECT_NEAR(static_cast<double>(fast_eps),
                static_cast<double>(exact_eps),
                std::max(2.0, static_cast<double>(exact_eps) * 0.1));
    // Both runs must see the strike land at the same first episode.
    ASSERT_FALSE(exact.violations.empty());
    ASSERT_FALSE(fast.violations.empty());
    EXPECT_EQ(exact.violations.front().core,
              fast.violations.front().core);
    EXPECT_NEAR(exact.violations.front().timeNs,
                fast.violations.front().timeNs, 50.0);
}

TEST(EngineIdentity, ModeNamesRoundTrip)
{
    for (EngineMode mode : {EngineMode::Soa, EngineMode::Sampled}) {
        EngineMode parsed = mode == EngineMode::Soa
                                ? EngineMode::Sampled
                                : EngineMode::Soa;
        EXPECT_TRUE(engineModeFromName(engineModeName(mode), parsed));
        EXPECT_EQ(parsed, mode);
    }
    // The object-per-core loop is gone; its name no longer parses.
    for (const char *name : {"legacy", "warp"}) {
        EngineMode out = EngineMode::Sampled;
        EXPECT_FALSE(engineModeFromName(name, out)) << name;
        EXPECT_EQ(out, EngineMode::Sampled) << name;
    }
}

TEST(SteadyStateDetectorTest, ArmsAfterWindowAndResets)
{
    SteadyStateConfig config;
    config.windowSteps = 4;
    SteadyStateDetector detect(config);
    EXPECT_FALSE(detect.armed());
    for (int i = 0; i < 3; ++i)
        detect.note(true);
    EXPECT_FALSE(detect.armed());
    detect.note(true);
    EXPECT_TRUE(detect.armed());
    detect.note(false); // any disturbance restarts the window
    EXPECT_FALSE(detect.armed());
    EXPECT_EQ(detect.quietStreak(), 0L);
    detect.reset();
    EXPECT_FALSE(detect.armed());
}

} // namespace
} // namespace atmsim::sim
