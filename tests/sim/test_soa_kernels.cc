/**
 * @file
 * Kernel-level reference for the engine's structure-of-arrays state:
 * EngineSoaState::controlStepAll, timingDeficitPs and periodPs must
 * track the per-object AtmCore::stepControl / timingDeficitPs /
 * periodPs bit for bit, step after step. The engine's golden digests
 * show *that* the step loop drifted; this test shows which kernel did.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "chip/chip.h"
#include "sim/soa_state.h"
#include "variation/reference_chips.h"

namespace atmsim::sim {
namespace {

/** Raw bits of a double, so equality means bitwise equality. */
std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** The mix every kernel branch sees: fine-tuned ATM cores, one
 *  fixed-frequency core, one gated core, and a stuck CPM site. */
void
configure(chip::Chip &chip)
{
    for (int c = 0; c < chip.coreCount(); ++c)
        chip.core(c).setCpmReduction(util::CpmSteps{4});
    chip.core(1).setMode(chip::CoreMode::FixedFrequency);
    chip.core(3).setMode(chip::CoreMode::Gated);
    chip.core(2).cpmBank().injectStuckOutput(0, 2);
}

TEST(SoaKernels, MatchPerCoreObjectsBitwise)
{
    // `chip` supplies the electrical environment and the SoA state;
    // `ref` is an identical chip whose cores step object by object.
    chip::Chip chip(variation::makeReferenceChip(0));
    chip::Chip ref(variation::makeReferenceChip(0));
    configure(chip);
    configure(ref);
    const int n = chip.coreCount();
    const auto cores = static_cast<std::size_t>(n);

    std::vector<util::Amps> load(cores, util::Amps{6.0});
    const util::Amps uncore{10.0};
    chip.pdn().settle(load, uncore);
    for (int c = 0; c < n; ++c) {
        const util::Volts v = chip.pdn().coreV(c);
        const util::Celsius t = chip.thermal().coreTempC(c);
        chip.core(c).resetClock(v, t);
        ref.core(c).resetClock(v, t);
    }

    const std::vector<util::Picoseconds> exposure(
        cores, util::Picoseconds{3.0});
    const util::Picoseconds noise{1.1};
    std::vector<util::Volts> steady_v(cores);
    for (int c = 0; c < n; ++c)
        steady_v[static_cast<std::size_t>(c)] = chip.pdn().coreV(c);
    EngineSoaState soa;
    soa.build(chip, exposure, steady_v, noise.value());

    long deficits_seen = 0;
    for (int step = 0; step < 400; ++step) {
        const double now_ns = static_cast<double>(step) * 0.2;
        // A load that swings every 25 steps drives droops and
        // recoveries, so the DPLLs slew both ways.
        const util::Amps swing{(step / 25) % 2 == 1 ? 14.0 : 4.0};
        load.assign(cores, swing);
        chip.pdn().step(util::Seconds{0.2e-9}, load, uncore);
        soa.refreshCoreV(chip, load);
        soa.controlStepAll(now_ns);

        for (int c = 0; c < n; ++c) {
            const auto ci = static_cast<std::size_t>(c);
            const util::Volts v = chip.pdn().coreV(c);
            const util::Celsius t = chip.thermal().coreTempC(c);
            chip::AtmCore &core = ref.core(c);
            core.stepControl(util::Nanoseconds{now_ns}, v, t);

            ASSERT_EQ(bits(soa.coreV(ci)), bits(v.value()))
                << "refreshCoreV, core " << c << " step " << step;
            ASSERT_EQ(bits(soa.periodPs(ci)), bits(core.periodPs().value()))
                << "controlStepAll period, core " << c << " step "
                << step;
            ASSERT_EQ(soa.lastWorstCount(ci), core.lastWorstCount())
                << "controlStepAll margin, core " << c << " step "
                << step;
            if (soa.gated(ci))
                continue;
            const double deficit =
                core.timingDeficitPs(v, t, exposure[ci], noise).value();
            ASSERT_EQ(bits(soa.timingDeficitPs(ci)), bits(deficit))
                << "timingDeficitPs, core " << c << " step " << step;
            if (deficit > 0.0)
                ++deficits_seen;
        }
    }

    // The run must exercise the loops, not just compare idle state.
    EXPECT_GT(soa.dpllAdjustments(), 0L);
    EXPECT_GT(deficits_seen, 0L);
    EXPECT_EQ(soa.lastWorstCount(3), -1); // gated: never sampled
}

} // namespace
} // namespace atmsim::sim
