#include "variation/calibration.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "circuit/constants.h"
#include "util/logging.h"
#include "util/units.h"

namespace atmsim::variation {

namespace {

/** Sample an unconstrained CPM segment delay (nominal ps). */
double
sampleStep(util::Rng &rng)
{
    const double sigma = 0.45;
    const double mu = std::log(kMeanStepPs) - 0.5 * sigma * sigma;
    return std::max(0.7, rng.lognormal(mu, sigma));
}

} // namespace

void
CoreLimitTargets::validate() const
{
    if (worst < 1)
        util::fatal("thread-worst limit must be >= 1, got ", worst);
    if (!(worst <= normal && normal <= ubench && ubench <= idle)) {
        util::fatal("limit ordering violated: worst ", worst, " normal ",
                    normal, " ubench ", ubench, " idle ", idle);
    }
    if (idle > 14)
        util::fatal("idle limit ", idle, " implausibly large");
    if (idleLimitMhz < 4300.0 || idleLimitMhz > 5600.0)
        util::fatal("idle-limit frequency ", idleLimitMhz,
                    " MHz outside plausible band");
}

double
scenarioExtraPs(const CoreSiliconParams &core, double exposure_ps,
                double droop_mv)
{
    return exposure_ps
         + core.didtVulnerability * kUncoveredPsPerMv * droop_mv;
}

double
runNoisePs(const CoreSiliconParams &core, int rep)
{
    // Scrambled van der Corput: any 8 consecutive draws place exactly
    // one sample in each eighth of the noise range, so short repeat
    // campaigns still observe both the benign and the hostile end.
    util::VanDerCorput seq(util::fnv1a(core.name));
    return core.idleNoiseFloorPs + core.idleNoiseRangePs * seq.at(rep);
}

namespace {

/**
 * One attempt at the full inversion; returns false when the sampled
 * step jitter leads to an infeasible placement (the caller retries
 * with fresh jitter).
 *
 * Placement scheme: a scenario whose characterization limit must be X
 * gets its effective extra delay E placed so that
 *   - configuration X is safe under the entire noise range
 *     (E <= S(X) - n0 - r), and
 *   - configuration X+1 fails for noise draws in the upper part of
 *     the range (E ~ S(X+1) - n0 - 0.35 r),
 * which both pins the observed limit at X (the repeat campaign's most
 * conservative outcome) and produces the two-configuration run-to-run
 * distributions of Figs. 7-9.
 */
bool
tryBuildCore(CoreSiliconParams &core, const CoreLimitTargets &t,
             int preset_steps, double speed_factor, util::Rng &rng,
             const StepHints *hints, double guard_inflation)
{
    const double dpll_slack_ps = circuit::kDpllTargetSlack.value();
    const double s = speed_factor;
    const double n0 = kIdleNoiseFloorPs;
    const double r = kIdleNoiseRangePs;
    const double conv = kUncoveredPsPerMv;
    const double d_ub = kUbenchDroopMv;
    const double d_norm = kNormalClassMaxDroopMv;
    const double d_worst = kWorstClassDroopMv;
    const int P = preset_steps;
    const int L = t.idle;

    // --- 1. Step deltas d[1..P]: d[i] is the segment removed by
    // reduction step i, in nominal ps.
    std::vector<double> d(P + 1, 0.0);
    std::vector<bool> pinned(P + 1, false);
    if (hints) {
        for (std::size_t i = 0; i < hints->size() && i < d.size() - 1; ++i) {
            if ((*hints)[i] > 0.0) {
                d[i + 1] = (*hints)[i] / s; // hints are effective ps
                pinned[i + 1] = true;
            }
        }
    }

    // Total removal over L steps fixes the idle-limit frequency.
    const double period0 =
        util::periodOf(circuit::kDefaultAtmIdleMhz).value();
    const double period_l = util::mhzToPs(t.idleLimitMhz);
    const double removal = (period0 - period_l) / s;
    if (removal <= 0.0)
        util::fatal("idle-limit frequency must exceed the default ATM idle");

    double pinned_sum = 0.0;
    int free_count = 0;
    for (int i = 1; i <= L; ++i) {
        if (pinned[i])
            pinned_sum += d[i];
        else
            ++free_count;
    }
    if (free_count > 0) {
        if (pinned_sum >= removal)
            util::fatal("step hints exceed the removal budget");
        std::vector<double> raw(L + 1, 0.0);
        double raw_sum = 0.0;
        for (int i = 1; i <= L; ++i) {
            if (!pinned[i]) {
                // Bias segments above the thread-normal position when
                // the solve keeps failing: this raises the normal/worst
                // placement windows together, which is what separates
                // them enough for the bounded app-droop range.
                const double bias = i > t.normal + 1 ? guard_inflation
                                                     : 1.0;
                raw[i] = sampleStep(rng) * bias;
                raw_sum += raw[i];
            }
        }
        const double scale = (removal - pinned_sum) / raw_sum;
        for (int i = 1; i <= L; ++i) {
            if (!pinned[i])
                d[i] = raw[i] * scale;
        }
    }

    // Guard segment (first unsafe step) and deeper segments.
    if (!pinned[L + 1]) {
        d[L + 1] = std::max(kMinGuardStepPs / s,
                            rng.uniform(1.3, 2.6)) * guard_inflation;
    }
    for (int i = L + 2; i <= P; ++i) {
        if (!pinned[i])
            d[i] = sampleStep(rng);
    }

    // Every segment in the explored range must exceed the run-noise
    // window or adjacent configurations become indistinguishable.
    for (int i = 1; i <= std::min(L + 1, P); ++i) {
        if (d[i] * s < 0.7 * r)
            return false;
    }

    // The chain extends past the preset so non-controlling CPM sites
    // can carry their extra preset offsets (Fig. 4b).
    constexpr int extra_segments = 4;
    core.cpmStepPs.assign(static_cast<std::size_t>(P) + extra_segments,
                          0.0);
    for (int i = 1; i <= P; ++i)
        core.cpmStepPs[P - i] = d[i];
    for (int j = P; j < P + extra_segments; ++j)
        core.cpmStepPs[static_cast<std::size_t>(j)] = sampleStep(rng);
    core.presetSteps = P;
    core.speedFactor = s;

    // --- 2. Synthetic path: preset lands exactly on the default ATM
    // idle frequency at nominal conditions.
    const double ins_full = std::accumulate(core.cpmStepPs.begin(),
                                            core.cpmStepPs.begin() + P,
                                            0.0);
    core.synthPathPs = (period0 - dpll_slack_ps) / s - ins_full;
    if (core.synthPathPs <= 0.0)
        util::fatal("negative synthetic path delay");

    // --- 3. Real path from the idle placement S(L+1) = n0 + 0.3 r.
    core.realPathIdlePs = core.synthPathPs
                        + core.insertedDelayPs(CpmSteps{P - L - 1}).value()
                        + (dpll_slack_ps - n0 - 0.3 * r) / s;
    core.idleNoiseFloorPs = n0;
    core.idleNoiseRangePs = r;

    // Placement window for a scenario with limit X (see doc comment).
    auto slack = [&](int x) {
        return core.safetySlackPs(CpmSteps{x}).value();
    };
    auto win_lo = [&](int x) { return slack(x + 1) - n0 - 0.5 * r; };
    auto win_hi = [&](int x) { return slack(x) - n0 - r; };
    auto place = [&](int x) { return slack(x + 1) - n0 - 0.35 * r; };
    auto in_window = [&](double e, int x) {
        return e > win_lo(x) && e <= win_hi(x);
    };

    // --- 4. Vulnerability and load exposure from the thread rows.
    const int N = t.normal;
    const int W = t.worst;
    double vuln = 0.0;
    double load = 0.0;
    if (W < N) {
        const double tn = place(N);
        const double tw = place(W);
        vuln = (tw - tn) / (conv * (d_worst - d_norm));
        load = tn - vuln * conv * d_norm;
        if (load < 0.0) {
            load = 0.0;
            const double lo = std::max({win_lo(N) / d_norm,
                                        win_lo(W) / d_worst, 0.0});
            const double hi = std::min(win_hi(N) / d_norm,
                                       win_hi(W) / d_worst);
            if (lo >= hi)
                return false; // infeasible; retry with new jitter
            vuln = 0.5 * (lo + hi) / conv;
        }
    } else {
        // Degenerate: normal and worst land in the same window.
        // Spread the two stress levels inside it.
        const double lo = std::max(win_lo(N), 0.0);
        const double width = win_hi(N) - lo;
        if (width <= 0.0)
            return false;
        const double e_norm_t = lo + 0.3 * width;
        const double e_worst_t = lo + 0.7 * width;
        vuln = (e_worst_t - e_norm_t) / (conv * (d_worst - d_norm));
        load = e_norm_t - vuln * conv * d_norm;
        if (load < 0.0) {
            load = 0.0;
            const double vlo = std::max(win_lo(N), 0.0) / d_norm;
            const double vhi = win_hi(N) / d_worst;
            if (vlo >= vhi)
                return false;
            vuln = 0.5 * (vlo + vhi) / conv;
        }
    }
    if (vuln < 0.0)
        return false;
    core.didtVulnerability = vuln;
    core.loadExposurePs = load;

    // Check both bounding stress levels land in their windows.
    if (!in_window(scenarioExtraPs(core, load, d_norm), N))
        return false;
    if (!in_window(scenarioExtraPs(core, load, d_worst), W))
        return false;

    // --- 5. uBench exposure.
    const int U = t.ubench;
    double e_ub_target;
    if (U == L)
        e_ub_target = std::min(0.1 * r, win_hi(L));
    else
        e_ub_target = std::min(place(U), win_hi(U));
    core.ubenchExtraPs = std::max(0.0, e_ub_target - vuln * conv * d_ub);
    const double e_ub = scenarioExtraPs(core, core.ubenchExtraPs, d_ub);
    if (U == L) {
        if (e_ub > win_hi(L))
            return false;
    } else if (!in_window(e_ub, U)) {
        return false;
    }

    // The test-time virus must sustain the thread-worst configuration
    // across the whole noise range (Sec. VII-A).
    if (scenarioExtraPs(core, load, kVirusDroopMv) > win_hi(W))
        return false;

    return true;
}

} // namespace

CoreSiliconParams
buildCoreFromTargets(const std::string &name, const CoreLimitTargets &targets,
                     int preset_steps, double speed_factor, util::Rng &rng,
                     const StepHints *hints)
{
    targets.validate();
    if (preset_steps < targets.idle + 2) {
        util::fatal("core ", name, ": preset ", preset_steps,
                    " too small for idle limit ", targets.idle);
    }
    // The removal the idle-limit frequency implies must leave every
    // segment above the run-noise resolution, or adjacent
    // configurations would be indistinguishable to characterization.
    const double removal =
        (util::periodOf(circuit::kDefaultAtmIdleMhz).value()
         - util::mhzToPs(targets.idleLimitMhz)) / speed_factor;
    if (removal < 0.9 * static_cast<double>(targets.idle)) {
        util::fatal("core ", name, ": idle limit ", targets.idle,
                    " needs segments below the noise resolution for a ",
                    targets.idleLimitMhz, " MHz idle-limit frequency");
    }

    CoreSiliconParams core;
    core.name = name;
    // Five CPM sites (IFU, ISU, FXU, FPU, LLC); the controlling site
    // has offset 0, the rest carry extra preset protection.
    core.siteOffsets.assign(circuit::kCpmSitesPerCore, 0);
    util::Rng site_rng = rng.fork(util::fnv1a(name));
    for (std::size_t i = 1; i < core.siteOffsets.size(); ++i)
        core.siteOffsets[i] = 1 + static_cast<int>(site_rng.below(3));

    const int max_attempts = 240;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        // Inflate the guard segment (and the segments above the
        // thread-normal position) gradually if the solve keeps
        // failing; this raises the placement windows apart.
        const double inflation = 1.0 + 0.3 * (attempt / 10);
        if (tryBuildCore(core, targets, preset_steps, speed_factor, rng,
                         hints, inflation)) {
            core.validate();
            verifyCoreTargets(core, targets);
            return core;
        }
    }
    util::fatal("core ", name,
                ": could not invert silicon parameters from targets");
}

void
verifyCoreTargets(const CoreSiliconParams &core,
                  const CoreLimitTargets &targets, int reps)
{
    auto observed_limit = [&](double exposure, double droop) {
        int lo = core.presetSteps;
        for (int rep = 0; rep < reps; ++rep) {
            const double extra = scenarioExtraPs(core, exposure, droop);
            const int k =
                analyticMaxSafeReduction(
                    core, Picoseconds{extra},
                    Picoseconds{runNoisePs(core, rep)})
                    .value();
            lo = std::min(lo, k);
        }
        return lo;
    };

    const int idle = observed_limit(0.0, 0.0);
    if (idle != targets.idle)
        util::fatal("core ", core.name, ": idle limit ", idle,
                    " != target ", targets.idle);
    const int ubench = observed_limit(core.ubenchExtraPs, kUbenchDroopMv);
    if (ubench != targets.ubench)
        util::fatal("core ", core.name, ": uBench limit ", ubench,
                    " != target ", targets.ubench);
    const int normal = observed_limit(core.loadExposurePs,
                                      kNormalClassMaxDroopMv);
    if (normal != targets.normal)
        util::fatal("core ", core.name, ": thread-normal limit ", normal,
                    " != target ", targets.normal);
    const int worst = observed_limit(core.loadExposurePs, kWorstClassDroopMv);
    if (worst != targets.worst)
        util::fatal("core ", core.name, ": thread-worst limit ", worst,
                    " != target ", targets.worst);
}

} // namespace atmsim::variation
