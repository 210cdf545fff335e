/**
 * @file
 * Per-phase wall-clock accounting and the observability bundle.
 *
 * PhaseProfiler counts the invocations of a small fixed set of named
 * phases (the engine's PDN advance, thermal cadence, ATM loop,
 * violation check, ...) and estimates the wall time each one took. It
 * is the source of the per-phase breakdown in run manifests and of the
 * chunked phase spans in Chrome traces.
 *
 * Per-step phases run every 0.2 ns step, so timing each call would
 * make the profiler a large share of what it measures. A phase
 * registered as sampled reads the clock on one call in kStride
 * (the first, then every kStride-th); every call is still counted,
 * and the estimate scales the timed intervals up by calls / timed.
 * Rare phases are timed on every call. The stride is prime, so it
 * does not alias with the engine's default 10- and 50-step cadences:
 * the timed calls walk through every position of both cycles.
 *
 * A timed interval also holds one clock read's own latency, so the
 * profiler subtracts the per-read cost, calibrated once per process,
 * from each interval, and caps a sampled phase's interval at
 * kMaxSampledIntervalNs so a preemption is not multiplied by the
 * stride. All hot methods are header-inline; when
 * disabled, begin() is a bool test and end() a sign test, so
 * instrumented hot loops compile to their uninstrumented shape.
 *
 * Observability is the non-owning bundle instrumented components
 * accept: a metrics registry, a trace collector, or both. Components
 * treat null members as "off".
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace atmsim::obs {

/** Wall-clock account of one named phase. */
struct PhaseStat
{
    const char *name = "";
    double wallNs = 0.0; ///< Estimate: timed ns x calls / timed.
    long calls = 0;      ///< Every invocation, exact.
    long timed = 0;      ///< Invocations that read the clock.
};

/** One phase a profiler tracks. */
struct PhaseDef
{
    const char *name; ///< Static-storage phase name.
    bool sampled;     ///< Time one call in kStride instead of all.
};

/**
 * Cost of one monotonicWallNs() read in nanoseconds: the median
 * per-read time of a few back-to-back batches, measured on first use
 * and cached for the process.
 */
[[nodiscard]] double clockReadCostNs();

/** Fixed-phase, stride-sampled wall-clock accumulator. */
class PhaseProfiler
{
  public:
    /** Sampled phases time one call in this many. Prime, hence
     *  coprime with the engine's default 10- and 50-step cadences. */
    static constexpr long kStride = 31;

    /**
     * Cap on one timed interval of a sampled phase. A per-step phase
     * call is a few microseconds of work at most; an interval past
     * this held a preemption or another stall. Scaled up by the
     * stride, one such stall would charge the phase for 31 that never
     * happened (a 12 ms preemption reads as 370 ms), so the excess is
     * left to the unattributed row instead. Rare phases are timed in
     * full.
     */
    static constexpr double kMaxSampledIntervalNs = 1e5;

    /**
     * @param phases The index into this list is the phase id used
     *        by begin()/end().
     * @param enabled Disabled profilers count nothing and never read
     *        the clock.
     */
    PhaseProfiler(std::span<const PhaseDef> phases, bool enabled)
        : enabled_(enabled), clockNs_(enabled ? clockReadCostNs() : 0.0)
    {
        slots_.reserve(phases.size());
        for (const PhaseDef &def : phases) {
            slots_.push_back(
                {def.name, def.sampled ? kStride : 1,
                 def.sampled ? kMaxSampledIntervalNs
                             : std::numeric_limits<double>::infinity()});
        }
    }

    [[nodiscard]] bool enabled() const { return enabled_; }

    /**
     * Count one invocation of `phase`. Returns the entry timestamp
     * when this call is timed, a negative value otherwise (and
     * always when disabled).
     */
    [[nodiscard]] double
    begin(std::size_t phase)
    {
        if (!enabled_)
            return kUntimed;
        Slot &slot = slots_[phase];
        ++slot.calls;
        if (--slot.countdown > 0)
            return kUntimed;
        slot.countdown = slot.stride;
        return monotonicWallNs();
    }

    /** Close a phase opened at begin()'s return value. */
    void
    end(std::size_t phase, double t0)
    {
        if (t0 < 0.0)
            return;
        Slot &slot = slots_[phase];
        slot.timedNs += std::clamp(monotonicWallNs() - t0 - clockNs_, 0.0,
                                   slot.maxIntervalNs);
        ++slot.timed;
    }

    /** Invocations of one phase so far. */
    [[nodiscard]] long
    calls(std::size_t phase) const { return slots_[phase].calls; }

    /** Estimated wall nanoseconds accrued since a previous reading
     *  (negative when a fresh sample lowered the estimate). */
    [[nodiscard]] double
    wallNsSince(std::size_t phase, double prev_ns) const
    {
        return estimateNs(slots_[phase]) - prev_ns;
    }

    /**
     * All phases, in registration order, followed by a row named
     * `rest_name` that holds `run_wall_ns` minus the phase estimates,
     * so the rows sum to the run's wall time. That row is negative
     * when the estimates overshoot the wall. Teardown-only: runs
     * after the step loop has finished.
     */
    // atmlint: contract(cold)
    [[nodiscard]] std::vector<PhaseStat>
    snapshot(double run_wall_ns, const char *rest_name) const
    {
        std::vector<PhaseStat> out;
        out.reserve(slots_.size() + 1);
        double attributed = 0.0;
        for (const Slot &slot : slots_) {
            const double ns = estimateNs(slot);
            attributed += ns;
            out.push_back({slot.name, ns, slot.calls, slot.timed});
        }
        out.push_back({rest_name, run_wall_ns - attributed, 0, 0});
        return out;
    }

  private:
    static constexpr double kUntimed = -1.0;

    struct Slot
    {
        const char *name;
        long stride;
        double maxIntervalNs;
        long countdown = 1; ///< Calls until the next timed one.
        long calls = 0;
        long timed = 0;
        double timedNs = 0.0;
    };

    [[nodiscard]] static double
    estimateNs(const Slot &slot)
    {
        return slot.timed > 0
                   ? slot.timedNs * static_cast<double>(slot.calls)
                         / static_cast<double>(slot.timed)
                   : 0.0;
    }

    bool enabled_;
    double clockNs_;
    std::vector<Slot> slots_;
};

/** Non-owning bundle of observability backends. */
struct Observability
{
    MetricsRegistry *metrics = nullptr;
    TraceCollector *trace = nullptr;
    FlightRecorder *flight = nullptr;

    [[nodiscard]] bool
    any() const
    {
        return metrics != nullptr || trace != nullptr || flight != nullptr;
    }

    /**
     * True when a backend that charges wall-clock reads is attached.
     * The flight recorder records sim time only, so attaching it
     * alone must not enable the phase profiler's clock reads (that
     * is what keeps the recorder-on engine step inside its overhead
     * budget).
     */
    [[nodiscard]] bool
    wantsWallClock() const
    {
        return metrics != nullptr || trace != nullptr;
    }
};

} // namespace atmsim::obs
