/**
 * @file
 * Heap allocations per engine step, counted. The engine_step hot-path
 * contract promises the step loop never allocates; this binary
 * replaces the global operator new with a counting one and checks
 * that a profiled run twice as long allocates exactly as often, so
 * every allocation is per-run setup, none per step. It is its own
 * test binary because the replacement is process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "chip/chip.h"
#include "obs/metrics.h"
#include "sim/sim_engine.h"
#include "variation/reference_chips.h"
#include "workload/catalog.h"

namespace {

std::atomic<long> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace atmsim::sim {
namespace {

/** Allocations made inside run() of a profiled engine on a fresh
 *  chip (chip and engine construction are not counted). */
long
allocationsOfRun(EngineMode mode, double duration_us,
                 obs::MetricsRegistry &metrics)
{
    chip::Chip chip(variation::makeReferenceChip(0));
    chip.assignWorkload(0, &workload::findWorkload("gcc"));
    SimConfig config;
    config.mode = mode;
    SimEngine engine(&chip, config);
    engine.setObservability({&metrics, nullptr, nullptr});
    const long before = g_allocations.load(std::memory_order_relaxed);
    const RunResult result = engine.run(duration_us);
    const long after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_FALSE(result.phaseStats.empty()) << "profiler stayed off";
    return after - before;
}

TEST(StepAllocations, CountingHookSeesAllocations)
{
    const long before = g_allocations.load();
    // volatile keeps the compiler from eliding the new/delete pair.
    int *volatile probe = new int(7);
    delete probe;
    EXPECT_EQ(g_allocations.load() - before, 1);
}

TEST(StepAllocations, ProfiledSoaRunAllocatesOnlyPerRun)
{
    obs::MetricsRegistry metrics;
    // Warm-up: the first run registers the metric instruments and
    // calibrates the profiler clock, both one-time costs.
    (void)allocationsOfRun(EngineMode::Soa, 0.2, metrics);
    const long one_us = allocationsOfRun(EngineMode::Soa, 1.0, metrics);
    const long two_us = allocationsOfRun(EngineMode::Soa, 2.0, metrics);
    EXPECT_GT(one_us, 0);
    EXPECT_EQ(two_us, one_us)
        << "the 5000 extra steps allocated " << two_us - one_us
        << " times";
}

TEST(StepAllocations, ProfiledSampledRunAllocatesOnlyPerRun)
{
    obs::MetricsRegistry metrics;
    (void)allocationsOfRun(EngineMode::Sampled, 0.2, metrics);
    const long one_us =
        allocationsOfRun(EngineMode::Sampled, 1.0, metrics);
    const long two_us =
        allocationsOfRun(EngineMode::Sampled, 2.0, metrics);
    EXPECT_EQ(two_us, one_us)
        << "the 5000 extra steps allocated " << two_us - one_us
        << " times";
}

} // namespace
} // namespace atmsim::sim
