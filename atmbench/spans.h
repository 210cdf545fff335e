/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call from the benchmark into an atmsim layer: its
 * name ("<layer>.<call>"), start, end, the span that caused it and an
 * optional integer argument (e.g. the engine steps a sim.run advanced).
 * Spans are recorded from the benchmark's own files, around the public
 * calls it makes; nothing inside the library is instrumented.
 *
 * Recording is off by default: a disabled ScopedSpan is one relaxed
 * atomic load, so the untimed and untraced rounds pay nothing
 * measurable. Spans stay in memory until the run ends; per-layer rows
 * are derived from them (selfTimeByLayer) and they are dumped as JSON
 * lines at exit.
 */

#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace atmbench {

/** Monotonic host time (ns). */
[[nodiscard]] double nowNs();

/** One recorded call. */
struct Span
{
    const char *name = "";
    double startNs = 0.0;
    double endNs = 0.0;
    long id = 0;
    long parent = 0; ///< 0: a root span.
    long arg = -1;   ///< Call-specific count (< 0: none).
};

/** Process-wide span store. Thread-safe. */
class SpanRecorder
{
  public:
    static SpanRecorder &global();

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Reserve a span id (ids start at 1). */
    [[nodiscard]] long nextId() { return ++lastId_; }

    void add(const Span &span);

    [[nodiscard]] std::vector<Span> spans() const;

    /** One JSON object per line: name, start/end (ns), id, parent, arg. */
    void dump(std::ostream &os) const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<long> lastId_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/**
 * RAII span. The parent defaults to the innermost open span on this
 * thread; work handed to another thread passes its parent explicitly.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, long arg = -1);
    ScopedSpan(const char *name, long parent, long arg);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (0 when recording is off). */
    [[nodiscard]] long id() const { return span_.id; }

    void setArg(long arg) { span_.arg = arg; }

  private:
    Span span_;
    long savedCurrent_ = 0;
};

/** Innermost open span on the calling thread (0: none). */
[[nodiscard]] long currentSpan();

/**
 * Self time (ns) per layer, where a span's layer is its name up to the
 * first '.'. A span's self time is its duration minus the union of its
 * children's intervals clipped to it, so a parallel map whose tasks
 * cover its whole interval has (almost) no self time.
 */
[[nodiscard]] std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans);

/** Durations (ns) of every span with this exact name. */
[[nodiscard]] std::vector<double>
durationsOf(const std::vector<Span> &spans, const std::string &name);

} // namespace atmbench
