#include "spans.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace atmbench {

namespace {

thread_local long tCurrent = 0;

} // namespace

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder recorder;
    return recorder;
}

void
SpanRecorder::add(const Span &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
SpanRecorder::dump(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os.precision(17);
    for (const Span &s : spans_) {
        os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"arg\":" << s.arg
           << "}\n";
    }
}

ScopedSpan::ScopedSpan(const char *name, long arg)
    : ScopedSpan(name, tCurrent, arg)
{
}

ScopedSpan::ScopedSpan(const char *name, long parent, long arg)
{
    SpanRecorder &rec = SpanRecorder::global();
    if (!rec.enabled())
        return;
    span_.name = name;
    span_.id = rec.nextId();
    span_.parent = parent;
    span_.arg = arg;
    savedCurrent_ = tCurrent;
    tCurrent = span_.id;
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (span_.id == 0)
        return;
    span_.endNs = nowNs();
    tCurrent = savedCurrent_;
    SpanRecorder::global().add(span_);
}

long
currentSpan()
{
    return tCurrent;
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::unordered_map<long, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::string, double> out;
    for (const Span &s : spans) {
        const double duration = s.endNs - s.startNs;
        double covered = 0.0;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<double, double>> &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double reach = s.startNs;
            for (const auto &[lo_raw, hi_raw] : iv) {
                const double lo = std::max(lo_raw, reach);
                const double hi = std::min(hi_raw, s.endNs);
                if (hi > lo) {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        const std::string name = s.name;
        out[name.substr(0, name.find('.'))] +=
            std::max(0.0, duration - covered);
    }
    return out;
}

std::vector<double>
durationsOf(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (name == s.name)
            out.push_back(s.endNs - s.startNs);
    }
    return out;
}

} // namespace atmbench
