#include "obs/manifest.h"

#include "util/json_writer.h"

namespace atmsim::obs {

double
RunManifest::stepsPerSec() const
{
    if (engineSteps <= 0 || engineWallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(engineSteps) / engineWallSeconds;
}

double
RunManifest::fastForwardSpeedup() const
{
    if (engineFastForwardedSteps <= 0
        || engineFastForwardedSteps >= engineSteps)
        return 1.0;
    return static_cast<double>(engineSteps)
         / static_cast<double>(engineSteps - engineFastForwardedSteps);
}

void
RunManifest::setCounter(const std::string &name, double value)
{
    for (auto &[key, val] : counters) {
        if (key == name) {
            val = value;
            return;
        }
    }
    counters.emplace_back(name, value);
}

void
RunManifest::writeJson(std::ostream &os) const
{
    util::JsonWriter json(os);
    json.beginObject();
    json.field("schema", kManifestSchema);
    json.field("tool", tool);
    if (chip.empty())
        json.key("chip").nullValue();
    else
        json.field("chip", chip);
    json.field("seed", static_cast<std::uint64_t>(seed));
    json.field("jobs", jobs);

    json.key("args").beginArray();
    for (const std::string &arg : args)
        json.value(arg);
    json.endArray();

    if (faultCampaign.empty())
        json.key("fault_campaign").nullValue();
    else
        json.field("fault_campaign", faultCampaign);

    json.key("config").beginObject();
    for (const auto &[key, val] : config)
        json.field(key, val);
    json.endObject();

    json.key("build").beginObject();
#if defined(__VERSION__)
    json.field("compiler", __VERSION__);
#else
    json.key("compiler").nullValue();
#endif
#if defined(NDEBUG)
    json.field("assertions", false);
#else
    json.field("assertions", true);
#endif
    // Configure-time git stamp (src/obs/CMakeLists.txt); absent in
    // builds without git metadata.
#if defined(ATMSIM_GIT_COMMIT)
    json.field("git_commit", ATMSIM_GIT_COMMIT);
    json.field("git_dirty", ATMSIM_GIT_DIRTY != 0);
#else
    json.key("git_commit").nullValue();
    json.key("git_dirty").nullValue();
#endif
    if (jobsRequested > 0)
        json.field("jobs_requested", jobsRequested);
    else
        json.key("jobs_requested").nullValue();
    json.field("jobs_resolved", jobs);
    json.endObject();

    json.field("wall_seconds", wallSeconds);

    json.key("engine").beginObject();
    json.field("runs", engineRuns);
    json.field("steps", engineSteps);
    json.field("wall_seconds", engineWallSeconds);
    json.field("sim_ns", engineSimNs);
    json.field("steps_per_sec", stepsPerSec());
    json.field("mode", engineMode);
    json.field("fast_forwarded_steps", engineFastForwardedSteps);
    json.field("speedup", fastForwardSpeedup());
    json.field("profiler_clock_ns", profilerClockNs);
    json.key("phases").beginArray();
    for (const PhaseStat &phase : phases) {
        json.beginObject();
        json.field("name", phase.name);
        json.field("wall_ns", phase.wallNs);
        json.field("calls", phase.calls);
        json.field("timed", phase.timed);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    json.key("counters").beginObject();
    for (const auto &[key, val] : counters)
        json.field(key, val);
    json.endObject();

    json.field("interrupted", interrupted);

    if (fleet.present) {
        json.key("fleet").beginObject();
        json.field("shards_total", fleet.shardsTotal);
        json.field("shards_completed", fleet.shardsCompleted);
        json.field("shards_failed", fleet.shardsFailed);
        json.field("chips_total", fleet.chipsTotal);
        json.field("chips_done", fleet.chipsDone);
        json.field("chips_skipped", fleet.chipsSkipped);
        json.field("retries", fleet.retries);
        json.field("checkpoints_written", fleet.checkpointsWritten);
        json.field("resumed", fleet.resumed);
        json.key("shard_retries").beginObject();
        for (const auto &[shard, count] : fleet.shardRetries)
            json.field(std::to_string(shard), count);
        json.endObject();
        json.key("failed_shards").beginArray();
        for (const long shard : fleet.failedShards)
            json.value(shard);
        json.endArray();
        json.field("workers_configured", fleet.workersConfigured);
        json.key("workers").beginArray();
        for (const WorkerManifest &w : fleet.workers) {
            json.beginObject();
            json.field("worker", w.worker);
            json.field("pid", w.pid);
            json.field("shards_completed", w.shardsCompleted);
            json.field("chips_observed", w.chipsObserved);
            json.field("obs_messages", w.obsMessages);
            json.field("span_events", w.spanEvents);
            json.field("spans_dropped", w.spansDropped);
            if (w.partial.present) {
                json.key("partial").beginObject();
                json.key("shards").beginArray();
                for (const long shard : w.partial.shards)
                    json.value(shard);
                json.endArray();
                json.field("chips_observed", w.partial.chipsObserved);
                json.key("metrics");
                w.partial.metrics.writeJson(json);
                json.endObject();
            } else {
                json.key("partial").nullValue();
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    json.key("metrics");
    metrics.writeJson(json);
    json.endObject();
    os << '\n';
}

} // namespace atmsim::obs
