#include "digest.h"

#include <iomanip>
#include <sstream>

#include "util/json_writer.h"

namespace atmbench {

using namespace atmsim;

std::string
runDigest(const sim::RunResult &result)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << result.durationNs << '|' << result.steps << '|'
       << result.fastForwardedSteps << '|' << result.stoppedEarly << '|'
       << result.maxCoreTempC << '|' << result.minGridV << '|'
       << result.chipPowerW.count() << ' ' << result.chipPowerW.mean()
       << ' ' << result.chipPowerW.m2();
    for (const sim::CoreRunStats &cs : result.coreStats) {
        os << '|' << cs.freqMhz.count() << ' ' << cs.freqMhz.mean() << ' '
           << cs.freqMhz.m2() << ' ' << cs.voltageV.mean() << ' '
           << cs.voltageV.m2() << ' ' << cs.minVoltageV << ' '
           << cs.emergencies << ' ' << cs.violations;
    }
    for (const sim::ViolationEvent &ev : result.violations) {
        os << '|' << ev.timeNs << ' ' << ev.core << ' ' << ev.deficitPs
           << ' ' << static_cast<int>(ev.kind) << ' ' << ev.detected;
    }
    for (const auto &[name, value] : result.safety.named())
        os << '|' << name << '=' << value;
    return os.str();
}

std::string
tableDigest(const core::LimitTable &table)
{
    std::ostringstream os;
    os << std::hexfloat << table.chipName;
    for (const core::CoreLimits &c : table.cores) {
        os << '|' << c.coreName << ' ' << c.idle << ' ' << c.ubench << ' '
           << c.normal << ' ' << c.worst << ' ' << c.idleLimitFreqMhz
           << ' ' << c.worstLimitFreqMhz;
        for (const auto &[value, count] : c.idleDist.items())
            os << " i" << value << 'x' << count;
        for (const auto &[value, count] : c.ubenchDist.items())
            os << " u" << value << 'x' << count;
    }
    return os.str();
}

std::string
statsDigest(const core::PopulationStats &stats)
{
    // PopulationStats::writeJson is the checkpoint format: exact
    // accumulator state, doubles in round-trip precision.
    std::ostringstream os;
    {
        util::JsonWriter json(os);
        stats.writeJson(json);
    }
    return os.str();
}

std::string
fleetDigest(const fleet::FleetResult &result)
{
    std::ostringstream os;
    os << statsDigest(result.stats) << '|';
    result.metrics.writeJson(os);
    const obs::FleetManifest &cov = result.coverage;
    os << '|' << cov.shardsTotal << ' ' << cov.shardsCompleted << ' '
       << cov.shardsFailed << ' ' << cov.chipsTotal << ' ' << cov.chipsDone
       << ' ' << cov.chipsSkipped << " failed:";
    for (const long shard : cov.failedShards)
        os << ' ' << shard;
    return os.str();
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

} // namespace atmbench
