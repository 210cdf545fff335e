#include "host.h"

#include <fstream>
#include <string>

#include <sys/resource.h>

namespace atmbench {

namespace {

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec)
         + static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

double
peakRssMb()
{
    // VmHWM is the high-water mark of this program's own address
    // space. RUSAGE_SELF's ru_maxrss would also carry the peak of
    // whatever ran in this process before exec (the Python launcher).
    long self_kb = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            self_kb = std::stol(line.substr(6));
    }
    if (self_kb == 0) {
        rusage self{};
        getrusage(RUSAGE_SELF, &self);
        self_kb = self.ru_maxrss;
    }
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self_kb + children.ru_maxrss) / 1024.0;
}

double
processCpuSeconds()
{
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return seconds(self.ru_utime) + seconds(self.ru_stime);
}

} // namespace atmbench
