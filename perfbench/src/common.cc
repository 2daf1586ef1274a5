#include "common.hh"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
tailLevel(std::size_t n, double cap)
{
    for (const double level : kTailLevels) {
        if (level > cap)
            continue;
        const auto rank =
            static_cast<std::size_t>(std::ceil(level * static_cast<double>(n)));
        if (n >= rank && n - rank >= 10)
            return level;
    }
    return 0.5;
}

double
quantile(const std::vector<double> &sorted, double level)
{
    if (sorted.empty())
        return 0.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(level * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

Summary
summarize(std::vector<double> values, double cap)
{
    Summary s;
    std::sort(values.begin(), values.end());
    s.count = values.size();
    s.median = quantile(values, 0.5);
    s.tailLevel = tailLevel(values.size(), cap);
    s.tail = quantile(values, s.tailLevel);
    return s;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantile(values, 0.5);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
SetupSamples::median() const
{
    return perfbench::median(values_);
}

std::int64_t
dueNs(std::int64_t startNs, std::uint64_t index, double ratePerSec)
{
    return startNs + static_cast<std::int64_t>(std::llround(
                         static_cast<double>(index) * 1e9 / ratePerSec));
}

CpuRotation::CpuRotation(double periodS)
    : periodNs_(static_cast<std::int64_t>(periodS * 1e9))
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus_.push_back(cpu);
        }
    }
}

CpuRotation::~CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus_)
        CPU_SET(cpu, &set);
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof set, &set);
}

void
CpuRotation::maybeHop()
{
    const std::int64_t now = nowNs();
    if (cpus_.size() < 2 || now < nextHopNs_)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
    nextHopNs_ = now + periodNs_;
}

double
peakRssMiB()
{
    // VmHWM is this address space's high-water mark. getrusage's
    // ru_maxrss would also count the image exec() replaced (run.py's
    // interpreter), whichever was larger.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

int
hostJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
describe(const std::string &name, const Summary &s, const std::string &unit)
{
    return name + ": median " + fmt(s.median) + " " + unit + ", p" +
           fmt(s.tailLevel * 100.0) + " " + fmt(s.tail) + " " + unit + " (" +
           std::to_string(s.count) + " samples)";
}

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({ name, { value, unit } });
}

void
Report::info(const std::string &line)
{
    info_.push_back(line);
}

void
Report::ops(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::fail(const std::string &why)
{
    correct_ = false;
    info_.push_back("ORACLE FAILED: " + why);
}

void
Report::print() const
{
    for (const std::string &line : info_)
        std::cout << "# " << line << "\n";
    const double error_frac =
        attempted_ == 0 ? 0.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);
    std::cout << "# error_frac: " << fmt(error_frac) << " (" << failed_
              << " of " << attempted_ << " operations)\n";
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        char buf[64];
        const double v = std::isfinite(vu.first) ? vu.first : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               vu.second + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
}

} // namespace perfbench
