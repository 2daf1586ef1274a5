/**
 * @file
 * Shared plumbing of the perfbench binary: host clocks, the seeded
 * generator RNG, latency summaries, open-loop due times, peak RSS and
 * the result report every workload fills in.
 *
 * Every time here is host time (steady_clock). Simulated seconds that
 * the library returns are only ever compared for identity, never
 * reported as speed.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host nanoseconds on the steady clock. */
std::int64_t nowNs();

/** Seconds since `startNs`. */
double secondsSince(std::int64_t startNs);

/**
 * splitmix64: the generators' own RNG, independent of the library's
 * so a change to twocs::Rng never changes the benchmark's inputs.
 */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
    /** True with probability `p`. */
    bool chance(double p) { return unit() < p; }

  private:
    std::uint64_t state_;
};

/** The fixed percentile levels the tail metric may report. */
inline constexpr double kTailLevels[] = { 0.99, 0.95, 0.90, 0.75, 0.50 };

/**
 * The highest level of kTailLevels, no higher than `cap`, that leaves
 * at least ten of `n` samples beyond it (n - ceil(level * n) >= 10);
 * 0.5 when even the median has fewer than ten beyond it.
 */
double tailLevel(std::size_t n, double cap = 0.99);

/** Nearest-rank quantile of `sorted` (ascending); 0 when empty. */
double quantile(const std::vector<double> &sorted, double level);

/** Median, tail percentile (with its level) and sample count. */
struct Summary
{
    double median = 0.0;
    double tail = 0.0;
    double tailLevel = 0.0;
    std::size_t count = 0;
};

Summary summarize(std::vector<double> values, double cap = 0.99);

/** Median of `values` (0 when empty). */
double median(std::vector<double> values);

/** Arithmetic mean of `values` (0 when empty). */
double mean(const std::vector<double> &values);

/**
 * Open-loop schedule: request `index` of a stream offered at
 * `ratePerSec` is due `index / ratePerSec` seconds after `startNs`.
 * Computed from the index (never by accumulating intervals), so a
 * late send never shifts later due times.
 */
std::int64_t dueNs(std::int64_t startNs, std::uint64_t index,
                   double ratePerSec);

/**
 * Set-up samples spread evenly over a timed phase. Host speed drifts
 * within a run (a whole process was seen running 1.8x slower for tens
 * of milliseconds), and one set-up is far too short to average that
 * out, so its samples are taken across the run as the timed units are.
 */
class SetupSamples
{
  public:
    static constexpr int kSamples = 51;

    SetupSamples(std::int64_t startNs, double seconds)
        : nextNs_(startNs),
          intervalNs_(static_cast<std::int64_t>(seconds * 1e9 / kSamples))
    {
    }

    /** True when the next sample is due. */
    bool due() const
    {
        return values_.size() < kSamples && nowNs() >= nextNs_;
    }
    void add(double seconds)
    {
        values_.push_back(seconds);
        nextNs_ += intervalNs_;
    }
    double median() const;
    std::size_t count() const { return values_.size(); }

  private:
    std::vector<double> values_;
    std::int64_t nextNs_;
    std::int64_t intervalNs_;
};

/**
 * Moves the calling thread to the next CPU of its affinity set every
 * `periodS` seconds, and restores the set on destruction. Host speed
 * differs from one virtual CPU to another and drifts over seconds;
 * a single-threaded workload left where the scheduler puts it
 * measures one CPU, while rotating samples all of them equally, as a
 * workload running on every core does.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(double periodS);
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Hop to the next CPU when the period has passed. */
    void maybeHop();

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    std::int64_t periodNs_;
    std::int64_t nextHopNs_ = 0;
};

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

/** Worker count used for `jobs = nproc`. */
int hostJobs();

/**
 * What one run reports: named metrics with units, the operation
 * counts behind error_frac, and human-readable detail lines printed
 * before the final JSON line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void info(const std::string &line);
    /** Record `attempted` operations of which `failed` went wrong. */
    void ops(std::uint64_t attempted, std::uint64_t failed);
    /** Mark the run incorrect (an oracle failed). */
    void fail(const std::string &why);

    /** Detail lines, then the one-line JSON result, to stdout. */
    void print() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::string> info_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

/** "name: median X unit, pNN Y unit (n samples)" for the detail lines. */
std::string describe(const std::string &name, const Summary &s,
                     const std::string &unit);

/** printf-style %.6g of `v`. */
std::string fmt(double v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
