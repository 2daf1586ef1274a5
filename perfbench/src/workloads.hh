/**
 * @file
 * The four workloads and the per-layer probes. A workload measures
 * its timed phase into a Phase (setup, rate, per-unit latencies) and
 * counts its operations and oracle failures into the Report; main.cc
 * turns Phases into the end-to-end metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "core/cluster_sim.hh"
#include "core/sweep.hh"
#include "gen.hh"

namespace perfbench {

/** One timed phase of a workload. */
struct Phase
{
    double setupS = 0.0;            //!< median of the set-up samples
    std::size_t setupSamples = 0;
    double rate = 0.0;              //!< work per host second, median pace
    std::string rateUnit;           //!< what a unit of work is
    std::vector<double> unitMs;     //!< host ms per unit of work
    double tailCap = 0.99;          //!< highest tail level reported
    std::string unitName;           //!< what unitMs times
};

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Per-layer readings a workload run can hand to the probes. */
struct WorkloadLayers
{
    double cacheHitRate = -1.0;   //!< svc.cache_hit_rate, if served
    double shedFrac = -1.0;       //!< net.shed_frac, if served by socket
    double readPauses = -1.0;     //!< net.read_pauses, likewise
    double genLagMs = -1.0;       //!< net.gen_lag_ms, likewise
};

Phase runServeMiss(const RunOptions &opts, double seconds, Report &report,
                   WorkloadLayers &layers);
Phase runServeZipf(const RunOptions &opts, double seconds, Report &report,
                   WorkloadLayers &layers);
Phase runClusterTrials(const RunOptions &opts, double seconds,
                       Report &report, WorkloadLayers &layers);
Phase runFigureSuite(const RunOptions &opts, double seconds, Report &report,
                     WorkloadLayers &layers);

/**
 * Per-layer probes for the traced run: times calls into each
 * module's public functions from outside, each wrapped in an
 * obs::Category::Bench span, and reports every per-layer metric.
 * `workload` picks whose inputs feed the request-level probes.
 */
void runLayerProbes(const std::string &workload, const RunOptions &opts,
                    const WorkloadLayers &layers, Report &report);

/** The net layer probe: a fresh server at the low offered rate. */
struct NetProbe
{
    double rttUs = 0.0;      //!< mean socket round trip from due time
    double handleUs = 0.0;   //!< mean QueryService::handle, same lines
    double genLagMs = 0.0;   //!< p99 generator lag
    double shedFrac = 0.0;
    double readPauses = 0.0;
    std::uint64_t requests = 0, failed = 0, mismatches = 0;
};

NetProbe runNetProbe(std::uint64_t seed, double seconds);

/** cluster-trials: trials per timed runTrials call, and the prefix
 *  the jobs-1 oracle replays. */
inline constexpr int kClusterUnitTrials = 1000;
inline constexpr int kClusterOraclePrefix = 200;

/** The `twocs cluster` default configuration with jitter 0.05. */
twocs::core::ClusterSimConfig clusterConfig(std::uint64_t seed);

/** Host seconds of one runTrials call at `jobs` (default engine). */
double timeTrials(const twocs::core::ClusterSimConfig &cfg, int trials,
                  int jobs, twocs::core::ClusterTrialSummary *out);

/** Bench span labels of the figure-suite's figures, by figure id. */
inline constexpr const char *kFigureNames[kNumFigures] = {
    "bench.core.fig2",        "bench.core.fig10",
    "bench.core.fig11",       "bench.core.fig12_model",
    "bench.core.fig12_delta", "bench.core.fig14",
};

/** One cold pass of the figure grids, timed figure by figure. */
struct FigurePass
{
    double totalMs = 0.0;
    double calibrateMs = 0.0;
    double figMs[kNumFigures] = {};
    std::uint64_t hash[kNumFigures] = {};
    std::uint64_t configs = 0;
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    std::vector<twocs::core::SimulatedEvolutionPoint> fig12Delta;
};

/** Run one pass (the caller clears the graph cache first). */
FigurePass runFigurePass(const FigurePlan &plan, int jobs);

/** The warm-up request every serve set-up sends: a configuration the
 *  generators never draw, so it warms calibration without caching a
 *  benchmark request. */
inline constexpr const char *kWarmLine =
    "{\"kind\": \"project\", \"hidden\": 512, \"seqlen\": 512, "
    "\"batch\": 1, \"tp\": 1}";

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
