/**
 * @file
 * cluster-trials (one compiled graph replayed many times) and
 * figure-suite (cold passes over many distinct graphs and grids).
 */

#include <cstring>

#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "core/cluster_sim.hh"
#include "core/slack.hh"
#include "core/sweep.hh"
#include "obs/obs.hh"
#include "sim/graph.hh"
#include "sim/graph_cache.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using twocs::core::ClusterSimResult;

void
mix(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

bool
sameTrial(const ClusterSimResult &a, const ClusterSimResult &b)
{
    return std::memcmp(&a.iterationTime, &b.iterationTime, sizeof(double)) == 0 &&
           std::memcmp(&a.commTimePerDevice, &b.commTimePerDevice,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.computeTimePerDevice, &b.computeTimePerDevice,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.stallTimePerDevice, &b.stallTimePerDevice,
                       sizeof(double)) == 0;
}

twocs::exec::RunnerOptions
runner(int jobs, const char *study)
{
    twocs::exec::RunnerOptions o;
    o.jobs = jobs;
    o.study = study;
    return o;
}

} // namespace

twocs::core::ClusterSimConfig
clusterConfig(std::uint64_t seed)
{
    twocs::core::ClusterSimConfig cfg; // `twocs cluster` defaults
    cfg.computeJitter = 0.05;
    cfg.seed = seed;
    return cfg;
}

double
timeTrials(const twocs::core::ClusterSimConfig &cfg, int trials, int jobs,
           twocs::core::ClusterTrialSummary *out)
{
    const twocs::core::ClusterSim sim;
    const std::int64_t t0 = nowNs();
    twocs::core::ClusterTrialSummary s =
        sim.runTrials(cfg, trials, runner(jobs, "cluster_trials"));
    const double dt = secondsSince(t0);
    if (out != nullptr)
        *out = std::move(s);
    return dt;
}

Phase
runClusterTrials(const RunOptions &opts, double seconds, Report &report,
                 WorkloadLayers &)
{
    const twocs::core::ClusterSimConfig base = clusterConfig(opts.seed);
    const int jobs = hostJobs();

    // Set-up: the first compileIteration, from an empty graph cache.
    // It leaves the graph cached, so the next runTrials replays it.
    std::size_t tasks = 0;
    const auto set_up = [&] {
        twocs::sim::GraphCache::instance().clear();
        const std::int64_t t0 = nowNs();
        const twocs::core::ClusterSim sim;
        tasks = sim.compileIteration(base)->numTasks();
        return secondsSince(t0);
    };

    Phase phase;
    phase.rateUnit = "trials";
    phase.tailCap = 0.95;
    phase.unitName = "one runTrials call of " + std::to_string(kClusterUnitTrials) +
                     " trials";
    std::uint64_t units = 0, failed = 0;
    double busy = 0.0;
    twocs::core::ClusterTrialSummary first;
    const std::int64_t start = nowNs();
    SetupSamples setups(start, seconds);
    while (secondsSince(start) < seconds) {
        if (setups.due())
            setups.add(set_up());
        twocs::core::ClusterSimConfig cfg = base;
        cfg.seed = SplitMix(opts.seed + units).next();
        twocs::core::ClusterTrialSummary s;
        const double dt = timeTrials(cfg, kClusterUnitTrials, jobs, &s);
        busy += dt;
        phase.unitMs.push_back(dt * 1e3);
        std::uint64_t bad = s.trials.size() == kClusterUnitTrials
                                ? 0
                                : kClusterUnitTrials;
        for (const ClusterSimResult &r : s.trials)
            bad += r.iterationTime > 0.0 && r.iterationTime < 1e9 ? 0 : 1;
        failed += bad;
        if (units == 0)
            first = std::move(s);
        ++units;
    }
    const std::uint64_t trials = units * kClusterUnitTrials;
    phase.rate = static_cast<double>(trials) / busy;
    phase.setupS = setups.median();
    phase.setupSamples = setups.count();

    // Oracle: jobs = nproc is bit-identical to jobs 1 on a prefix.
    {
        twocs::core::ClusterSimConfig cfg = base;
        cfg.seed = SplitMix(opts.seed).next();
        twocs::core::ClusterTrialSummary serial;
        timeTrials(cfg, kClusterOraclePrefix, 1, &serial);
        std::uint64_t mismatched = 0;
        for (int i = 0; i < kClusterOraclePrefix; ++i) {
            if (first.trials.size() <= static_cast<std::size_t>(i) ||
                !sameTrial(first.trials[i], serial.trials[i]))
                ++mismatched;
        }
        if (mismatched > 0) {
            report.fail(std::to_string(mismatched) + " of " +
                        std::to_string(kClusterOraclePrefix) +
                        " trials differ between jobs " + std::to_string(jobs) +
                        " and jobs 1");
            failed += mismatched;
        }
    }
    report.ops(trials, failed);
    report.info("inputs: cluster H=" + std::to_string(base.hidden) +
                " SL=" + std::to_string(base.seqLen) +
                " TP=" + std::to_string(base.tpDegree) +
                " layers=" + std::to_string(base.numLayers) + " jitter " +
                fmt(base.computeJitter) + ", jobs " + std::to_string(jobs) +
                ", tasks per compiled graph " + std::to_string(tasks) +
                ", trials " + std::to_string(trials) + " (" +
                fmt(static_cast<double>(trials) * static_cast<double>(tasks) /
                    busy) +
                " tasks replayed per second)");
    return phase;
}

FigurePass
runFigurePass(const FigurePlan &plan, int jobs)
{
    using namespace twocs::core;
    FigurePass pass;
    const twocs::sim::GraphCacheStats before =
        twocs::sim::GraphCache::instance().stats();
    const std::int64_t t0 = nowNs();

    std::int64_t t = nowNs();
    std::unique_ptr<AmdahlAnalysis> amdahl;
    std::unique_ptr<SlackAnalysis> slack;
    {
        twocs::obs::Span span(twocs::obs::Category::Bench,
                              "bench.core.calibrate");
        amdahl = std::make_unique<AmdahlAnalysis>(plan.system);
        slack = std::make_unique<SlackAnalysis>(plan.system);
    }
    pass.calibrateMs = secondsSince(t) * 1e3;

    for (const int fig : plan.order) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        t = nowNs();
        twocs::obs::Span span(twocs::obs::Category::Bench,
                              kFigureNames[fig]);
        switch (fig) {
          case 0: { // Fig. 2: the 3D zoo, profiled ground truth
            for (const ZooStudyPoint &p :
                 runParallelZooStudy(plan.system, runner(jobs, "fig2"))) {
                mix(h, p.computeTime);
                mix(h, p.serializedCommTime);
                mix(h, p.dpCommTime);
                ++pass.configs;
            }
            break;
          }
          case 1: { // Fig. 10: serialized comm fraction grid
            std::vector<SerializedConfig> configs;
            for (const ModelLine &line : figure10Lines()) {
                for (const std::int64_t tp : table3().tpDegrees)
                    configs.push_back({ line.hidden, line.seqLen, tp });
            }
            SerializedStudyOptions o;
            o.runner = runner(jobs, "fig10");
            for (const AmdahlPoint &p : runSerializedStudy(*amdahl, configs, o)) {
                mix(h, p.computeTime);
                mix(h, p.serializedCommTime);
                ++pass.configs;
            }
            break;
          }
          case 2: { // Fig. 11: overlapped comm vs compute grid
            struct Cfg
            {
                std::int64_t hidden, seqLen, batch;
            };
            std::vector<Cfg> configs;
            const SweepSpace space = table3();
            for (const std::int64_t hd : space.hiddens)
                for (const std::int64_t sl : space.seqLens)
                    for (const std::int64_t b : space.batches)
                        configs.push_back({ hd, sl, b });
            twocs::exec::ParallelSweepRunner r(runner(jobs, "fig11"));
            for (const SlackPoint &p : r.map(configs, [&](const Cfg &c) {
                     return slack->evaluate(c.hidden, c.seqLen, c.batch);
                 })) {
                mix(h, p.backpropComputeTime);
                mix(h, p.dpCommTime);
                ++pass.configs;
            }
            break;
          }
          case 3: { // Fig. 12 under the operator model
            SerializedStudyOptions o;
            o.runner = runner(jobs, "fig12_model");
            for (const EvolutionPoint &p : runHardwareEvolutionStudy(
                     plan.system, figure12Configs(), o)) {
                mix(h, p.point.computeTime);
                mix(h, p.point.serializedCommTime);
                ++pass.configs;
            }
            break;
          }
          case 4: { // Fig. 12 on the event engine, delta sweep
            pass.fig12Delta = runSimulatedEvolutionStudy(
                plan.system, figure12Configs(), SweepEngine::Delta,
                runner(jobs, "fig12_delta"));
            for (const SimulatedEvolutionPoint &p : pass.fig12Delta) {
                mix(h, p.result.makespan);
                mix(h, p.result.overlappedCommTime);
                ++pass.configs;
            }
            break;
          }
          case 5: { // Fig. 14: the case-study scenarios
            const CaseStudy study;
            CaseStudyConfig intra;
            intra.system = plan.system;
            CaseStudyConfig inter = intra;
            inter.interNodeDp = true;
            for (const CaseStudyConfig &c : { intra, inter }) {
                const CaseStudyResult r = study.run(c);
                mix(h, r.makespan);
                mix(h, r.serializedCommTime);
                ++pass.configs;
            }
            break;
          }
        }
        pass.figMs[fig] = secondsSince(t) * 1e3;
        pass.hash[fig] = h;
    }
    pass.totalMs = secondsSince(t0) * 1e3;
    const twocs::sim::GraphCacheStats after =
        twocs::sim::GraphCache::instance().stats();
    pass.cacheHits = after.hits - before.hits;
    pass.cacheMisses = after.misses - before.misses;
    return pass;
}

bool
sameCaseResults(const std::vector<twocs::core::SimulatedEvolutionPoint> &a,
                const std::vector<twocs::core::SimulatedEvolutionPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint64_t ha = 0, hb = 0;
        for (const double v :
             { a[i].result.makespan, a[i].result.computeTime,
               a[i].result.serializedCommTime, a[i].result.dpCommTime,
               a[i].result.dpExposedTime, a[i].result.overlappedCommTime })
            mix(ha, v);
        for (const double v :
             { b[i].result.makespan, b[i].result.computeTime,
               b[i].result.serializedCommTime, b[i].result.dpCommTime,
               b[i].result.dpExposedTime, b[i].result.overlappedCommTime })
            mix(hb, v);
        if (ha != hb || a[i].config.tag != b[i].config.tag ||
            a[i].config.flopScale != b[i].config.flopScale)
            return false;
    }
    return true;
}

Phase
runFigureSuite(const RunOptions &opts, double seconds, Report &report,
               WorkloadLayers &)
{
    const int jobs = hostJobs();
    const FigurePlan sys_plan = figurePlan(opts.seed, 0);

    // Set-up: the suite's first calibration.
    const auto set_up = [&sys_plan] {
        const std::int64_t t0 = nowNs();
        const twocs::core::AmdahlAnalysis amdahl(sys_plan.system);
        const twocs::core::SlackAnalysis slack(sys_plan.system);
        return secondsSince(t0);
    };

    Phase phase;
    phase.rateUnit = "figure configurations";
    phase.tailCap = 0.90;
    phase.unitName = "one cold pass of the figure grids";
    std::vector<FigurePass> passes;
    double busy = 0.0;
    std::uint64_t configs = 0;
    const std::int64_t start = nowNs();
    SetupSamples setups(start, seconds);
    while (secondsSince(start) < seconds) {
        if (setups.due())
            setups.add(set_up());
        // Each pass starts cold, as a fresh `twocs sweep` process does.
        twocs::sim::GraphCache::instance().clear();
        FigurePass p = runFigurePass(figurePlan(opts.seed, passes.size()), jobs);
        busy += p.totalMs * 1e-3;
        phase.unitMs.push_back(p.totalMs);
        configs += p.configs;
        passes.push_back(std::move(p));
    }
    // suite_s is a median over passes, so the rate is too: one host
    // stall should not move a figure-suite result.
    phase.rate = static_cast<double>(passes.front().configs) /
                 (median(phase.unitMs) * 1e-3);
    phase.setupS = setups.median();
    phase.setupSamples = setups.count();
    report.info("whole-run rate " + fmt(static_cast<double>(configs) / busy) +
                " configurations/s");

    // Oracles: every pass reproduces the first bit for bit, and the
    // Fig. 12 delta sweep equals the rebuild oracle.
    std::uint64_t failed = 0;
    for (const FigurePass &p : passes) {
        for (int f = 0; f < kNumFigures; ++f)
            failed += p.hash[f] == passes.front().hash[f] ? 0 : 1;
    }
    if (failed > 0)
        report.fail(std::to_string(failed) +
                    " figure results differ between passes");
    const auto rebuild = twocs::core::runSimulatedEvolutionStudy(
        sys_plan.system, twocs::core::figure12Configs(),
        twocs::core::SweepEngine::Rebuild, runner(jobs, "fig12_rebuild"));
    if (!sameCaseResults(passes.front().fig12Delta, rebuild)) {
        report.fail("Fig. 12 delta sweep differs from the rebuild oracle");
        ++failed;
    }
    report.ops(configs, failed);

    std::vector<double> hit_rates, misses;
    for (const FigurePass &p : passes) {
        const double total = static_cast<double>(p.cacheHits + p.cacheMisses);
        hit_rates.push_back(total == 0 ? 0.0
                                       : static_cast<double>(p.cacheHits) / total);
        misses.push_back(static_cast<double>(p.cacheMisses));
    }
    report.info("inputs: flop_scale " + fmt(sys_plan.system.flopScale) +
                ", bw_scale " + fmt(sys_plan.system.bwScale) +
                ", configurations per pass " +
                std::to_string(passes.front().configs) + ", passes " +
                std::to_string(passes.size()) + ", jobs " +
                std::to_string(jobs) + ", graph cache per pass: hit rate " +
                fmt(median(hit_rates)) + ", misses " + fmt(median(misses)));
    report.info("suite_s " + fmt(median(phase.unitMs) * 1e-3));
    return phase;
}

} // namespace perfbench
