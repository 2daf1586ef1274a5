#include "cluster_sim.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "comm/ring_sim.hh"
#include "model/layer_graph.hh"
#include "profiling/profiler.hh"
#include "sim/graph_cache.hh"
#include "sim/passes.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs::core {

namespace {

void
validateConfig(const ClusterSimConfig &config)
{
    fatalIf(config.tpDegree < 2,
            "cluster simulation needs a TP group of >= 2");
    fatalIf(config.numLayers < 1, "need at least one layer");
    const double jitter = config.computeJitter;
    fatalIf(!(jitter >= 0.0) || std::isinf(jitter),
            "jitter must be a finite fraction >= 0, got ", jitter);
    fatalIf(std::isinf(jitter * jitter), "jitter ", jitter,
            " is too large: its log-normal sigma overflows");
}

/** Resource ids of device d's streams: buildIteration() registers
 *  compute d and comm d interleaved, as 2d / 2d + 1. */
constexpr sim::ResourceId
computeStream(int d)
{
    return 2 * d;
}
constexpr sim::ResourceId
commStream(int d)
{
    return 2 * d + 1;
}

/**
 * Build the iteration graph for one TP group. When `rng` is non-null
 * every compute task's duration is perturbed in place (the legacy
 * rebuild-per-trial path); with a null rng the graph carries base
 * durations, ready to be compiled into a template whose replay
 * applies the same noise factors to the same tasks in the same
 * order — the two paths are bit-identical by construction.
 */
void
buildIteration(const ClusterSimConfig &config,
               const model::Hyperparams &baseline,
               hw::Precision precision, sim::EventSimulator &des,
               Rng *rng)
{
    const int p = config.tpDegree;
    model::Hyperparams hp = baseline.withHidden(config.hidden)
                                .withSequenceLength(config.seqLen)
                                .withBatchSize(config.batch)
                                .withCompatibleHeads(p);
    hp.numLayers = config.numLayers;
    model::ParallelPlan par = config.plan;
    par.tpDegree = p;
    const model::LayerGraphBuilder graph(hp, par, precision);
    const hw::KernelCostModel kernels = config.system.kernelModel();
    const hw::Topology topo = config.system.topology();
    const comm::CollectiveModel coll = config.system.collectiveModel();

    std::vector<sim::ResourceId> compute(p), comm(p);
    for (int d = 0; d < p; ++d) {
        compute[d] = des.addResource("compute" + std::to_string(d));
        comm[d] = des.addResource("comm" + std::to_string(d));
        panicIf(compute[d] != computeStream(d) ||
                    comm[d] != commStream(d),
                "cluster streams must interleave as 2d / 2d + 1");
    }

    std::vector<sim::TaskId> last(p, sim::InvalidTask);
    // Ring steps alternate between two buffers that live for the
    // whole build; deps go through a stack span, so adding a task
    // allocates nothing here.
    std::vector<sim::TaskId> prev(p), cur(p);
    sim::TaskId deps[2];
    const auto after = [&](sim::TaskId a) {
        const std::size_t n = a != sim::InvalidTask ? 1 : 0;
        deps[0] = a;
        return std::span<const sim::TaskId>(deps, n);
    };

    for (const model::TrainingOp &op : graph.iterationOps()) {
        if (op.isComm()) {
            const bool tp_ring =
                op.role == model::OpRole::TpAllReduceFwd ||
                op.role == model::OpRole::TpAllReduceBwd;
            if (!tp_ring) {
                // Plan collectives outside the explicit TP group
                // (DP/ZeRO shard traffic, PP boundary sends, MoE
                // all-to-alls): each device serializes the
                // closed-form collective cost on its comm stream.
                const Seconds dur =
                    coll.cost(profiling::collectiveDescFor(op, par))
                        .total;
                for (int d = 0; d < p; ++d) {
                    last[d] = des.addTask(op.kernel.label, "plan_coll",
                                          comm[d], dur, after(last[d]));
                }
                continue;
            }
            // Explicit ring all-reduce across the group; step
            // timing shares comm::ringStepTime's pinned per-ring
            // share semantics.
            const Seconds step_time = comm::ringStepTime(
                topo, op.commBytes, p, config.system.linkEfficiency);
            const int steps = 2 * (p - 1);

            prev = last;
            for (int s = 0; s < steps; ++s) {
                for (int d = 0; d < p; ++d) {
                    std::size_t n = 0;
                    if (prev[d] != sim::InvalidTask)
                        deps[n++] = prev[d];
                    const int upstream = (d + p - 1) % p;
                    if (prev[upstream] != sim::InvalidTask)
                        deps[n++] = prev[upstream];
                    cur[d] = des.addTask(
                        op.kernel.label, "ring_step", comm[d], step_time,
                        std::span<const sim::TaskId>(deps, n));
                }
                prev.swap(cur);
            }
            last.swap(prev);
        } else {
            const Seconds base = kernels.cost(op.kernel);
            for (int d = 0; d < p; ++d) {
                const Seconds dur =
                    rng != nullptr
                        ? base * rng->noiseFactor(config.computeJitter)
                        : base;
                last[d] = des.addTask(op.kernel.label, "compute",
                                      compute[d], dur, after(last[d]));
            }
        }
    }
}

/** Aggregate one simulated iteration exactly the way the legacy
 *  Schedule-based path does: same per-resource sums in the same
 *  order, so replay and rebuild agree to the last bit. */
template <typename BusyFn>
ClusterSimResult
aggregate(Seconds makespan, int p, BusyFn &&busy)
{
    ClusterSimResult r;
    r.iterationTime = makespan;
    Seconds comm_busy = 0.0, compute_busy = 0.0;
    for (int d = 0; d < p; ++d) {
        compute_busy += busy(computeStream(d));
        comm_busy += busy(commStream(d));
    }
    r.computeTimePerDevice = compute_busy / p;
    r.commTimePerDevice = comm_busy / p;
    r.stallTimePerDevice = r.iterationTime - r.computeTimePerDevice -
                           r.commTimePerDevice;
    if (r.stallTimePerDevice < 0.0)
        r.stallTimePerDevice = 0.0;
    return r;
}

} // namespace

ClusterSim::ClusterSim(model::Hyperparams baseline,
                       hw::Precision precision)
    : baseline_(std::move(baseline)), precision_(precision)
{
}

ClusterSimResult
ClusterSim::run(const ClusterSimConfig &config) const
{
    validateConfig(config);

    if (!config.passes.empty()) {
        // A pass-rewritten graph only exists in compiled form, so
        // this path is compile + one jittered replay; the jitter
        // draws happen in compiled task order either way, keeping
        // run() and a one-trial runTrials() identical.
        const std::shared_ptr<const sim::GraphTemplate> graph =
            compileIteration(config);
        const util::StringInterner::Id compute_tag =
            graph->interner().find("compute");
        const std::vector<Seconds> &base = graph->baseDurations();
        std::vector<Seconds> durations(base);
        Rng rng(config.seed);
        for (std::size_t i = 0; i < durations.size(); ++i) {
            if (graph->taskTagIds()[i] == compute_tag)
                durations[i] =
                    base[i] * rng.noiseFactor(config.computeJitter);
        }
        sim::ReplayScratch scratch;
        sim::replay(*graph, durations, scratch);
        return aggregate(scratch.makespan(), config.tpDegree,
                         [&](sim::ResourceId r) {
                             return scratch.busyTotal(r);
                         });
    }

    Rng rng(config.seed);
    sim::EventSimulator des;
    buildIteration(config, baseline_, precision_, des, &rng);

    const sim::Schedule sched = des.run();
    return aggregate(sched.makespan(), config.tpDegree,
                     [&](sim::ResourceId r) {
                         return sched.busyTime(r);
                     });
}

std::shared_ptr<const sim::GraphTemplate>
ClusterSim::compileIteration(const ClusterSimConfig &config) const
{
    validateConfig(config);
    // The cache key covers exactly what buildIteration() reads into
    // the graph's shape and base durations: the derived
    // hyperparameters (the same overrides buildIteration applies),
    // the plan, the system under study, the precision, and the pass
    // pipeline. Seeds and jitter are replay inputs, not compile
    // inputs, and stay out of the key.
    model::Hyperparams hp =
        baseline_.withHidden(config.hidden)
            .withSequenceLength(config.seqLen)
            .withBatchSize(config.batch)
            .withCompatibleHeads(config.tpDegree);
    hp.numLayers = config.numLayers;
    model::ParallelPlan par = config.plan;
    par.tpDegree = config.tpDegree;
    const std::string key =
        "cluster|" + hp.fingerprint() + "|plan=" + par.summary() +
        "|sys=" + config.system.fingerprint() +
        "|prec=" + hw::precisionName(precision_) +
        "|passes=" + config.passes;

    const sim::GraphCache::Compiled cached =
        sim::GraphCache::instance().getOrCompile(key, [&] {
            sim::EventSimulator des;
            buildIteration(config, baseline_, precision_, des,
                           nullptr);
            sim::GraphCache::Compiled out;
            out.graph = sim::PassPipeline::parse(config.passes)
                            .apply(des.compile());
            return out;
        });
    return cached.graph;
}

ClusterTrialSummary
ClusterSim::runTrials(const ClusterSimConfig &config, int num_trials,
                      const exec::RunnerOptions &runner_options) const
{
    fatalIf(num_trials < 1, "need at least one trial");
    const std::shared_ptr<const sim::GraphTemplate> graph =
        compileIteration(config);
    const std::vector<Seconds> &base = graph->baseDurations();
    const std::vector<util::StringInterner::Id> &tags =
        graph->taskTagIds();
    const util::StringInterner::Id compute_tag =
        graph->interner().find("compute");
    const double jitter = config.computeJitter;
    const int p = config.tpDegree;

    constexpr std::size_t W = sim::LaneWidth;
    static_assert(W == LaneRng::Lanes, "one LaneRng lane per replay lane");
    using Block = std::array<ClusterSimResult, W>;
    const std::size_t trials = static_cast<std::size_t>(num_trials);
    std::vector<std::size_t> blocks((trials + W - 1) / W);
    std::iota(blocks.begin(), blocks.end(), std::size_t{ 0 });

    exec::RunnerOptions options = runner_options;
    if (options.study == "study")
        options.study = "cluster_trials";
    exec::ParallelSweepRunner runner(options);

    const std::vector<Block> per_block =
        runner.map(blocks, [&](std::size_t b) {
            const std::size_t first = b * W;
            const std::size_t lanes = std::min(W, trials - first);
            // Trial i is seeded splitmixSeed(config.seed, i):
            // config.seed + i would make base seeds s and s + 1
            // share almost all of their trial streams. Lane l draws
            // trial first + l's stream in task order — run()'s exact
            // draws — and spare tail lanes draw a stream no trial
            // reads.
            LaneRng rng(config.seed, first);
            // One arena per worker thread, recycled across runTrials
            // calls with different graphs: the explicit rebind
            // opt-in.
            thread_local sim::LaneScratch scratch;
            scratch.bind(*graph);
            sim::replayLanes(
                *graph, scratch,
                [&](std::size_t i, Seconds(&dur)[W]) {
                    if (tags[i] == compute_tag) {
                        rng.noiseFactors(jitter, dur);
                        for (std::size_t l = 0; l < W; ++l)
                            dur[l] *= base[i];
                    } else {
                        for (std::size_t l = 0; l < W; ++l)
                            dur[l] = base[i];
                    }
                });
            Block results;
            for (std::size_t l = 0; l < lanes; ++l) {
                results[l] = aggregate(scratch.makespan(l), p,
                                       [&](sim::ResourceId r) {
                                           return scratch.busyTotal(r, l);
                                       });
            }
            return results;
        });

    ClusterTrialSummary summary;
    summary.trials.reserve(trials);
    for (std::size_t t = 0; t < trials; ++t) {
        const ClusterSimResult &r = per_block[t / W][t % W];
        summary.trials.push_back(r);
        summary.meanIterationTime += r.iterationTime;
        summary.worstIterationTime =
            std::max(summary.worstIterationTime, r.iterationTime);
    }
    summary.meanIterationTime /= static_cast<double>(num_trials);
    return summary;
}

} // namespace twocs::core
