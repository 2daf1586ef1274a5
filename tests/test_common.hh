/**
 * @file
 * Shared helpers for the twocs test suite.
 */

#ifndef TWOCS_TESTS_TEST_COMMON_HH
#define TWOCS_TESTS_TEST_COMMON_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cluster_sim.hh"
#include "core/system_config.hh"
#include "model/layer_graph.hh"
#include "model/zoo.hh"
#include "opmodel/operator_model.hh"
#include "util/rng.hh"

namespace twocs::test {

/** The paper's measurement system (MI210 node, no evolution). */
inline core::SystemConfig
paperSystem()
{
    return core::SystemConfig{};
}

/** A BERT-Large layer graph at the given parallel degrees. */
inline model::LayerGraphBuilder
bertGraph(int tp = 1, int dp = 1)
{
    model::ParallelPlan par;
    par.tpDegree = tp;
    par.dpDegree = dp;
    return model::LayerGraphBuilder(model::bertLarge(), par);
}

/**
 * The byte-identity oracle for ClusterSim::runTrials(): run()
 * rebuilds the graph for every trial, trial i seeded
 * splitmixSeed(config.seed, i), aggregated in trial order.
 */
inline core::ClusterTrialSummary
rebuildTrials(const core::ClusterSim &sim,
              const core::ClusterSimConfig &config, int num_trials)
{
    core::ClusterTrialSummary summary;
    for (int i = 0; i < num_trials; ++i) {
        core::ClusterSimConfig trial = config;
        trial.seed =
            splitmixSeed(config.seed, static_cast<std::uint64_t>(i));
        summary.trials.push_back(sim.run(trial));
        summary.meanIterationTime +=
            summary.trials.back().iterationTime;
        summary.worstIterationTime =
            std::max(summary.worstIterationTime,
                     summary.trials.back().iterationTime);
    }
    summary.meanIterationTime /= static_cast<double>(num_trials);
    return summary;
}

/** A layer-graph configuration the projection oracles sweep. */
struct GraphVariant
{
    std::string name;
    model::Hyperparams hp;
    model::ParallelPlan plan;
    bool fused = true;
    bool recompute = false;

    model::LayerGraphBuilder build() const
    {
        return model::LayerGraphBuilder(hp, plan, hw::Precision::FP16,
                                        true, fused, recompute);
    }
};

/**
 * Every parallelZoo() plan with fused and unfused element-wise ops,
 * activation recompute on and off, plus sequence parallelism under
 * ZeRO-3 and a pipelined MoE model with ep > 1.
 */
inline std::vector<GraphVariant>
graphVariants()
{
    std::vector<GraphVariant> out;
    for (const model::ParallelZooEntry &e : model::parallelZoo()) {
        for (const bool fused : { true, false }) {
            for (const bool recompute : { false, true }) {
                out.push_back({ e.model + (fused ? "/fused" : "/unfused") +
                                    (recompute ? "/recompute" : ""),
                                model::zooModel(e.model).hp, e.plan, fused,
                                recompute });
            }
        }
    }
    model::ParallelPlan sp;
    sp.tpDegree = 4;
    sp.dpDegree = 2;
    sp.zeroStage = 3;
    sp.sequenceParallel = true;
    out.push_back({ "BERT/sp", model::bertLarge(), sp, true, false });
    model::ParallelPlan moe;
    moe.tpDegree = 2;
    moe.ppDegree = 2;
    moe.microBatches = 3;
    moe.dpDegree = 4;
    moe.zeroStage = 2;
    moe.epDegree = 4;
    out.push_back({ "BERT-MoE/ep4", model::bertLarge().withMoe(8), moe,
                    false, true });
    return out;
}

/**
 * The op-order oracle for LayerGraphBuilder::iterationOps(): the
 * per-micro-batch concatenation of forwardLayerOps() and
 * backwardLayerOps() with the pipeline boundary sends, as the
 * stream was built before the step walk existed.
 */
inline std::vector<model::TrainingOp>
concatIterationOps(const model::LayerGraphBuilder &graph)
{
    const model::ParallelPlan &par = graph.parallel();
    const int stage_layers =
        graph.hyperparams().numLayers / par.ppDegree;
    const auto send = [&](model::OpRole role, model::SubLayer sub,
                          int layer) {
        model::TrainingOp op;
        op.role = role;
        op.subLayer = sub;
        op.layerIndex = layer;
        op.kernel.label = model::opRoleName(role);
        op.commBytes = graph.ppBoundaryBytes();
        return op;
    };
    std::vector<model::TrainingOp> ops;
    for (int micro = 0; micro < par.microBatches; ++micro) {
        for (int l = 0; l < stage_layers; ++l) {
            const auto layer_ops = graph.forwardLayerOps(l);
            ops.insert(ops.end(), layer_ops.begin(), layer_ops.end());
        }
        if (par.ppDegree > 1) {
            ops.push_back(send(model::OpRole::PpSendFwd,
                               model::SubLayer::FeedForward,
                               stage_layers - 1));
        }
    }
    for (int micro = 0; micro < par.microBatches; ++micro) {
        const bool final_micro = micro == par.microBatches - 1;
        for (int l = stage_layers - 1; l >= 0; --l) {
            const auto layer_ops = graph.backwardLayerOps(l, final_micro);
            ops.insert(ops.end(), layer_ops.begin(), layer_ops.end());
        }
        if (par.ppDegree > 1) {
            ops.push_back(send(model::OpRole::PpSendBwd,
                               model::SubLayer::Attention, 0));
        }
    }
    return ops;
}

/**
 * The byte-identity oracle for OperatorScalingModel::projectIteration():
 * project every op of iterationOps() one at a time and add it to its
 * role's field in op order.
 */
inline opmodel::ProjectedBreakdown
projectOpByOp(const opmodel::OperatorScalingModel &m,
              const model::LayerGraphBuilder &graph)
{
    opmodel::ProjectedBreakdown pb;
    for (const model::TrainingOp &op : graph.iterationOps()) {
        const Seconds t = m.projectOp(op);
        switch (op.role) {
          case model::OpRole::FwdCompute:
            pb.fwdCompute += t;
            break;
          case model::OpRole::BwdCompute:
            pb.bwdCompute += t;
            break;
          case model::OpRole::OptimizerStep:
            pb.optimizer += t;
            break;
          case model::OpRole::TpAllReduceFwd:
          case model::OpRole::TpAllReduceBwd:
          case model::OpRole::EpAllToAll:
          case model::OpRole::PpSendFwd:
          case model::OpRole::PpSendBwd:
          case model::OpRole::ZeroParamAllGather:
            pb.serializedComm += t;
            break;
          case model::OpRole::DpAllReduce:
          case model::OpRole::DpReduceScatter:
          case model::OpRole::DpAllGather:
            pb.dpComm += t;
            break;
        }
    }
    return pb;
}

/** EXPECT that `value` lies within [lo, hi]. */
#define EXPECT_IN_RANGE(value, lo, hi)                                    \
    do {                                                                  \
        const double v_ = (value);                                        \
        EXPECT_GE(v_, (lo));                                              \
        EXPECT_LE(v_, (hi));                                              \
    } while (0)

} // namespace twocs::test

#endif // TWOCS_TESTS_TEST_COMMON_HH
