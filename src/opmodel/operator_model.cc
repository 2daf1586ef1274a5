#include "operator_model.hh"

#include <array>
#include <vector>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace twocs::opmodel {

double
OperatorScalingModel::predictorFor(const model::TrainingOp &op)
{
    if (op.isComm())
        return op.commBytes;
    if (op.kernel.kind == hw::KernelKind::Gemm)
        return op.kernel.flops();
    return static_cast<double>(op.kernel.elems);
}

OperatorScalingModel
OperatorScalingModel::calibrate(const profiling::IterationProfiler &profiler,
                                const model::LayerGraphBuilder &baseline,
                                Bytes ar_calib_bytes,
                                int ar_calib_participants)
{
    OperatorScalingModel m;

    // Compute operators: profile one representative layer.
    const model::ParallelPlan &par = baseline.parallel();
    std::vector<model::TrainingOp> ops = baseline.forwardLayerOps(0);
    std::vector<model::TrainingOp> bwd = baseline.backwardLayerOps(0);
    ops.insert(ops.end(), bwd.begin(), bwd.end());

    for (const model::TrainingOp &op : ops) {
        if (op.isComm())
            continue;
        const profiling::ProfileRecord rec = profiler.profileOp(op, par);
        const double pred = predictorFor(op);
        panicIf(pred <= 0.0,
                "operator '", op.kernel.label, "' has a zero predictor");
        const auto [it, inserted] = m.computeBaselines_.emplace(
            op.kernel.label, BaselinePoint{ rec.duration, pred });
        panicIf(!inserted && it->second.predictor != pred,
                "duplicate operator label '", op.kernel.label,
                "' with different shapes in one layer");
    }

    // Communication: one all-reduce measurement, projected linearly
    // in payload size (Figure 15(c) methodology).
    fatalIf(ar_calib_bytes <= 0.0, "AR calibration size must be > 0");
    fatalIf(ar_calib_participants < 2,
            "AR calibration needs >= 2 participants");
    const comm::CollectiveCost ar = profiler.collectiveModel().cost({ comm::CollectiveKind::AllReduce, ar_calib_bytes, ar_calib_participants });
    m.allReduceBaseline_ = { ar.total, ar_calib_bytes };

    const comm::CollectiveCost a2a =
        profiler.collectiveModel().cost({ comm::CollectiveKind::AllToAll, ar_calib_bytes, ar_calib_participants });
    m.allToAllBaseline_ = { a2a.total, ar_calib_bytes };

    return m;
}

OperatorScalingModel
OperatorScalingModel::calibrateFitted(
    const profiling::IterationProfiler &profiler,
    const model::LayerGraphBuilder &baseline,
    const std::vector<model::Hyperparams> &sweep_points,
    const std::vector<Bytes> &ar_sweep_bytes, int ar_calib_participants)
{
    fatalIf(ar_sweep_bytes.empty(),
            "calibrateFitted() needs an all-reduce sweep");
    fatalIf(ar_calib_participants < 2,
            "AR calibration needs >= 2 participants");

    // Gather (predictor, duration) samples per operator label over
    // the baseline plus every sweep point.
    std::map<std::string, std::pair<std::vector<double>,
                                    std::vector<double>>>
        samples;
    std::vector<model::Hyperparams> points = sweep_points;
    points.push_back(baseline.hyperparams());
    for (const model::Hyperparams &hp : points) {
        const model::LayerGraphBuilder graph(
            hp, baseline.parallel(), baseline.precision());
        std::vector<model::TrainingOp> ops = graph.forwardLayerOps(0);
        std::vector<model::TrainingOp> bwd = graph.backwardLayerOps(0);
        ops.insert(ops.end(), bwd.begin(), bwd.end());
        for (const model::TrainingOp &op : ops) {
            if (op.isComm())
                continue;
            const profiling::ProfileRecord rec =
                profiler.profileOp(op, graph.parallel());
            auto &[preds, times] = samples[op.kernel.label];
            preds.push_back(predictorFor(op));
            times.push_back(rec.duration);
        }
    }

    OperatorScalingModel m;
    for (auto &[label, pt] : samples) {
        const LinearFit fit = fitProportional(pt.first, pt.second);
        // Store the fitted slope as a unit-predictor baseline so
        // projectOp()'s ratio form evaluates slope * predictor.
        m.computeBaselines_.emplace(label,
                                    BaselinePoint{ fit.slope, 1.0 });
    }

    // Fit the collectives across the payload sweep.
    std::vector<double> sizes, ar_times, a2a_times;
    for (Bytes s : ar_sweep_bytes) {
        sizes.push_back(s);
        ar_times.push_back(
            profiler.collectiveModel()
                .cost({ comm::CollectiveKind::AllReduce, s, ar_calib_participants })
                .total);
        a2a_times.push_back(profiler.collectiveModel()
                                .cost({ comm::CollectiveKind::AllToAll, s, ar_calib_participants })
                                .total);
    }
    m.allReduceBaseline_ = { fitProportional(sizes, ar_times).slope,
                             1.0 };
    m.allToAllBaseline_ = { fitProportional(sizes, a2a_times).slope,
                            1.0 };
    return m;
}

OperatorScalingModel
OperatorScalingModel::fromBaselines(
    std::map<std::string, BaselinePoint> compute,
    BaselinePoint all_reduce, BaselinePoint all_to_all)
{
    fatalIf(compute.empty(),
            "fromBaselines() needs at least one compute operator");
    for (const auto &[label, point] : compute) {
        fatalIf(point.duration <= 0.0 || point.predictor <= 0.0,
                "baseline for '", label, "' must be positive");
    }
    fatalIf(all_reduce.duration <= 0.0 || all_reduce.predictor <= 0.0,
            "all-reduce baseline must be positive");
    fatalIf(all_to_all.duration <= 0.0 || all_to_all.predictor <= 0.0,
            "all-to-all baseline must be positive");

    OperatorScalingModel m;
    m.computeBaselines_ = std::move(compute);
    m.allReduceBaseline_ = all_reduce;
    m.allToAllBaseline_ = all_to_all;
    return m;
}

Seconds
OperatorScalingModel::projectOp(const model::TrainingOp &op) const
{
    const double pred = predictorFor(op);
    if (op.isComm()) {
        const BaselinePoint &base = op.role == model::OpRole::EpAllToAll
                                        ? allToAllBaseline_
                                        : allReduceBaseline_;
        return base.duration * pred / base.predictor;
    }

    const auto it = computeBaselines_.find(op.kernel.label);
    fatalIf(it == computeBaselines_.end(),
            "no baseline for operator '", op.kernel.label,
            "'; was the baseline profiled with the same layer shape?");
    return it->second.duration * pred / it->second.predictor;
}

namespace {

/** The breakdown field an op of `role` accumulates into. */
Seconds ProjectedBreakdown::*
roleField(model::OpRole role)
{
    switch (role) {
      case model::OpRole::FwdCompute:
        return &ProjectedBreakdown::fwdCompute;
      case model::OpRole::BwdCompute:
        return &ProjectedBreakdown::bwdCompute;
      case model::OpRole::OptimizerStep:
        return &ProjectedBreakdown::optimizer;
      case model::OpRole::TpAllReduceFwd:
      case model::OpRole::TpAllReduceBwd:
      case model::OpRole::EpAllToAll:
      case model::OpRole::PpSendFwd:
      case model::OpRole::PpSendBwd:
      case model::OpRole::ZeroParamAllGather:
        return &ProjectedBreakdown::serializedComm;
      case model::OpRole::DpAllReduce:
      case model::OpRole::DpReduceScatter:
      case model::OpRole::DpAllGather:
        return &ProjectedBreakdown::dpComm;
    }
    panic("unknown op role");
}

/** One projected op of a step block: its duration and its field. */
struct ProjectedOp
{
    Seconds ProjectedBreakdown::*field;
    Seconds time;
};

} // namespace

ProjectedBreakdown
OperatorScalingModel::projectIteration(
    const model::LayerGraphBuilder &target) const
{
    TWOCS_OBS_SPAN_VAR(span, obs::Category::Opmodel,
                       "opmodel.project_iteration");
    // Blocks of one step kind differ only in their ops' layerIndex,
    // which projectOp() never reads: project the first block of each
    // kind the walk meets, then replay its times for every step. Each
    // time is added on its own, in op order, so every field is the
    // same sum, bit for bit, as projecting op by op (never t * count,
    // which rounds differently), and the first op without a baseline
    // fails at the same point.
    std::array<std::vector<ProjectedOp>, model::kIterationStepKinds>
        blocks;
    std::size_t ops = 0, steps = 0;
    ProjectedBreakdown pb;
    target.forEachIterationStep([&](model::IterationStep step,
                                    int layer) {
        std::vector<ProjectedOp> &block =
            blocks[static_cast<std::size_t>(step)];
        if (block.empty()) {
            for (const model::TrainingOp &op : target.stepOps(step, layer))
                block.push_back({ roleField(op.role), projectOp(op) });
        }
        for (const ProjectedOp &p : block)
            pb.*p.field += p.time;
        ops += block.size();
        ++steps;
    });
    TWOCS_OBS_ANNOTATE(span, [&] {
        std::size_t distinct = 0;
        for (const std::vector<ProjectedOp> &block : blocks)
            distinct += block.size();
        return "ops=" + std::to_string(ops) +
               " blocks=" + std::to_string(steps) +
               " projected=" + std::to_string(distinct);
    });
    return pb;
}

} // namespace twocs::opmodel
