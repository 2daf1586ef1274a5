#include "profiler.hh"

#include "obs/obs.hh"
#include "util/logging.hh"

namespace twocs::profiling {

bool
ProfileRecord::isComm() const
{
    return role == model::OpRole::TpAllReduceFwd ||
           role == model::OpRole::TpAllReduceBwd ||
           role == model::OpRole::DpAllReduce ||
           role == model::OpRole::DpReduceScatter ||
           role == model::OpRole::DpAllGather ||
           role == model::OpRole::ZeroParamAllGather ||
           role == model::OpRole::EpAllToAll ||
           role == model::OpRole::PpSendFwd ||
           role == model::OpRole::PpSendBwd;
}

comm::CollectiveDesc
collectiveDescFor(const model::TrainingOp &op,
                  const model::ParallelPlan &par)
{
    panicIf(!op.isComm(), "collectiveDescFor() on a compute op");

    comm::CollectiveDesc desc;
    desc.bytes = op.commBytes;
    switch (op.role) {
      case model::OpRole::TpAllReduceFwd:
      case model::OpRole::TpAllReduceBwd:
        desc.kind = comm::CollectiveKind::AllReduce;
        desc.participants = par.tpDegree;
        break;
      case model::OpRole::DpAllReduce:
        desc.kind = comm::CollectiveKind::AllReduce;
        desc.participants = par.dpDegree;
        break;
      case model::OpRole::DpReduceScatter:
        desc.kind = comm::CollectiveKind::ReduceScatter;
        desc.participants = par.dpDegree;
        break;
      case model::OpRole::DpAllGather:
      case model::OpRole::ZeroParamAllGather:
        desc.kind = comm::CollectiveKind::AllGather;
        desc.participants = par.dpDegree;
        break;
      case model::OpRole::EpAllToAll:
        desc.kind = comm::CollectiveKind::AllToAll;
        desc.participants = par.epDegree;
        break;
      case model::OpRole::PpSendFwd:
      case model::OpRole::PpSendBwd:
        desc.kind = comm::CollectiveKind::PointToPoint;
        desc.participants = 2;
        break;
      default:
        panic("comm op '", op.kernel.label, "' has no collective");
    }
    panicIf(desc.participants < 2,
            "comm op '", op.kernel.label,
            "' with fewer than two participants");
    return desc;
}

void
Profile::add(ProfileRecord record)
{
    records_.push_back(std::move(record));
}

Seconds
Profile::totalTime() const
{
    Seconds t = 0.0;
    for (const auto &r : records_)
        t += r.duration;
    return t;
}

Seconds
Profile::timeByRole(model::OpRole role) const
{
    Seconds t = 0.0;
    for (const auto &r : records_) {
        if (r.role == role)
            t += r.duration;
    }
    return t;
}

Seconds
Profile::computeTime() const
{
    return timeByRole(model::OpRole::FwdCompute) +
           timeByRole(model::OpRole::BwdCompute) +
           timeByRole(model::OpRole::OptimizerStep);
}

Seconds
Profile::serializedCommTime() const
{
    // TP all-reduces, MoE all-to-alls, pipeline boundary sends and
    // ZeRO-3 parameter all-gathers all sit on the critical path
    // (Sections 2.3.3 and 6.1.1, plus the 3D-parallelism lowering).
    return timeByRole(model::OpRole::TpAllReduceFwd) +
           timeByRole(model::OpRole::TpAllReduceBwd) +
           timeByRole(model::OpRole::EpAllToAll) +
           timeByRole(model::OpRole::PpSendFwd) +
           timeByRole(model::OpRole::PpSendBwd) +
           timeByRole(model::OpRole::ZeroParamAllGather);
}

Seconds
Profile::dpCommTime() const
{
    return timeByRole(model::OpRole::DpAllReduce) +
           timeByRole(model::OpRole::DpReduceScatter) +
           timeByRole(model::OpRole::DpAllGather);
}

std::vector<ProfileRecord>
Profile::byLabel(const std::string &label) const
{
    std::vector<ProfileRecord> out;
    for (const auto &r : records_) {
        if (r.label == label)
            out.push_back(r);
    }
    return out;
}

const ProfileRecord &
Profile::find(const std::string &label, int layer_index) const
{
    for (const auto &r : records_) {
        if (r.label == label && r.layerIndex == layer_index)
            return r;
    }
    fatal("profile has no record '", label, "' in layer ", layer_index);
}

IterationProfiler::IterationProfiler(hw::KernelCostModel kernel_model,
                                     comm::CollectiveModel collective_model)
    : kernelModel_(std::move(kernel_model)),
      collectiveModel_(std::move(collective_model))
{
}

ProfileRecord
IterationProfiler::profileOp(const model::TrainingOp &op,
                             const model::ParallelPlan &par) const
{
    ProfileRecord r;
    r.label = op.kernel.label;
    r.role = op.role;
    r.subLayer = op.subLayer;
    r.layerIndex = op.layerIndex;

    if (op.isComm()) {
        const comm::CollectiveCost c =
            collectiveModel_.cost(collectiveDescFor(op, par));
        r.duration = c.total;
        r.bytes = op.commBytes;
        r.elems = 0;
    } else {
        r.duration = kernelModel_.cost(op.kernel);
        r.flops = op.kernel.flops();
        r.bytes = op.kernel.bytes();
        r.kernelKind = op.kernel.kind;
        r.gemm = op.kernel.gemm;
        r.elems = op.kernel.elems;
    }
    return r;
}

Profile
IterationProfiler::profileOps(const std::vector<model::TrainingOp> &ops,
                              const model::ParallelPlan &par) const
{
    Profile p;
    for (const model::TrainingOp &op : ops)
        p.add(profileOp(op, par));
    return p;
}

Profile
IterationProfiler::profileIteration(
    const model::LayerGraphBuilder &graph) const
{
    TWOCS_OBS_SPAN_VAR(span, obs::Category::Profiling,
                       "profiling.profile_iteration");
    Profile profile = profileOps(graph.iterationOps(), graph.parallel());
    TWOCS_OBS_ANNOTATE(span, [&] {
        return "ops=" + std::to_string(profile.size());
    });
    return profile;
}

Profile
IterationProfiler::profileLayer(const model::LayerGraphBuilder &graph,
                                int layer_index) const
{
    std::vector<model::TrainingOp> ops =
        graph.forwardLayerOps(layer_index);
    std::vector<model::TrainingOp> bwd =
        graph.backwardLayerOps(layer_index);
    ops.insert(ops.end(), bwd.begin(), bwd.end());
    return profileOps(ops, graph.parallel());
}

} // namespace twocs::profiling
