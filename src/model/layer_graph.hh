/**
 * @file
 * Builds the operator stream of a distributed Transformer training
 * iteration (paper Figures 4 and 5).
 *
 * One encoder/decoder layer contains an attention sub-layer (QKV
 * projection, Q*K^T scores, softmax, attention*V, output projection)
 * and a fully-connected sub-layer (FC1, GELU, FC2), each followed by
 * dropout, residual addition, and LayerNorm. Under Megatron-style TP
 * the parameter matrices are sliced across devices and four
 * activation/error all-reduces per layer land on the critical path
 * (two forward, two backward). DP adds one overlappable weight-
 * gradient all-reduce per sub-layer — or, under ZeRO stages 2/3, a
 * reduce-scatter + all-gather pair (plus serialized ZeRO-3 parameter
 * all-gathers). Pipeline parallelism restricts the stream to one
 * stage's layers, repeated per micro-batch, with point-to-point
 * boundary sends; MoE routing adds all-to-alls.
 */

#ifndef TWOCS_MODEL_LAYER_GRAPH_HH
#define TWOCS_MODEL_LAYER_GRAPH_HH

#include <string>
#include <vector>

#include "hw/kernels.hh"
#include "model/hyperparams.hh"
#include "model/parallel.hh"
#include "util/units.hh"

namespace twocs::model {

/** What role an operator plays in the training timeline. */
enum class OpRole
{
    FwdCompute,     //!< forward kernel
    BwdCompute,     //!< backward kernel (WG/IG GEMMs, bwd elementwise)
    TpAllReduceFwd, //!< serialized activation all-reduce (forward)
    TpAllReduceBwd, //!< serialized error all-reduce (backward)
    DpAllReduce,    //!< overlappable weight-gradient all-reduce
    /** Overlappable gradient reduce-scatter (ZeRO stage >= 2 lowers
     *  the monolithic DP all-reduce to RS + AG). */
    DpReduceScatter,
    /** Overlappable gathered-shard all-gather, the second half of
     *  the ZeRO-2/3 gradient exchange. */
    DpAllGather,
    /** Serialized parameter all-gather before a sub-layer touches
     *  its ZeRO-3-sharded weights (forward and backward). */
    ZeroParamAllGather,
    EpAllToAll,     //!< serialized MoE token exchange (Section 6.1.1)
    /** Serialized pipeline-stage activation send (forward). */
    PpSendFwd,
    /** Serialized pipeline-stage gradient send (backward). */
    PpSendBwd,
    OptimizerStep,  //!< parameter update after gradients are ready
};

std::string opRoleName(OpRole role);

/** Which sub-layer an operator belongs to. */
enum class SubLayer
{
    Attention,
    FeedForward,
};

std::string subLayerName(SubLayer sub);

/** One operator in the training stream (compute or communication). */
struct TrainingOp
{
    OpRole role = OpRole::FwdCompute;
    SubLayer subLayer = SubLayer::Attention;
    int layerIndex = 0;

    /** Kernel descriptor; valid for compute/optimizer roles. */
    hw::KernelDesc kernel;

    /** Collective payload bytes; valid for all-reduce roles. */
    Bytes commBytes = 0.0;

    bool isComm() const;
    bool isCompute() const { return !isComm(); }

    /** Only DP gradient collectives (all-reduce, or the ZeRO
     *  reduce-scatter + all-gather pair) may overlap compute. */
    bool overlappable() const
    {
        return role == OpRole::DpAllReduce ||
               role == OpRole::DpReduceScatter ||
               role == OpRole::DpAllGather;
    }
};

/**
 * One step of a training iteration's walk: a layer block (the ops
 * forwardLayerOps() or backwardLayerOps() emit for one layer) or a
 * pipeline-stage boundary send. Blocks of one kind differ only in
 * their ops' `layerIndex`.
 */
enum class IterationStep
{
    Forward,            //!< forwardLayerOps(layer)
    BackwardFinal,      //!< backwardLayerOps(layer, true)
    BackwardAccumulate, //!< backwardLayerOps(layer, false)
    PpSendFwd,          //!< one PpSendFwd activation send
    PpSendBwd,          //!< one PpSendBwd gradient send
};

/** Number of IterationStep kinds (for per-kind tables). */
inline constexpr int kIterationStepKinds = 5;

/** Emits the per-layer / per-iteration operator streams. */
class LayerGraphBuilder
{
  public:
    /**
     * @param fuse_elementwise Fold GELU, dropout and residual
     *        additions into the adjacent GEMMs (zero standalone
     *        cost), as modern Transformer implementations do
     *        (paper Section 3.3). LayerNorm and softmax always
     *        remain standalone kernels.
     * @param recompute_activations Re-execute each layer's forward
     *        pass at the start of its backward pass (activation
     *        checkpointing): trades ~1/3 more compute for the
     *        activation memory the MemoryModel's checkpointing mode
     *        assumes.
     */
    LayerGraphBuilder(Hyperparams hp, ParallelPlan par,
                      hw::Precision precision = hw::Precision::FP16,
                      bool include_optimizer = true,
                      bool fuse_elementwise = true,
                      bool recompute_activations = false);

    const Hyperparams &hyperparams() const { return hp_; }
    const ParallelPlan &parallel() const { return par_; }
    hw::Precision precision() const { return precision_; }

    /** Forward operators of one layer, in issue order (including
     *  the ZeRO-3 parameter all-gathers when the plan shards
     *  parameters). */
    std::vector<TrainingOp> forwardLayerOps(int layer) const;

    /**
     * Backward operators of one layer (reverse order of forward),
     * including WG/IG GEMMs, the two serialized TP all-reduces, the
     * per-sub-layer DP gradient collectives (all-reduce, or the
     * ZeRO reduce-scatter + all-gather lowering), and (optionally)
     * the optimizer step. `final_micro = false` emits the gradient-
     * accumulation form: compute only, no DP collectives and no
     * optimizer (every pipeline micro-batch but the last).
     */
    std::vector<TrainingOp> backwardLayerOps(
        int layer, bool final_micro = true) const;

    /**
     * A full training iteration: every micro-batch's forward over
     * this device's pipeline stage (numLayers / ppDegree layers,
     * each boundary crossing as a PpSendFwd), then every
     * micro-batch's backward (PpSendBwd per boundary), with DP
     * gradient collectives and the optimizer on the final
     * micro-batch only. A trivial plan (pp = 1) reproduces the
     * paper's original all-layer stream.
     */
    std::vector<TrainingOp> iterationOps() const;

    /**
     * The single source of truth for iteration order: calls
     * `visit(IterationStep, int layer)` once per step, in the order
     * iterationOps() concatenates them. The walk builds no ops;
     * stepOps() expands one step.
     */
    template <typename Visit>
    void forEachIterationStep(Visit &&visit) const
    {
        // One device's stream: its pipeline stage's layers, once per
        // micro-batch. With pp == 1 this is the whole model once —
        // the paper's original iteration.
        const int stage_layers = hp_.numLayers / par_.ppDegree;
        const bool pipelined = par_.ppDegree > 1;
        for (int micro = 0; micro < par_.microBatches; ++micro) {
            for (int l = 0; l < stage_layers; ++l)
                visit(IterationStep::Forward, l);
            // The micro-batch's activations cross to the next stage.
            if (pipelined)
                visit(IterationStep::PpSendFwd, stage_layers - 1);
        }
        for (int micro = 0; micro < par_.microBatches; ++micro) {
            const IterationStep bwd =
                micro == par_.microBatches - 1
                    ? IterationStep::BackwardFinal
                    : IterationStep::BackwardAccumulate;
            for (int l = stage_layers - 1; l >= 0; --l)
                visit(bwd, l);
            // The micro-batch's input gradient returns upstream.
            if (pipelined)
                visit(IterationStep::PpSendBwd, 0);
        }
    }

    /** The ops of one iteration step at `layer`. */
    std::vector<TrainingOp> stepOps(IterationStep step, int layer) const;

    /**
     * Forward-only operator stream over all layers: the inference
     * prefill path of Section 6.3 (no backward, no optimizer, no DP
     * gradient traffic; TP and EP collectives remain).
     */
    std::vector<TrainingOp> inferenceOps() const;

    /**
     * One autoregressive decode step (a single new token per
     * sequence) against a KV cache of `context_len` tokens, over all
     * layers: GEMV-like projections, attention streaming the cache,
     * and per-layer TP all-reduces of just B * H bytes — the
     * latency-bound regime of distributed inference.
     */
    std::vector<TrainingOp> decodeStepOps(std::int64_t context_len) const;

    /** Payload of one MoE all-to-all (dispatch or combine). */
    Bytes epAllToAllBytes() const;

    /** Payload of one TP activation/error all-reduce (Eq. 5). */
    Bytes tpAllReduceBytes() const;

    /** Payload of one pipeline stage-boundary send: a micro-batch's
     *  activation (or gradient) tensor, B * SL * H elements. */
    Bytes ppBoundaryBytes() const;

    /** Weight-gradient bytes of the attention sub-layer (per dev). */
    Bytes attnWeightGradBytes() const;

    /** Weight-gradient bytes of the FC sub-layer (Eq. 8, per dev). */
    Bytes fcWeightGradBytes() const;

    /** Total weight-gradient bytes per layer per device. */
    Bytes layerWeightGradBytes() const;

    /** Learnable parameters held by one device for one layer
     *  (TP-sliced; MoE-aware). */
    double perDeviceLayerParams() const;

    /** Serialized all-reduces per layer (2 fwd + 2 bwd). */
    static constexpr int tpAllReducesPerLayer = 4;

  private:
    std::vector<TrainingOp> forwardSubLayerOps(int layer,
                                               SubLayer sub) const;
    std::vector<TrainingOp> backwardSubLayerOps(int layer,
                                                SubLayer sub,
                                                bool final_micro) const;

    /** Per-sub-layer DP gradient exchange, lowered per the plan's
     *  ZeRO stage. */
    void pushDpGradOps(std::vector<TrainingOp> &ops, SubLayer sub,
                       int layer, Bytes grad_bytes) const;
    /** ZeRO-3 parameter all-gather ahead of a sub-layer's use. */
    void pushZeroParamGather(std::vector<TrainingOp> &ops,
                             SubLayer sub, int layer,
                             Bytes weight_bytes) const;

    TrainingOp gemmOp(OpRole role, SubLayer sub, int layer,
                      const std::string &label, std::int64_t m,
                      std::int64_t n, std::int64_t k) const;
    TrainingOp elemOp(OpRole role, SubLayer sub, int layer,
                      hw::KernelKind kind, const std::string &label,
                      std::int64_t elems) const;
    TrainingOp commOp(OpRole role, SubLayer sub, int layer,
                      Bytes bytes) const;

    /** Append `op` unless it is a fused-away element-wise kernel. */
    void push(std::vector<TrainingOp> &ops, TrainingOp op) const;

    Hyperparams hp_;
    ParallelPlan par_;
    hw::Precision precision_;
    bool includeOptimizer_;
    bool fuseElementwise_;
    bool recomputeActivations_;
};

/**
 * DDP-style gradient bucketing: walk an operator stream and merge
 * pending DP gradient all-reduces into buckets of at least
 * bucket_bytes before issuing them (larger buckets amortize per-
 * collective latency; smaller buckets start communicating earlier
 * and overlap more). bucket_bytes == 0 returns the stream unchanged
 * (one all-reduce per sub-layer, the paper's granularity).
 */
std::vector<TrainingOp> coalesceDpAllReduces(std::vector<TrainingOp> ops,
                                             Bytes bucket_bytes);

} // namespace twocs::model

#endif // TWOCS_MODEL_LAYER_GRAPH_HH
