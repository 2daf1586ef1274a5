#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "core/amdahl.hh"
#include "core/sweep.hh"
#include "opmodel/accuracy.hh"
#include "opmodel/operator_model.hh"
#include "test_common.hh"
#include "util/logging.hh"

namespace twocs::opmodel {
namespace {

OperatorScalingModel
calibrated(int tp = 1)
{
    const auto g = twocs::test::bertGraph(tp);
    return OperatorScalingModel::calibrate(
        twocs::test::paperSystem().profiler(), g);
}

TEST(OperatorModel, ProjectionIsExactAtBaselinePoint)
{
    // Projecting the baseline's own operators must reproduce their
    // measured durations exactly (predictor ratio = 1).
    const auto g = twocs::test::bertGraph(1);
    const auto profiler = twocs::test::paperSystem().profiler();
    const OperatorScalingModel m =
        OperatorScalingModel::calibrate(profiler, g);
    for (const auto &op : g.forwardLayerOps(0)) {
        if (op.isComm())
            continue;
        const Seconds measured =
            profiler.profileOp(op, g.parallel()).duration;
        EXPECT_NEAR(m.projectOp(op), measured, 1e-15 + 1e-9 * measured)
            << op.kernel.label;
    }
}

TEST(OperatorModel, PredictorsFollowAlgorithmicAnalysis)
{
    const auto g = twocs::test::bertGraph(2, 2);
    for (const auto &op : g.iterationOps()) {
        const double pred = OperatorScalingModel::predictorFor(op);
        if (op.isComm()) {
            EXPECT_DOUBLE_EQ(pred, op.commBytes);
        } else if (op.kernel.kind == hw::KernelKind::Gemm) {
            EXPECT_DOUBLE_EQ(pred, op.kernel.flops());
        } else {
            EXPECT_DOUBLE_EQ(pred,
                             static_cast<double>(op.kernel.elems));
        }
    }
}

TEST(OperatorModel, GemmProjectionScalesLinearlyWithPredictor)
{
    // Doubling SL doubles a GEMM's flops, so the projected time must
    // double exactly (the model is linear in the predictor).
    const OperatorScalingModel m = calibrated();
    const auto base = twocs::test::bertGraph(1);
    model::ParallelPlan par;
    const model::LayerGraphBuilder doubled(
        model::bertLarge().withSequenceLength(1024), par);

    auto find = [](const model::LayerGraphBuilder &g,
                   const std::string &label) {
        for (const auto &op : g.forwardLayerOps(0)) {
            if (op.isCompute() && op.kernel.label == label)
                return op;
        }
        throw std::runtime_error("label not found");
    };
    const auto a = find(base, "fc1_fwd");
    const auto b = find(doubled, "fc1_fwd");
    EXPECT_NEAR(m.projectOp(b) / m.projectOp(a), 2.0, 1e-9);
}

TEST(OperatorModel, UnknownLabelIsFatal)
{
    const OperatorScalingModel m = calibrated();
    model::TrainingOp op;
    op.role = model::OpRole::FwdCompute;
    op.kernel.kind = hw::KernelKind::Gemm;
    op.kernel.label = "mystery_gemm";
    op.kernel.gemm = { 128, 128, 128 };
    EXPECT_THROW(m.projectOp(op), FatalError);
}

TEST(OperatorModel, CalibrationValidation)
{
    const auto g = twocs::test::bertGraph(1);
    const auto profiler = twocs::test::paperSystem().profiler();
    EXPECT_THROW(
        OperatorScalingModel::calibrate(profiler, g, 0.0, 4),
        FatalError);
    EXPECT_THROW(
        OperatorScalingModel::calibrate(profiler, g, 1e6, 1),
        FatalError);
}

TEST(OperatorModel, ProjectIterationAggregatesRoles)
{
    const OperatorScalingModel m = calibrated();
    const auto target = twocs::test::bertGraph(8, 4);
    const ProjectedBreakdown pb = m.projectIteration(target);
    EXPECT_GT(pb.fwdCompute, 0.0);
    EXPECT_GT(pb.bwdCompute, pb.fwdCompute); // backward ~2x forward
    EXPECT_GT(pb.optimizer, 0.0);
    EXPECT_GT(pb.serializedComm, 0.0);
    EXPECT_GT(pb.dpComm, 0.0);
    EXPECT_DOUBLE_EQ(pb.computeTime(),
                     pb.fwdCompute + pb.bwdCompute + pb.optimizer);
    EXPECT_DOUBLE_EQ(pb.criticalPathTime(),
                     pb.computeTime() + pb.serializedComm);
    EXPECT_GT(pb.serializedCommFraction(), 0.0);
    EXPECT_LT(pb.serializedCommFraction(), 1.0);
}

/** Bit-for-bit equality of two breakdowns (NaN- and -0-exact). */
::testing::AssertionResult
bitIdentical(const ProjectedBreakdown &a, const ProjectedBreakdown &b)
{
    if (std::memcmp(&a, &b, sizeof a) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hexfloat << "fwd " << a.fwdCompute << " vs "
           << b.fwdCompute << ", bwd " << a.bwdCompute << " vs "
           << b.bwdCompute << ", optim " << a.optimizer << " vs "
           << b.optimizer << ", serialized " << a.serializedComm
           << " vs " << b.serializedComm << ", dp " << a.dpComm
           << " vs " << b.dpComm;
}

TEST(OperatorModel, ProjectIterationIsBitIdenticalToOpByOp)
{
    // Each variant projects against a BERT-Large baseline built with
    // its own element-wise fusion and recompute flags (and experts,
    // for MoE targets), so every label it emits has a baseline.
    const auto profiler = twocs::test::paperSystem().profiler();
    for (const twocs::test::GraphVariant &v :
         twocs::test::graphVariants()) {
        SCOPED_TRACE(v.name);
        twocs::test::GraphVariant base{
            "baseline",
            v.hp.moe.enabled()
                ? model::bertLarge().withMoe(v.hp.moe.numExperts)
                : model::bertLarge(),
            {}, v.fused, v.recompute
        };
        const OperatorScalingModel m =
            OperatorScalingModel::calibrate(profiler, base.build());
        const model::LayerGraphBuilder g = v.build();
        EXPECT_TRUE(bitIdentical(m.projectIteration(g),
                                 twocs::test::projectOpByOp(m, g)));
    }
}

TEST(OperatorModel, ProjectIterationFailsOnTheSameFirstOp)
{
    // A dense baseline has no router or recompute baselines: the
    // walk must stop at the op the op-by-op loop stops at.
    const OperatorScalingModel m = calibrated();
    for (const twocs::test::GraphVariant &v :
         twocs::test::graphVariants()) {
        if (!v.hp.moe.enabled() && !v.recompute)
            continue;
        SCOPED_TRACE(v.name);
        const model::LayerGraphBuilder g = v.build();
        std::string want, got;
        try {
            twocs::test::projectOpByOp(m, g);
        } catch (const FatalError &e) {
            want = e.what();
        }
        try {
            m.projectIteration(g);
        } catch (const FatalError &e) {
            got = e.what();
        }
        EXPECT_NE(want, "");
        EXPECT_EQ(got, want);
    }
}

/** (pp, micro) pairs of the table3 x 3D-plan byte-identity grid. */
class ProjectIterationGrid
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ProjectIterationGrid, BitIdenticalToOpByOpOverTable3)
{
    // Every table3 (H, B, SL, TP) point under ZeRO 0-3 at dp = 2,
    // built the way AmdahlAnalysis::evaluate() builds it.
    const core::AmdahlAnalysis amdahl(twocs::test::paperSystem(),
                                      model::bertLarge());
    const core::SweepSpace space = core::table3();
    const auto [pp, micro] = GetParam();
    int checked = 0;
    for (const std::int64_t h : space.hiddens) {
        for (const std::int64_t b : space.batches) {
            for (const std::int64_t sl : space.seqLens) {
                for (const std::int64_t tp : space.tpDegrees) {
                    for (int zero = 0; zero <= 3; ++zero) {
                        model::ParallelPlan plan;
                        plan.tpDegree = static_cast<int>(tp);
                        plan.ppDegree = pp;
                        plan.microBatches = micro;
                        plan.dpDegree = 2;
                        plan.zeroStage = zero;
                        const model::LayerGraphBuilder g =
                            amdahl.makeGraph(h, sl, b, plan);
                        ASSERT_TRUE(bitIdentical(
                            amdahl.scalingModel().projectIteration(g),
                            twocs::test::projectOpByOp(
                                amdahl.scalingModel(), g)))
                            << "H=" << h << " B=" << b << " SL=" << sl
                            << " " << plan.summary();
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 7 * 2 * 4 * 7 * 4);
}

INSTANTIATE_TEST_SUITE_P(
    PipelinePlans, ProjectIterationGrid,
    ::testing::Values(std::pair{ 1, 1 }, std::pair{ 2, 1 },
                      std::pair{ 2, 3 }, std::pair{ 2, 8 },
                      std::pair{ 4, 1 }, std::pair{ 4, 3 },
                      std::pair{ 4, 8 }),
    [](const auto &info) {
        return "pp" + std::to_string(info.param.first) + "_micro" +
               std::to_string(info.param.second);
    });

TEST(OperatorModel, AllReduceBaselineRecorded)
{
    const OperatorScalingModel m = calibrated();
    EXPECT_GT(m.allReduceBaseline().duration, 0.0);
    EXPECT_DOUBLE_EQ(m.allReduceBaseline().predictor,
                     64.0 * 1024.0 * 1024.0);
    EXPECT_GT(m.computeBaselines().size(), 10u);
}

// --- Figure 15 accuracy bands ---

class Fig15 : public ::testing::Test
{
  protected:
    Fig15()
        : eval_(twocs::test::paperSystem().profiler(),
                twocs::test::bertGraph(1))
    {
    }

    AccuracyEvaluator eval_;
};

TEST_F(Fig15, GemmVsSeqLenIsNearlyLinear)
{
    const AccuracySeries s =
        eval_.operatorVsSeqLen("fc1_fwd", { 1024, 2048, 4096, 8192 });
    ASSERT_EQ(s.points.size(), 4u);
    // Linear-in-SL scaling holds tightly (Figure 15(a), left).
    EXPECT_LT(s.geomeanError, 0.10);
}

TEST_F(Fig15, GemmVsHiddenWithinPaperBand)
{
    const AccuracySeries s = eval_.operatorVsHidden(
        "fc1_fwd", { 2048, 4096, 8192, 16384 });
    // Quadratic-in-H scaling carries ~15% error (Figure 15(a),
    // right): efficiency improves with size, which the scaling
    // model cannot see.
    EXPECT_LT(s.geomeanError, 0.16);
    EXPECT_GT(s.geomeanError, 0.005);
}

TEST_F(Fig15, LayerNormWithinPaperBand)
{
    const AccuracySeries vs_sl =
        eval_.operatorVsSeqLen("ln1_fwd", { 1024, 2048, 4096, 8192 });
    const AccuracySeries vs_h =
        eval_.operatorVsHidden("ln1_fwd", { 2048, 4096, 8192 });
    // Paper: ~7% geomean; allow headroom for the simulated curves.
    EXPECT_LT(vs_sl.geomeanError, 0.16);
    EXPECT_LT(vs_h.geomeanError, 0.16);
}

TEST_F(Fig15, AllReduceWithinPaperBand)
{
    const AccuracySeries s =
        eval_.allReduceVsBytes({ 8e6, 32e6, 128e6, 512e6, 1e9 });
    // Paper: ~11% geomean error for the all-reduce size sweep.
    EXPECT_LT(s.geomeanError, 0.15);
}

TEST_F(Fig15, ErrorsGrowWithProjectionDistance)
{
    // "Individual errors ... especially when projecting using
    // smaller operation sizes, may not always be small": the far
    // end of the H sweep errs more than the near end.
    const AccuracySeries s = eval_.operatorVsHidden(
        "fc1_fwd", { 2048, 16384 });
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_LT(s.points[0].relError, s.points[1].relError);
}

TEST_F(Fig15, MeasuredAndProjectedAreMonotone)
{
    const AccuracySeries s =
        eval_.operatorVsSeqLen("fc1_fwd", { 1024, 2048, 4096, 8192 });
    for (std::size_t i = 1; i < s.points.size(); ++i) {
        EXPECT_GT(s.points[i].measured, s.points[i - 1].measured);
        EXPECT_GT(s.points[i].projected, s.points[i - 1].projected);
    }
}

TEST_F(Fig15, UnknownOperatorIsFatal)
{
    EXPECT_THROW(eval_.operatorVsSeqLen("warp_drive", { 1024 }),
                 FatalError);
}

} // namespace
} // namespace twocs::opmodel
