/**
 * @file
 * The 3D-parallelism zoo study: every parallelZoo() model profiled
 * under its published-scale ParallelPlan (TP x PP x DP/ZeRO x EP),
 * plus direct checks of the ZeRO / pipeline collective lowering
 * invariants the plan machinery is built on.
 *
 * The `--bench-json` metrics carry `collective_lowering_*` keys that
 * CI schema-validates: they assert the wire-volume identities
 * (ZeRO-2's reduce-scatter + all-gather moves exactly the monolithic
 * all-reduce's bytes; ZeRO-3's forward+backward parameter all-gathers
 * double the wire volume; a pipeline boundary send moves
 * precision * B * SL * H bytes) that
 * make the lowering a refactoring of the communication volume rather
 * than a change to it.
 */

#include "bench_common.hh"

#include "comm/collectives.hh"
#include "core/sweep.hh"
#include "core/system_config.hh"
#include "model/zoo.hh"

using namespace twocs;

int
main(int argc, char **argv)
{
    const exec::RunnerOptions runner =
        bench::runnerOptions(argc, argv, "zoo3d_parallel_sweep");
    bench::BenchJson report("zoo3d_parallel_sweep",
                            bench::benchJsonPath(argc, argv));

    bench::banner("3D zoo", "model zoo under published-scale "
                            "parallel plans");

    const core::SystemConfig system;
    const std::vector<core::ZooStudyPoint> points =
        core::runParallelZooStudy(system, runner);

    TextTable t({ "Model", "Plan", "Devices", "Compute(s)",
                  "SerComm(s)", "DpComm(s)", "CommFrac" });
    double max_frac = 0.0;
    std::string max_model;
    for (const core::ZooStudyPoint &p : points) {
        t.addRowOf(p.model, p.plan.summary(),
                   static_cast<long>(p.devices), p.computeTime,
                   p.serializedCommTime, p.dpCommTime,
                   p.commFraction());
        if (p.commFraction() > max_frac) {
            max_frac = p.commFraction();
            max_model = p.model;
        }
    }
    bench::show(t);

    bench::checkClaim("every zoo plan profiles to a positive "
                      "iteration",
                      [&] {
                          for (const core::ZooStudyPoint &p : points) {
                              if (p.computeTime <= 0.0)
                                  return false;
                          }
                          return !points.empty();
                      }());
    bench::checkBand("worst-case serialized comm fraction", max_frac,
                     0.0, 0.95);
    std::printf("most comm-bound plan: %s (%.1f%% serialized comm)\n",
                max_model.c_str(), 100.0 * max_frac);

    // --- collective lowering invariants (the ZeRO / PP identities) --
    const comm::CollectiveModel coll = system.collectiveModel();
    const int dp = 16;
    const Bytes grads = 2.0 * 175e9; // GPT-3-scale fp16 gradients
    const comm::CollectiveCost ar = coll.cost(
        { comm::CollectiveKind::AllReduce, grads, dp });
    const comm::CollectiveCost rs = coll.cost(
        { comm::CollectiveKind::ReduceScatter, grads, dp });
    const comm::CollectiveCost ag = coll.cost(
        { comm::CollectiveKind::AllGather, grads / dp, dp });
    const double zero2_ratio =
        (rs.bytesOnWire + ag.bytesOnWire) / ar.bytesOnWire;
    // Stage 3 re-gathers the sharded parameters before each pass on
    // top of the stage-2 gradient lowering: one W/dp all-gather
    // forward and one backward, each moving the reduce-scatter's wire
    // bytes again (weights and gradients share a precision).
    const double zero3_ratio =
        (rs.bytesOnWire + 3.0 * ag.bytesOnWire) / ar.bytesOnWire;
    bench::checkBand("ZeRO-2 RS+AG wire bytes == all-reduce wire "
                     "bytes",
                     zero2_ratio, 0.999, 1.001);
    bench::checkBand("ZeRO-3 fwd+bwd param all-gathers double the "
                     "wire",
                     zero3_ratio, 1.999, 2.001);

    const Bytes boundary = 2.0 * 1 * 2048 * 12288; // fp16 B*SL*H
    const comm::CollectiveCost p2p = coll.cost(
        { comm::CollectiveKind::PointToPoint, boundary, 2 });
    bench::checkBand("PP boundary send moves prec*B*SL*H bytes",
                     p2p.bytesOnWire / boundary, 0.999, 1.001);

    // --- delta sweep engine vs the rebuild oracle ----------------
    // The delta engine (DESIGN.md §16) must reproduce the
    // per-point-rebuild study bit for bit, serial and parallel, with
    // the graph cache warm or cold — reuse is a pure perf change.
    const std::vector<core::EvolutionConfig> evo =
        core::figure12Configs({ 1.0, 2.0, 4.0 });
    exec::RunnerOptions one_job;
    one_job.jobs = 1;
    exec::RunnerOptions four_jobs;
    four_jobs.jobs = 4;
    const std::vector<core::SimulatedEvolutionPoint> oracle =
        core::runSimulatedEvolutionStudy(
            system, evo, core::SweepEngine::Rebuild, one_job);
    const auto matchesOracle =
        [&](const std::vector<core::SimulatedEvolutionPoint> &pts) {
            if (pts.size() != oracle.size())
                return false;
            for (std::size_t i = 0; i < pts.size(); ++i) {
                const core::CaseStudyResult &a = oracle[i].result;
                const core::CaseStudyResult &b = pts[i].result;
                if (a.makespan != b.makespan ||
                    a.computeTime != b.computeTime ||
                    a.serializedCommTime != b.serializedCommTime ||
                    a.dpCommTime != b.dpCommTime ||
                    a.dpExposedTime != b.dpExposedTime ||
                    a.overlappedCommTime != b.overlappedCommTime)
                    return false;
            }
            return true;
        };
    bool identical = true;
    for (const exec::RunnerOptions &opts : { one_job, four_jobs }) {
        identical = identical &&
                    matchesOracle(core::runSimulatedEvolutionStudy(
                        system, evo, core::SweepEngine::Delta, opts));
    }
    const bool engines_ok = bench::checkClaim(
        "delta sweep engine matches the rebuild oracle bit for bit "
        "at --jobs 1 and 4",
        identical);

    report.set("zoo_models", static_cast<double>(points.size()));
    report.set("zoo_max_comm_fraction", max_frac);
    report.set("sweep_engines_bit_identical", identical ? 1.0 : 0.0);
    report.set("collective_lowering_zero2_wire_ratio", zero2_ratio);
    report.set("collective_lowering_zero3_wire_ratio", zero3_ratio);
    report.set("collective_lowering_pp_p2p_bytes", p2p.bytesOnWire);
    report.set("collective_lowering_ar_wire_bytes", ar.bytesOnWire);
    return report.write() && engines_ok ? 0 : 1;
}
