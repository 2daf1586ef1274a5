/**
 * @file
 * Per-layer probes of the traced run. Each probe times, from outside,
 * calls into one module's public functions, wraps every call in an
 * obs::Category::Bench span, and reports the layer's metric; the
 * request-level probe also checks the op-by-op projection against the
 * service's own response, bit for bit.
 */

#include <map>
#include <sstream>

#include "core/amdahl.hh"
#include "core/system_config.hh"
#include "model/layer_graph.hh"
#include "obs/obs.hh"
#include "obs/sinks.hh"
#include "profiling/profiler.hh"
#include "sim/graph.hh"
#include "sim/graph_cache.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"
#include "util/json.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using twocs::obs::Category;
using twocs::obs::Span;

constexpr std::size_t kProbeRequests = 600;
constexpr std::size_t kProbePerturbs = 64;

double
usSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-3;
}

/** The request sample: the workload's own stream for serve-*, the
 *  seed's serve-zipf stream otherwise, plus the pool's perturbs so
 *  every kind is present. */
std::vector<Request>
probeSample(const std::string &workload, std::uint64_t seed)
{
    std::vector<Request> sample;
    const ZipfPool pool(seed);
    if (workload == "serve-miss") {
        MissStream gen(seed);
        for (std::size_t i = 0; i < kProbeRequests; ++i)
            sample.push_back(gen.next());
    } else {
        SplitMix rng(seed);
        for (std::size_t i = 0; i < kProbeRequests; ++i)
            sample.push_back(pool.entries()[pool.draw(rng)]);
    }
    std::size_t perturbs = 0;
    for (const Request &r : pool.entries()) {
        if (r.kind == Kind::Perturb && perturbs++ < kProbePerturbs)
            sample.push_back(r);
    }
    return sample;
}

/** `"name":<number>` as the service renders it, for bitwise checks. */
bool
responseHas(const std::string &response, const char *field, double value)
{
    const std::string needle =
        std::string("\"") + field + "\":" + twocs::json::number(value);
    return response.find(needle) != std::string::npos;
}

struct RequestLayers
{
    double parseUs = 0, missUs = 0, hitUs = 0, perturbUs = 0, selfUs = 0;
    double buildUs = 0, ops = 0, projectUs = 0, profileUs = 0;
    double hitRate = 0;
    std::uint64_t requests = 0, mismatches = 0;
};

RequestLayers
probeRequests(const std::vector<Request> &sample, Report &report)
{
    twocs::svc::ServiceOptions so;
    so.jobs = 1;
    twocs::svc::QueryService service(so);
    service.handle(kWarmLine); // calibrate outside the timings

    // The same system the service resolves for a request that names
    // none, calibrated the same way.
    const twocs::core::SystemConfig system;
    const twocs::core::AmdahlAnalysis amdahl(system);
    const twocs::profiling::IterationProfiler profiler = system.profiler();

    RequestLayers out;
    std::vector<double> parse, miss, perturb, build, ops, project, profile,
        self, hit;
    std::map<std::string, std::vector<double>> other_miss;
    for (const Request &r : sample) {
        double parse_us = 0;
        twocs::svc::Query q;
        {
            Span span(Category::Bench, "bench.svc.parse");
            const std::int64_t t0 = nowNs();
            q = twocs::svc::parseQuery(r.line);
            const std::string key = twocs::svc::canonicalKey(q);
            parse_us = usSince(t0);
        }
        parse.push_back(parse_us);

        const std::uint64_t hits_before = service.metrics().hits();
        std::string response;
        double handle_us = 0;
        {
            Span span(Category::Bench, "bench.svc.handle");
            const std::int64_t t0 = nowNs();
            response = service.handle(r.line);
            handle_us = usSince(t0);
        }
        ++out.requests;
        const bool was_hit = service.metrics().hits() > hits_before;
        if (r.kind == Kind::Perturb) {
            perturb.push_back(handle_us);
            continue;
        }
        if (was_hit) {
            hit.push_back(handle_us);
            continue;
        }
        if (r.kind != Kind::Project) {
            other_miss[kindLabel(r.kind)].push_back(handle_us);
            continue;
        }

        // A project miss, decomposed: op-graph build, then projection
        // (or profiling for ground truth) over the prebuilt ops.
        miss.push_back(handle_us);
        double build_us = 0, work_us = 0;
        std::vector<twocs::model::TrainingOp> graph_ops;
        twocs::model::ParallelPlan plan;
        {
            Span span(Category::Bench, "bench.model.build");
            const std::int64_t t0 = nowNs();
            const twocs::model::LayerGraphBuilder graph =
                amdahl.makeGraph(q.hidden, q.seqLen, q.batch, q.plan);
            graph_ops = graph.iterationOps();
            build_us = usSince(t0);
            plan = graph.parallel();
        }
        build.push_back(build_us);
        ops.push_back(static_cast<double>(graph_ops.size()));
        double compute = 0, serialized = 0;
        if (!q.groundTruth) {
            Span span(Category::Bench, "bench.opmodel.project");
            const std::int64_t t0 = nowNs();
            twocs::opmodel::ProjectedBreakdown pb;
            for (const twocs::model::TrainingOp &op : graph_ops) {
                const double t = amdahl.scalingModel().projectOp(op);
                switch (op.role) {
                  case twocs::model::OpRole::FwdCompute:
                    pb.fwdCompute += t;
                    break;
                  case twocs::model::OpRole::BwdCompute:
                    pb.bwdCompute += t;
                    break;
                  case twocs::model::OpRole::OptimizerStep:
                    pb.optimizer += t;
                    break;
                  case twocs::model::OpRole::DpAllReduce:
                  case twocs::model::OpRole::DpReduceScatter:
                  case twocs::model::OpRole::DpAllGather:
                    pb.dpComm += t;
                    break;
                  default:
                    pb.serializedComm += t;
                    break;
                }
            }
            work_us = usSince(t0);
            project.push_back(work_us);
            compute = pb.computeTime();
            serialized = pb.serializedComm;
        } else {
            Span span(Category::Bench, "bench.profiling.profile");
            const std::int64_t t0 = nowNs();
            const twocs::profiling::Profile p = profiler.profileOps(graph_ops, plan);
            work_us = usSince(t0);
            profile.push_back(work_us);
            compute = p.computeTime();
            serialized = p.serializedCommTime();
        }
        self.push_back(handle_us - parse_us - build_us - work_us);
        if (!responseHas(response, "compute_seconds", compute) ||
            !responseHas(response, "serialized_comm_seconds", serialized)) {
            ++out.mismatches;
            report.info("projection mismatch for " + r.line + " -> " + response);
        }
    }
    out.hitRate = service.metrics().hitRate();

    // Every non-perturb line again: now all cache hits.
    for (const Request &r : sample) {
        if (r.kind == Kind::Perturb)
            continue;
        Span span(Category::Bench, "bench.svc.handle");
        const std::int64_t t0 = nowNs();
        service.handle(r.line);
        hit.push_back(usSince(t0));
        ++out.requests;
    }

    out.parseUs = mean(parse);
    out.missUs = mean(miss);
    out.hitUs = mean(hit);
    out.perturbUs = mean(perturb);
    out.selfUs = mean(self);
    out.buildUs = mean(build);
    out.ops = mean(ops);
    out.projectUs = mean(project);
    out.profileUs = mean(profile);
    for (const auto &[kind, v] : other_miss)
        report.info("svc " + kind + " miss: mean " + fmt(mean(v)) + " us (" +
                    std::to_string(v.size()) + ")");
    report.info("svc project miss " + fmt(out.missUs) + " us (" +
                std::to_string(miss.size()) + ", " +
                std::to_string(project.size()) + " projected, " +
                std::to_string(profile.size()) +
                " ground truth) = parse " + fmt(mean(parse)) + " + build " +
                fmt(out.buildUs) + " + project/profile " +
                fmt(mean(miss) - mean(parse) - out.buildUs - out.selfUs) +
                " + self " + fmt(out.selfUs) + "; model.build share " +
                fmt(out.missUs > 0 ? out.buildUs / out.missUs : 0.0));
    return out;
}

struct SimLayers
{
    double compileMs = 0, tasks = 0, replayUs = 0;
};

SimLayers
probeSim(std::uint64_t seed)
{
    const twocs::core::ClusterSimConfig cfg = clusterConfig(seed);
    const twocs::core::ClusterSim sim;
    std::vector<double> compile;
    std::shared_ptr<const twocs::sim::GraphTemplate> graph;
    for (int i = 0; i < 7; ++i) {
        twocs::sim::GraphCache::instance().clear();
        Span span(Category::Bench, "bench.sim.compile");
        const std::int64_t t0 = nowNs();
        graph = sim.compileIteration(cfg);
        compile.push_back(usSince(t0) * 1e-3);
    }
    twocs::sim::ReplayScratch scratch;
    const std::vector<double> durations = graph->baseDurations();
    std::vector<double> replay;
    for (int i = 0; i < 200; ++i) {
        Span span(Category::Bench, "bench.sim.replay");
        const std::int64_t t0 = nowNs();
        twocs::sim::replay(*graph, durations, scratch);
        replay.push_back(usSince(t0));
    }
    // Tasks actually replayed: the template that was replayed.
    return { median(compile), static_cast<double>(graph->numTasks()),
             median(replay) };
}

struct FigureLayers
{
    double calibrateMs = 0;
    double figMs[kNumFigures] = {};
    double cacheHitRate = 0, cacheMisses = 0;
    double passMs = 0;
};

FigureLayers
probeFigures(std::uint64_t seed, int jobs, int passes)
{
    FigureLayers out;
    std::vector<double> calibrate, pass_ms, hit_rate, misses;
    std::vector<std::vector<double>> figs(kNumFigures);
    for (int i = 0; i < passes; ++i) {
        twocs::sim::GraphCache::instance().clear();
        const FigurePass p =
            runFigurePass(figurePlan(seed, static_cast<std::uint64_t>(i)), jobs);
        calibrate.push_back(p.calibrateMs);
        pass_ms.push_back(p.totalMs);
        for (int f = 0; f < kNumFigures; ++f)
            figs[f].push_back(p.figMs[f]);
        const double total = static_cast<double>(p.cacheHits + p.cacheMisses);
        hit_rate.push_back(total == 0 ? 0.0
                                      : static_cast<double>(p.cacheHits) / total);
        misses.push_back(static_cast<double>(p.cacheMisses));
    }
    out.calibrateMs = median(calibrate);
    for (int f = 0; f < kNumFigures; ++f)
        out.figMs[f] = median(figs[f]);
    out.cacheHitRate = median(hit_rate);
    out.cacheMisses = median(misses);
    out.passMs = median(pass_ms);
    return out;
}

/** Runtime at jobs 1 / (jobs * runtime at jobs N) on the same work. */
double
parallelEfficiency(const std::string &workload, std::uint64_t seed)
{
    const int jobs = hostJobs();
    if (workload == "figure-suite") {
        const double t1 = probeFigures(seed, 1, 5).passMs;
        const double tn = probeFigures(seed, jobs, 5).passMs;
        return t1 / (jobs * tn);
    }
    const twocs::core::ClusterSimConfig cfg = clusterConfig(seed);
    std::vector<double> t1, tn;
    for (int i = 0; i < 3; ++i) {
        Span span(Category::Bench, "bench.exec.trials");
        t1.push_back(timeTrials(cfg, 4 * kClusterUnitTrials, 1, nullptr));
        tn.push_back(timeTrials(cfg, 4 * kClusterUnitTrials, jobs, nullptr));
    }
    return median(t1) / (jobs * median(tn));
}

} // namespace

void
runLayerProbes(const std::string &workload, const RunOptions &opts,
               const WorkloadLayers &layers, Report &report)
{
    twocs::obs::Tracer::reset();
    twocs::obs::Tracer::enable(static_cast<unsigned>(Category::Bench));

    const RequestLayers req =
        probeRequests(probeSample(workload, opts.seed), report);
    report.ops(req.requests, req.mismatches);
    if (req.mismatches > 0)
        report.fail(std::to_string(req.mismatches) +
                    " op-by-op projections differ from the service's");

    const NetProbe net = runNetProbe(opts.seed, 1.0);
    report.ops(net.requests, net.failed + net.mismatches);
    if (net.mismatches > 0)
        report.fail("net probe responses differ from net::serveStream");

    const SimLayers sim = probeSim(opts.seed);
    const FigureLayers fig = probeFigures(opts.seed, hostJobs(), 5);
    const double eff = parallelEfficiency(workload, opts.seed);
    twocs::obs::Tracer::disable();

    report.metric("svc.parse_us", req.parseUs, "us");
    report.metric("svc.miss_us", req.missUs, "us");
    report.metric("svc.hit_us", req.hitUs, "us");
    report.metric("svc.perturb_us", req.perturbUs, "us");
    report.metric("svc.self_us", req.selfUs, "us");
    report.metric("svc.cache_hit_rate",
                  layers.cacheHitRate >= 0 ? layers.cacheHitRate : req.hitRate,
                  "ratio");
    report.metric("model.build_us", req.buildUs, "us");
    report.metric("model.ops", req.ops, "count");
    report.metric("model.build_share",
                  req.missUs > 0 ? req.buildUs / req.missUs : 0.0, "ratio");
    report.metric("opmodel.project_us", req.projectUs, "us");
    report.metric("profiling.profile_us", req.profileUs, "us");
    report.metric("core.calibrate_ms", fig.calibrateMs, "ms");
    static constexpr const char *kFigMetrics[kNumFigures] = {
        "core.fig2_ms",        "core.fig10_ms",        "core.fig11_ms",
        "core.fig12_model_ms", "core.fig12_delta_ms", "core.fig14_ms",
    };
    for (int f = 0; f < kNumFigures; ++f)
        report.metric(kFigMetrics[f], fig.figMs[f], "ms");
    report.metric("sim.compile_ms", sim.compileMs, "ms");
    report.metric("sim.tasks", sim.tasks, "count");
    report.metric("sim.replay_us", sim.replayUs, "us");
    report.metric("sim.replay_ns_per_task", sim.replayUs * 1e3 / sim.tasks, "ns");
    report.metric("sim.graph_cache_hit_rate", fig.cacheHitRate, "ratio");
    report.metric("sim.graph_cache_misses", fig.cacheMisses, "count");
    report.metric("exec.parallel_eff", eff, "ratio");
    report.metric("net.rtt_us", net.rttUs, "us");
    report.metric("net.self_us", net.rttUs - net.handleUs, "us");
    report.metric("net.gen_lag_ms",
                  layers.genLagMs >= 0 ? layers.genLagMs : net.genLagMs, "ms");
    report.metric("net.shed_frac",
                  layers.shedFrac >= 0 ? layers.shedFrac : net.shedFrac, "ratio");
    report.metric("net.read_pauses",
                  layers.readPauses >= 0 ? layers.readPauses : net.readPauses,
                  "count");

    // The Bench spans, as the obs summary sink renders them.
    std::ostringstream summary;
    twocs::obs::writeSummary(twocs::obs::Tracer::snapshot(), summary);
    std::istringstream lines(summary.str());
    for (std::string line; std::getline(lines, line);)
        report.info("trace " + line);
}

} // namespace perfbench
