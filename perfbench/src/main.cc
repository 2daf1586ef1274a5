/**
 * @file
 * perfbench: the twocs end-to-end benchmark.
 *
 *   perfbench --workload serve-miss|serve-zipf|cluster-trials|figure-suite
 *             --seed N --seconds S --trace 0|1
 *
 * --trace 0 measures the workload with tracing off and reports the
 * end-to-end metrics. --trace 1 runs the workload half untraced and
 * half traced (the difference is the tracing overhead), then the
 * per-layer probes, and reports the per-layer metrics. Either way the
 * last stdout line is one JSON object: correct, attempted, failed and
 * metrics. README.md lists every metric and what should move it.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "obs/obs.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

using WorkloadFn = Phase (*)(const RunOptions &, double, Report &,
                             WorkloadLayers &);

const std::map<std::string, WorkloadFn> &
workloads()
{
    static const std::map<std::string, WorkloadFn> table = {
        { "serve-miss", runServeMiss },
        { "serve-zipf", runServeZipf },
        { "cluster-trials", runClusterTrials },
        { "figure-suite", runFigureSuite },
    };
    return table;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "serve-miss|serve-zipf|cluster-trials|figure-suite "
                 "--seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

void
describePhase(const Phase &p, const char *label, Report &report)
{
    const Summary s = summarize(p.unitMs, p.tailCap);
    report.info(std::string(label) + "setup_s " + fmt(p.setupS) +
                " (median of " + std::to_string(p.setupSamples) + ")");
    report.info(std::string(label) + "throughput " + fmt(p.rate) + " " +
                p.rateUnit + " per second");
    report.info(std::string(label) + describe("unit time", s, "ms") + "; unit = " +
                p.unitName);
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            usage("expected --key value pairs, got '" + key + "'");
        args[key.substr(2)] = argv[++i];
    }
    for (const auto &[key, value] : args) {
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace")
            usage("unknown option --" + key);
    }
    const auto it = workloads().find(args["workload"]);
    if (it == workloads().end())
        usage("unknown workload '" + args["workload"] + "'");

    RunOptions opts;
    char *end = nullptr;
    opts.seed = std::strtoull(args.count("seed") ? args["seed"].c_str() : "1",
                              &end, 10);
    if (*end != '\0')
        usage("--seed expects an unsigned integer");
    opts.seconds = std::strtod(
        args.count("seconds") ? args["seconds"].c_str() : "10", &end);
    if (*end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 600.0)
        usage("--seconds expects a positive number of seconds");
    const std::string trace = args.count("trace") ? args["trace"] : "0";
    if (trace != "0" && trace != "1")
        usage("--trace expects 0 or 1");
    opts.trace = trace == "1";

    Report report;
    report.info("workload " + it->first + ", seed " +
                std::to_string(opts.seed) + ", seconds " + fmt(opts.seconds) +
                ", trace " + trace + ", jobs " + std::to_string(hostJobs()));
    try {
        WorkloadLayers layers;
        if (!opts.trace) {
            const Phase p = it->second(opts, opts.seconds, report, layers);
            describePhase(p, "", report);
            report.metric("setup_s", p.setupS, "s");
            report.metric("throughput", p.rate, "1/s");
            report.metric("peak_rss_mb", peakRssMiB(), "MiB");
        } else {
            // Same workload and inputs in alternating untraced and
            // traced rounds (so drift and warm-up hit both sides): the
            // ratio of their median unit times is the cost of tracing.
            constexpr int kRounds = 4;
            std::vector<double> off_ms, on_ms;
            double off_rate = 0, on_rate = 0, tail_cap = 0.99;
            for (int round = 0; round < kRounds; ++round) {
                const double slice = opts.seconds / (2 * kRounds);
                const Phase off = it->second(opts, slice, report, layers);
                twocs::obs::Tracer::reset();
                twocs::obs::Tracer::enable(twocs::obs::kAllCategories);
                const Phase on = it->second(opts, slice, report, layers);
                twocs::obs::Tracer::disable();
                off_ms.insert(off_ms.end(), off.unitMs.begin(), off.unitMs.end());
                on_ms.insert(on_ms.end(), on.unitMs.begin(), on.unitMs.end());
                off_rate += off.rate / kRounds;
                on_rate += on.rate / kRounds;
                tail_cap = off.tailCap;
            }
            const Summary off_s = summarize(off_ms, tail_cap),
                          on_s = summarize(on_ms, tail_cap);
            report.info("untraced: throughput " + fmt(off_rate) + " per second, " +
                        describe("unit time", off_s, "ms"));
            report.info("traced: throughput " + fmt(on_rate) + " per second, " +
                        describe("unit time", on_s, "ms"));
            const double overhead = (on_s.median / off_s.median - 1.0) * 100.0;
            report.info("tracing overhead " + fmt(overhead) +
                        " % of the median unit time");
            report.metric("obs.overhead_pct", overhead, "%");
            runLayerProbes(it->first, opts, layers, report);
        }
    } catch (const std::exception &e) {
        report.fail(std::string("exception: ") + e.what());
    }
    report.print();
    return 0;
}
