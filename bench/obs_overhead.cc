/**
 * @file
 * Overhead gate for the obs span tracer: with tracing compiled in
 * but runtime-disabled (the shipping default), a hot loop whose body
 * carries a TWOCS_OBS_SPAN site must run within 1% of the identical
 * loop with no span site at all. This pins the cost contract in
 * obs/obs.hh — one relaxed atomic load and a branch per site — so
 * instrumentation can stay in hot paths unconditionally.
 *
 * Methodology: many paired rounds, each timing the plain loop and
 * the span-site loop back to back, alternating which runs first so
 * drift in host load cannot favor either side. The gate judges the
 * median of the per-pair ratios: a pair shares one load level, and
 * the median ignores the pairs a scheduling blip lands in.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hh"
#include "obs/obs.hh"

using namespace twocs;

namespace {

/** ~1 us of un-optimizable floating-point work. */
double
workUnit(double seed)
{
    double acc = seed;
    for (int i = 0; i < 400; ++i)
        acc = acc * 1.0000001 + 1e-9;
    return acc;
}

volatile double g_sink = 0.0;

double
loopPlain(int iterations)
{
    double acc = 0.0;
    for (int i = 0; i < iterations; ++i)
        acc += workUnit(static_cast<double>(i));
    return acc;
}

double
loopWithSpanSites(int iterations)
{
    double acc = 0.0;
    for (int i = 0; i < iterations; ++i) {
        TWOCS_OBS_SPAN(obs::Category::Bench, "obs-overhead-unit");
        acc += workUnit(static_cast<double>(i));
    }
    return acc;
}

/** Wall time of one `fn(iterations)` call in seconds. */
template <typename Fn>
double
seconds(Fn fn, int iterations)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    g_sink = g_sink + fn(iterations);
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
main()
{
    bench::banner("obs overhead",
                  "disabled span sites must cost < 1% of a hot loop");

    obs::Tracer::disable();
    const int iterations = 5000;
    const int pairs = 401;
    const double limit = 1.01;

    std::vector<double> ratios(pairs);
    for (int i = 0; i < pairs; ++i) {
        double plain = 0.0, with_spans = 0.0;
        if (i % 2 == 0) {
            plain = seconds(loopPlain, iterations);
            with_spans = seconds(loopWithSpanSites, iterations);
        } else {
            with_spans = seconds(loopWithSpanSites, iterations);
            plain = seconds(loopPlain, iterations);
        }
        ratios[static_cast<std::size_t>(i)] = with_spans / plain;
    }
    std::sort(ratios.begin(), ratios.end());
    const double ratio = ratios[pairs / 2];
    std::printf("%d pairs of %d units: median ratio %.4f "
                "(quartiles %.4f, %.4f)\n",
                pairs, iterations, ratio, ratios[pairs / 4],
                ratios[3 * pairs / 4]);

    const bool ok = bench::checkClaim(
        "runtime-disabled span sites add < 1% to a hot loop",
        ratio < limit);
    if (!ok) {
        std::fprintf(stderr,
                     "error: disabled-tracing overhead %.2f%% exceeds "
                     "the 1%% contract\n",
                     (ratio - 1.0) * 100.0);
        return 1;
    }
    return 0;
}
