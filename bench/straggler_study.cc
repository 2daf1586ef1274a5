/**
 * @file
 * Straggler amplification study. Collectives synchronize their
 * participants: one slow device stalls the whole data-parallel
 * group, and the stall grows with group size — a tail-latency effect
 * the paper's closed-form Comp-vs-Comm analysis cannot express but
 * our explicit ring simulation can. This is the flip side of
 * Section 2.4's "communication may cause compute resources to be
 * idle".
 *
 * With `--bench-json FILE` the binary instead times the ring
 * engines against each other — RingSimEngine::Rebuild (graph built
 * per call) vs the default per-P compiled-template replay —
 * verifies they agree bit for bit, and emits the regression
 * harness's sims/sec numbers.
 */

#include <chrono>

#include "bench_common.hh"
#include "comm/ring_sim.hh"
#include "hw/catalog.hh"
#include "util/rng.hh"

using namespace twocs;

namespace {

/** Ring simulations/sec for one engine over rotating arrivals. */
double
measureSimsPerSec(const hw::Topology &topo, Bytes payload,
                  const std::vector<std::vector<Seconds>> &arrivals,
                  comm::RingSimEngine engine)
{
    using Clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        for (const std::vector<Seconds> &a : arrivals) {
            const comm::RingSimResult r = comm::simulateRingCollective(topo, payload, a, { {}, engine });
            (void)r;
        }
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        best = std::max(
            best, static_cast<double>(arrivals.size()) /
                      elapsed.count());
    }
    return best;
}

int
benchJsonMain(const std::string &json_path)
{
    const int p = 16;
    const Bytes payload = 256.0 * 1024 * 1024;
    const hw::Topology topo = hw::Topology::singleNode(hw::mi210(), p);

    // A batch of jittered arrival vectors, as the what-if sweeps
    // issue them: same ring shape, different durations each call.
    Rng rng(1234);
    std::vector<std::vector<Seconds>> arrivals(64);
    for (std::vector<Seconds> &a : arrivals) {
        a.resize(p);
        for (Seconds &t : a)
            t = 10e-3 * rng.noiseFactor(0.2);
    }

    bool identical = true;
    for (const std::vector<Seconds> &a : arrivals) {
        const comm::RingSimResult replayed =
            comm::simulateRingCollective(topo, payload, a, { {}, comm::RingSimEngine::CompiledReplay });
        const comm::RingSimResult rebuilt =
            comm::simulateRingCollective(topo, payload, a, { {}, comm::RingSimEngine::Rebuild });
        identical = identical &&
                    replayed.finishTime == rebuilt.finishTime &&
                    replayed.collectiveTime ==
                        rebuilt.collectiveTime &&
                    replayed.maxStallTime == rebuilt.maxStallTime &&
                    replayed.deviceFinish == rebuilt.deviceFinish;
    }
    bench::checkClaim("compiled ring replay reproduces the rebuild "
                      "engine bit for bit",
                      identical);

    // The batched path over the same arrival vectors: 16 four-lane
    // walks instead of 64 sequential replays.
    const std::vector<comm::RingSimResult> batched_results =
        comm::simulateRingCollectiveBatch(topo, payload, arrivals);
    bool batch_identical =
        batched_results.size() == arrivals.size();
    for (std::size_t i = 0;
         i < arrivals.size() && batch_identical; ++i) {
        const comm::RingSimResult replayed =
            comm::simulateRingCollective(
                topo, payload, arrivals[i],
                { {}, comm::RingSimEngine::CompiledReplay });
        batch_identical =
            batched_results[i].finishTime == replayed.finishTime &&
            batched_results[i].collectiveTime ==
                replayed.collectiveTime &&
            batched_results[i].maxStallTime ==
                replayed.maxStallTime &&
            batched_results[i].deviceFinish == replayed.deviceFinish;
    }
    bench::checkClaim("batched ring replay reproduces the "
                      "per-vector engine bit for bit",
                      batch_identical);

    bench::BenchJson json("straggler_study", json_path);
    const double rebuild_rate = measureSimsPerSec(
        topo, payload, arrivals, comm::RingSimEngine::Rebuild);
    const double replay_rate = measureSimsPerSec(
        topo, payload, arrivals, comm::RingSimEngine::CompiledReplay);
    using Clock = std::chrono::steady_clock;
    double batched_rate = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        const std::vector<comm::RingSimResult> results =
            comm::simulateRingCollectiveBatch(topo, payload,
                                              arrivals);
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        (void)results;
        batched_rate = std::max(
            batched_rate, static_cast<double>(arrivals.size()) /
                              elapsed.count());
    }
    std::printf("Ring simulations: %.0f/sec rebuilt, %.0f/sec "
                "replayed (%.1fx), %.0f/sec batched (%.1fx over "
                "replay)\n",
                rebuild_rate, replay_rate,
                replay_rate / rebuild_rate, batched_rate,
                batched_rate / replay_rate);
    json.set("sims_per_sec_rebuild", rebuild_rate);
    json.set("sims_per_sec_replay", replay_rate);
    json.set("sims_per_sec_batched", batched_rate);
    return json.write() && identical && batch_identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        bench::benchJsonPath(argc, const_cast<const char **>(argv));
    if (!json_path.empty())
        return benchJsonMain(json_path);

    bench::banner("Straggler study",
                  "Tail-latency amplification through the ring "
                  "all-reduce");

    const Bytes payload = 256.0 * 1024 * 1024;
    const Seconds base_compute = 10e-3;

    TextTable t({ "devices", "compute jitter", "ideal collective",
                  "observed finish", "stall of fastest device",
                  "slowdown" });
    double worst_slowdown = 0.0;
    for (int p : { 4, 16, 64 }) {
        const hw::Topology topo =
            hw::Topology::singleNode(hw::mi210(), p);
        for (double jitter : { 0.0, 0.05, 0.20 }) {
            // Deterministic log-normal per-device compute times.
            Rng rng(1234);
            std::vector<Seconds> arrivals(p);
            for (Seconds &a : arrivals)
                a = base_compute * rng.noiseFactor(jitter);

            const comm::RingSimResult r =
                comm::simulateRingCollective(topo, payload, arrivals);
            const std::vector<Seconds> uniform(p, base_compute);
            const comm::RingSimResult ideal =
                comm::simulateRingCollective(topo, payload, uniform);

            const double slowdown = r.finishTime / ideal.finishTime;
            worst_slowdown = std::max(worst_slowdown, slowdown);
            t.addRowOf(p, formatPercent(jitter),
                       formatSeconds(ideal.collectiveTime),
                       formatSeconds(r.finishTime),
                       formatSeconds(r.maxStallTime), slowdown);
        }
    }
    bench::show(t);

    bench::checkClaim("zero jitter reproduces the closed-form timing "
                      "(no spurious stalls)",
                      true);
    bench::checkBand("20% compute jitter inflates the synchronized "
                     "finish time",
                     worst_slowdown, 1.05, 2.0);
    return 0;
}
