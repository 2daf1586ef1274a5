/**
 * @file
 * serve-miss (closed loop, in-process net::serveStream) and
 * serve-zipf (open loop over loopback against a net::Server), plus
 * the open-loop load client and the socket/stdin byte-identity
 * oracle they share with the net layer probe.
 */

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>

#include "net/client.hh"
#include "net/framer.hh"
#include "net/server.hh"
#include "net/stream.hh"
#include "obs/obs.hh"
#include "svc/service.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** Fixed serve-zipf load constants (README.md). Never derived per
 *  run: a faster commit must see the same offered load. The saturation
 *  is what held a 10 ms p99 on a 4-vCPU VM under 20-30% host steal
 *  (about 53k req/s held 5 ms there when the host was quiet). */
struct ZipfLoad
{
    static constexpr double kSaturationQps = 16000.0;
    static constexpr double kLoRate = 0.5 * kSaturationQps;
    static constexpr double kHiRate = 0.9 * kSaturationQps;
    /** Ladder rungs: kSaturationQps * kRungBase * kRungRatio^k. */
    static constexpr double kRungBase = 0.8;
    static constexpr double kRungRatio = 1.05;
    static constexpr int kRungs = 25;
    /** A step meets the limit when its p99 is at most this... */
    static constexpr double kP99LimitMs = 10.0;
    /** ...and the generator's p99 lag stayed under this. */
    static constexpr double kMaxGenLagMs = 1.0;
    static constexpr int kShards = 2;
    static constexpr int kConnections = 2;
};

/** Serve-zipf style open-loop result at one offered rate. */
struct OpenLoopStep
{
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    std::vector<double> latencyMs; //!< from each request's due time
    std::vector<double> lagMs;     //!< send time - due time
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t missing = 0;
    std::uint64_t errors = 0;
    bool generatorBehind = false;
    bool met = false;
};

/** One connection's request sequence and what came back, for the
 *  byte-identity oracle: a response hash, and 1 for shed or 2 for
 *  missing (those have no response to compare). */
struct ConnectionLog
{
    std::vector<std::uint32_t> poolIndex;
    std::vector<std::uint64_t> responseHash;
    std::vector<char> shed;
};

twocs::svc::ServiceOptions
serviceOptions()
{
    twocs::svc::ServiceOptions o;
    o.jobs = 1;
    return o;
}

bool
isOk(const std::string &response)
{
    return response.find("\"status\":\"ok\"") != std::string::npos;
}

/** Run `text` (newline-terminated lines) through serveStream and
 *  return the response lines. */
std::vector<std::string>
serveLines(twocs::svc::QueryService &service, const std::string &text)
{
    std::istringstream in(text);
    std::ostringstream out;
    twocs::net::serveStream(service, in, out,
                            twocs::net::LineFramer::kDefaultMaxLineBytes);
    std::vector<std::string> lines;
    std::istringstream split(out.str());
    for (std::string line; std::getline(split, line);)
        lines.push_back(std::move(line));
    return lines;
}

std::uint64_t
hashLine(const std::string &line)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : line) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

Phase
runServeMiss(const RunOptions &opts, double seconds, Report &report,
             WorkloadLayers &layers)
{
    // Set-up: service construction plus the first calibration (the
    // first request on the default system calibrates it).
    const auto set_up = [&report](double *seconds) {
        const std::string warm = std::string(kWarmLine) + "\n";
        const std::int64_t t0 = nowNs();
        auto service =
            std::make_unique<twocs::svc::QueryService>(serviceOptions());
        const std::vector<std::string> out = serveLines(*service, warm);
        *seconds = secondsSince(t0);
        if (out.size() != 1 || !isOk(out[0]))
            report.fail("serve-miss warm-up request did not answer ok");
        return service;
    };

    // Closed loop: each unit is one serveStream call over the next
    // kUnit distinct requests; generation and checking stay outside
    // the timed region.
    constexpr int kUnit = 16;
    MissStream gen(opts.seed);
    InputStats inputs;
    Phase phase;
    phase.rateUnit = "requests";
    phase.unitName = "one 16-request serveStream call";
    std::uint64_t requests = 0, failed = 0;
    double busy = 0.0;
    const std::int64_t start = nowNs();
    SetupSamples setups(start, seconds);
    CpuRotation rotation(0.1);
    rotation.maybeHop();
    double setup_s = 0.0;
    const std::unique_ptr<twocs::svc::QueryService> service = set_up(&setup_s);
    setups.add(setup_s);
    while (secondsSince(start) < seconds) {
        rotation.maybeHop();
        if (setups.due()) {
            set_up(&setup_s);
            setups.add(setup_s);
        }
        std::string text;
        for (int i = 0; i < kUnit; ++i) {
            const Request r = gen.next();
            inputs.add(r);
            text += r.line;
            text += '\n';
        }
        std::istringstream in(text);
        std::ostringstream out;
        const std::int64_t t0 = nowNs();
        twocs::net::serveStream(*service, in, out,
                                twocs::net::LineFramer::kDefaultMaxLineBytes);
        const double dt = secondsSince(t0);
        busy += dt;
        phase.unitMs.push_back(dt * 1e3);

        std::istringstream split(out.str());
        int answered = 0;
        for (std::string line; std::getline(split, line); ++answered)
            failed += isOk(line) ? 0 : 1;
        failed += answered < kUnit ? kUnit - answered : 0;
        requests += kUnit;
    }
    phase.rate = static_cast<double>(requests) / busy;
    phase.setupS = setups.median();
    phase.setupSamples = setups.count();
    report.ops(requests, failed);
    report.info(inputs.describe());
    const double hit_rate = service->metrics().hitRate();
    report.info("service: cache hit rate " + fmt(hit_rate) +
                " (every request is a distinct configuration)");
    layers.cacheHitRate = hit_rate;
    return phase;
}

namespace {

/** An open-loop load generator over persistent loopback connections,
 *  driven by one thread: request i goes to connection i mod C at its
 *  due time, and each connection's replies come back in FIFO order. */
class LoadClient
{
  public:
    LoadClient(int port, int connections)
    {
        for (int c = 0; c < connections; ++c) {
            clients_.push_back(
                std::make_unique<twocs::net::BlockingClient>(port));
            const int fd = clients_.back()->fd();
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        }
    }

    OpenLoopStep run(const ZipfPool &pool, SplitMix &rng, double rate,
                     double seconds, std::vector<ConnectionLog> *logs);

  private:
    std::vector<std::unique_ptr<twocs::net::BlockingClient>> clients_;
};

OpenLoopStep
LoadClient::run(const ZipfPool &pool, SplitMix &rng, double rate,
                double seconds, std::vector<ConnectionLog> *logs)
{
    const auto n = static_cast<std::size_t>(rate * seconds);
    std::vector<std::uint32_t> draws(n);
    for (std::uint32_t &d : draws)
        d = static_cast<std::uint32_t>(pool.draw(rng));

    struct Pending
    {
        std::int64_t due;
        std::uint32_t poolIndex;
    };
    struct Conn
    {
        int fd = -1;
        std::deque<Pending> inflight;
        std::string out, in;
        std::size_t outOff = 0;
        ConnectionLog *log = nullptr;
    };
    std::vector<Conn> conns(clients_.size());
    for (std::size_t c = 0; c < conns.size(); ++c) {
        conns[c].fd = clients_[c]->fd();
        conns[c].log = logs != nullptr ? &(*logs)[c] : nullptr;
    }

    OpenLoopStep step;
    step.offeredQps = rate;
    step.sent = n;
    const auto record = [](Conn &c, std::uint32_t index, std::uint64_t hash,
                           char shed) {
        if (c.log != nullptr) {
            c.log->poolIndex.push_back(index);
            c.log->responseHash.push_back(hash);
            c.log->shed.push_back(shed);
        }
    };

    const std::int64_t start = nowNs() + 1'000'000;
    const std::int64_t deadline =
        start + static_cast<std::int64_t>((seconds + 2.0) * 1e9);
    std::int64_t last_recv = start;
    std::size_t next = 0;
    char buf[1 << 16];
    std::vector<pollfd> pfds(conns.size());
    for (;;) {
        std::int64_t now = nowNs();
        for (; next < n; ++next) {
            const std::int64_t due = dueNs(start, next, rate);
            if (due > now)
                break;
            Conn &c = conns[next % conns.size()];
            step.lagMs.push_back(static_cast<double>(now - due) * 1e-6);
            c.out += pool.entries()[draws[next]].line;
            c.out += '\n';
            c.inflight.push_back({ due, draws[next] });
        }
        bool idle = next >= n;
        for (Conn &c : conns) {
            if (c.outOff < c.out.size()) {
                const ssize_t w = ::write(c.fd, c.out.data() + c.outOff,
                                          c.out.size() - c.outOff);
                if (w > 0)
                    c.outOff += static_cast<std::size_t>(w);
                if (c.outOff == c.out.size()) {
                    c.out.clear();
                    c.outOff = 0;
                }
            }
            for (ssize_t r; (r = ::read(c.fd, buf, sizeof buf)) > 0;)
                c.in.append(buf, static_cast<std::size_t>(r));
            now = nowNs();
            std::size_t pos = 0;
            for (std::size_t nl;
                 (nl = c.in.find('\n', pos)) != std::string::npos;
                 pos = nl + 1) {
                const std::string line = c.in.substr(pos, nl - pos);
                if (c.inflight.empty()) {
                    ++step.errors; // a reply nobody asked for
                    continue;
                }
                const Pending p = c.inflight.front();
                c.inflight.pop_front();
                last_recv = now;
                if (line.find("\"overloaded\"") != std::string::npos) {
                    ++step.shed;
                    record(c, p.poolIndex, 0, 1);
                    continue;
                }
                step.latencyMs.push_back(static_cast<double>(now - p.due) *
                                         1e-6);
                if (isOk(line))
                    ++step.ok;
                else
                    ++step.errors;
                record(c, p.poolIndex, hashLine(line), 0);
            }
            c.in.erase(0, pos);
            idle = idle && c.inflight.empty() && c.out.empty();
        }
        if (idle)
            break;
        if (now > deadline) {
            for (Conn &c : conns) {
                step.missing += c.inflight.size();
                for (const Pending &p : c.inflight)
                    record(c, p.poolIndex, 0, 2);
            }
            for (; next < n; ++next) {
                ++step.missing;
                record(conns[next % conns.size()], draws[next], 0, 2);
            }
            break;
        }

        std::int64_t wait_ns = 1'000'000;
        if (next < n)
            wait_ns = std::min(wait_ns, dueNs(start, next, rate) - nowNs());
        if (wait_ns > 0) {
            for (std::size_t c = 0; c < conns.size(); ++c) {
                pfds[c] = { conns[c].fd,
                            static_cast<short>(
                                POLLIN | (conns[c].out.empty() ? 0 : POLLOUT)),
                            0 };
            }
            const timespec ts{ 0, static_cast<long>(wait_ns) };
            ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        }
    }

    const double span = static_cast<double>(last_recv - start) * 1e-9;
    step.achievedQps = span > 0.0 ? static_cast<double>(step.ok) / span : 0.0;

    const Summary lat = summarize(step.latencyMs, 0.99);
    const Summary lag = summarize(step.lagMs, 0.99);
    step.generatorBehind = lag.tail > ZipfLoad::kMaxGenLagMs;
    // A growing backlog shows as the last tenth of the step running
    // over the limit even when the step's p99 has not caught up yet.
    bool backlog = false;
    if (step.latencyMs.size() >= 10) {
        std::vector<double> tail_part(
            step.latencyMs.end() -
                static_cast<std::ptrdiff_t>(step.latencyMs.size() / 10),
            step.latencyMs.end());
        backlog = median(tail_part) > ZipfLoad::kP99LimitMs;
    }
    step.met = step.shed == 0 && step.missing == 0 && step.errors == 0 &&
               !step.generatorBehind && !backlog &&
               lat.tail <= ZipfLoad::kP99LimitMs;
    return step;
}

std::uint64_t
checkAgainstServeStream(const ZipfPool &pool,
                        const std::vector<ConnectionLog> &logs)
{
    constexpr std::size_t kChunk = 4096;
    std::uint64_t mismatches = 0;
    for (const ConnectionLog &log : logs) {
        twocs::svc::QueryService service(serviceOptions());
        for (std::size_t begin = 0; begin < log.poolIndex.size();
             begin += kChunk) {
            const std::size_t end =
                std::min(begin + kChunk, log.poolIndex.size());
            std::string text;
            for (std::size_t i = begin; i < end; ++i) {
                text += pool.entries()[log.poolIndex[i]].line;
                text += '\n';
            }
            const std::vector<std::string> out = serveLines(service, text);
            if (out.size() != end - begin) {
                mismatches += end - begin;
                continue;
            }
            for (std::size_t i = begin; i < end; ++i) {
                if (log.shed[i] == 0 &&
                    hashLine(out[i - begin]) != log.responseHash[i])
                    ++mismatches;
            }
        }
    }
    return mismatches;
}

/** One server under test plus the set-up time of getting it to its
 *  first calibrated answer. */
struct ServerUnderTest
{
    std::unique_ptr<twocs::net::Server> server;
    double setupS = 0.0;
    bool ok = false;      //!< the warm-up request answered ok
    bool stopped = false;

    ServerUnderTest()
    {
        const std::int64_t t0 = nowNs();
        twocs::net::ServerOptions o;
        o.port = 0;
        o.shards = ZipfLoad::kShards;
        o.service = serviceOptions();
        server = std::make_unique<twocs::net::Server>(o);
        server->start();
        twocs::net::BlockingClient client(server->port());
        client.sendLine(kWarmLine);
        std::string reply;
        client.recvLine(reply);
        setupS = secondsSince(t0);
        ok = isOk(reply);
    }

    ~ServerUnderTest() { stop(); }
    ServerUnderTest(const ServerUnderTest &) = delete;
    ServerUnderTest &operator=(const ServerUnderTest &) = delete;

    void stop()
    {
        if (server && !stopped) {
            server->stop();
            server->join();
            stopped = true;
        }
    }
};

} // namespace

Phase
runServeZipf(const RunOptions &opts, double seconds, Report &report,
             WorkloadLayers &layers)
{
    const ZipfPool pool(opts.seed);
    std::vector<double> setups;
    std::unique_ptr<ServerUnderTest> sut;
    for (int i = 0; i < 5; ++i) {
        sut.reset();
        sut = std::make_unique<ServerUnderTest>();
        setups.push_back(sut->setupS);
        if (!sut->ok)
            report.fail("serve-zipf warm-up request did not answer ok");
    }

    LoadClient client(sut->server->port(), ZipfLoad::kConnections);
    std::vector<ConnectionLog> logs(ZipfLoad::kConnections);
    SplitMix rng(opts.seed);
    InputStats inputs;
    std::uint64_t counted = 0, counted_failed = 0;
    const auto count = [&](const OpenLoopStep &s) {
        counted += s.sent;
        counted_failed += s.shed + s.missing + s.errors;
    };

    // Untimed warm-up: the pool's head once, at a gentle rate, so both
    // shards have calibrated and the hottest keys are resident.
    count(client.run(pool, rng, ZipfLoad::kLoRate / 4, 0.25, &logs));

    const double step_s = seconds / 8.0;
    auto run_step = [&](double rate) {
        OpenLoopStep s = client.run(pool, rng, rate, step_s, &logs);
        report.info("step " + fmt(rate) + " req/s offered: achieved " +
                    fmt(s.achievedQps) + ", " +
                    describe("latency", summarize(s.latencyMs), "ms") +
                    ", gen_lag p99 " + fmt(summarize(s.lagMs).tail) +
                    " ms, shed " + std::to_string(s.shed) + ", missing " +
                    std::to_string(s.missing) + (s.met ? ", met" : ", NOT met"));
        return s;
    };
    const OpenLoopStep lo = run_step(ZipfLoad::kLoRate);
    const OpenLoopStep hi = run_step(ZipfLoad::kHiRate);
    count(lo);
    count(hi);

    // Highest met rung of the fixed ladder, by bisection (the ladder
    // is monotone: a rate above an unmet rung is not met either).
    double best_achieved = hi.met ? hi.achievedQps : lo.achievedQps;
    double best_offered = hi.met ? hi.offeredQps : lo.offeredQps;
    int lo_i = 0, hi_i = ZipfLoad::kRungs - 1;
    std::uint64_t ladder_sheds = 0, ladder_sent = 0;
    while (lo_i <= hi_i) {
        const int mid = (lo_i + hi_i) / 2;
        double rung = ZipfLoad::kSaturationQps * ZipfLoad::kRungBase;
        for (int k = 0; k < mid; ++k)
            rung *= ZipfLoad::kRungRatio;
        const OpenLoopStep s = run_step(rung);
        ladder_sheds += s.shed;
        ladder_sent += s.sent;
        if (s.errors > 0) {
            counted += s.errors;
            counted_failed += s.errors;
        }
        if (s.met) {
            count(s);
            if (rung > best_offered) {
                best_offered = rung;
                best_achieved = s.achievedQps;
            }
            lo_i = mid + 1;
        } else {
            hi_i = mid - 1;
        }
    }

    sut->stop();
    const twocs::net::ServerStats stats = sut->server->stats();
    const double hit_rate = sut->server->aggregatedMetrics().hitRate();

    // Properties of what was sent, from the connection logs.
    for (const ConnectionLog &log : logs) {
        for (const std::uint32_t i : log.poolIndex)
            inputs.add(pool.entries()[i]);
    }
    const std::uint64_t mismatches = checkAgainstServeStream(pool, logs);
    if (mismatches > 0) {
        report.fail(std::to_string(mismatches) +
                    " socket responses differ from net::serveStream");
        counted_failed += mismatches;
    }
    report.ops(counted, counted_failed);

    report.info(inputs.describe());
    report.info("server: cache hit rate " + fmt(hit_rate) + ", requests " +
                std::to_string(stats.requests) + ", sheds " +
                std::to_string(stats.sheds) + " (ladder probes: " +
                std::to_string(ladder_sheds) + " of " +
                std::to_string(ladder_sent) + "), read pauses " +
                std::to_string(stats.readPauses));
    report.info("lo_p50_ms " + fmt(summarize(lo.latencyMs).median) +
                ", lo_p99_ms " + fmt(summarize(lo.latencyMs).tail) +
                ", hi_p50_ms " + fmt(summarize(hi.latencyMs).median) +
                ", hi_p99_ms " + fmt(summarize(hi.latencyMs).tail) +
                ", max_rate_qps " + fmt(best_offered) + " (achieved " +
                fmt(best_achieved) + ")");

    layers.cacheHitRate = hit_rate;
    layers.shedFrac = stats.requests == 0
                          ? 0.0
                          : static_cast<double>(stats.sheds) /
                                static_cast<double>(stats.requests);
    layers.readPauses = static_cast<double>(stats.readPauses);
    layers.genLagMs = summarize(hi.lagMs).tail;

    Phase phase;
    phase.setupS = median(setups);
    phase.setupSamples = setups.size();
    phase.rate = best_achieved;
    phase.rateUnit = "requests (highest met ladder rung)";
    phase.unitMs = hi.latencyMs;
    phase.unitName = "one request at the high offered rate, from its due time";
    return phase;
}

NetProbe
runNetProbe(std::uint64_t seed, double seconds)
{
    const ZipfPool pool(seed);
    NetProbe probe;
    std::vector<ConnectionLog> warm_log(1), log(1);
    OpenLoopStep step;
    {
        ServerUnderTest sut;
        LoadClient client(sut.server->port(), 1);
        SplitMix rng(seed ^ 0x9e7ull);
        client.run(pool, rng, ZipfLoad::kLoRate / 4, 0.25, &warm_log);
        twocs::obs::Span span(twocs::obs::Category::Bench, "bench.net.lo_rate");
        step = client.run(pool, rng, ZipfLoad::kLoRate, seconds, &log);
        sut.stop();
        const twocs::net::ServerStats stats = sut.server->stats();
        probe.shedFrac = stats.requests == 0
                             ? 0.0
                             : static_cast<double>(stats.sheds) /
                                   static_cast<double>(stats.requests);
        probe.readPauses = static_cast<double>(stats.readPauses);
    }
    probe.rttUs = mean(step.latencyMs) * 1e3;
    probe.genLagMs = summarize(step.lagMs).tail;
    probe.requests = step.sent;
    probe.failed = step.shed + step.missing + step.errors;

    // The same lines in the same order through QueryService::handle
    // (first sight misses, repeats hit, as on the shards): what is left
    // of the round trip is the socket, the event loop and the mailbox.
    twocs::svc::QueryService service(serviceOptions());
    service.handle(kWarmLine);
    for (const std::uint32_t i : warm_log[0].poolIndex)
        service.handle(pool.entries()[i].line);
    std::vector<double> handle_us;
    for (const std::uint32_t i : log[0].poolIndex) {
        twocs::obs::Span span(twocs::obs::Category::Bench, "bench.svc.handle");
        const std::int64_t t0 = nowNs();
        service.handle(pool.entries()[i].line);
        handle_us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    probe.handleUs = mean(handle_us);
    probe.mismatches = checkAgainstServeStream(pool, log) +
                       checkAgainstServeStream(pool, warm_log);
    return probe;
}

} // namespace perfbench
