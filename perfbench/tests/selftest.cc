/**
 * @file
 * Self-tests of the benchmark's own machinery: seeded generators are
 * reproducible and emit only valid requests, the percentile helper
 * picks the highest level with at least ten samples beyond it, and the
 * open-loop due times are exact. Run via `python3 perfbench/run.py
 * --selftest`; exits non-zero on the first failed check.
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>

#include "common.hh"
#include "core/case_study.hh"
#include "gen.hh"
#include "sim/graph.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

bool
answersOk(twocs::svc::QueryService &service, const std::string &line)
{
    return service.handle(line).find("\"status\":\"ok\"") !=
           std::string::npos;
}

void
generatorsAreSeeded()
{
    // Generated requests must be valid: the service answers each one.
    twocs::svc::ServiceOptions options;
    options.jobs = 1;
    twocs::svc::QueryService service(options);

    MissStream a(42), b(42), c(43);
    std::set<std::string> keys;
    bool differs = false;
    for (int i = 0; i < 2000; ++i) {
        const Request ra = a.next(), rb = b.next(), rc = c.next();
        check(ra.line == rb.line, "MissStream repeats for one seed");
        differs = differs || ra.line != rc.line;
        const twocs::svc::Query q = twocs::svc::parseQuery(ra.line);
        check(q.kind == twocs::svc::QueryKind::Project,
              "serve-miss requests are project queries");
        check(keys.insert(twocs::svc::canonicalKey(q)).second,
              "serve-miss canonical keys are distinct: " + ra.line);
        check(answersOk(service, ra.line), "serve-miss request answered: " + ra.line);
    }
    check(differs, "MissStream differs across seeds");

    const ZipfPool p(42), p2(42), p3(43);
    check(p.entries().size() == ZipfPool::kSize, "pool size");
    bool pool_differs = false;
    int kinds[kNumKinds] = {};
    for (std::size_t i = 0; i < p.entries().size(); ++i) {
        check(p.entries()[i].line == p2.entries()[i].line,
              "ZipfPool repeats for one seed");
        pool_differs = pool_differs || p.entries()[i].line != p3.entries()[i].line;
        ++kinds[static_cast<int>(p.entries()[i].kind)];
    }
    check(pool_differs, "ZipfPool differs across seeds");
    for (int k = 0; k < kNumKinds; ++k)
        check(kinds[k] > 0, std::string("pool covers kind ") +
                                kindLabel(static_cast<Kind>(k)));

    SplitMix r1(9), r2(9);
    std::size_t head = 0;
    for (int i = 0; i < 10000; ++i) {
        const std::size_t d = p.draw(r1);
        check(d == p.draw(r2), "Zipf draws repeat for one seed");
        check(d < p.entries().size(), "Zipf draw in range");
        head += d < 16 ? 1 : 0;
    }
    check(head > 3000, "Zipf(1.1) draws favour the head of the pool");

    // Every pool request is answered, and perturb task ids lie inside
    // the graph of the configuration they name.
    const twocs::core::CaseStudy study;
    for (const Request &r : p.entries()) {
        const twocs::svc::Query q = twocs::svc::parseQuery(r.line);
        check(answersOk(service, r.line), "pool request answered: " + r.line);
        if (r.kind != Kind::Perturb)
            continue;
        twocs::core::CaseStudyConfig cfg;
        cfg.hidden = q.hidden;
        cfg.seqLen = q.seqLen;
        cfg.batch = q.batch;
        cfg.tpDegree = q.tpDegree;
        cfg.dpDegree = q.dpDegree;
        check(q.perturbTask <
                  static_cast<std::int64_t>(study.compileGraph(cfg)->numTasks()),
              "perturb task inside its graph: " + r.line);
    }

    const FigurePlan f1 = figurePlan(5, 3), f2 = figurePlan(5, 3);
    check(f1.order == f2.order && f1.system.flopScale == f2.system.flopScale,
          "figurePlan repeats for one seed and pass");
    std::set<int> figs(f1.order.begin(), f1.order.end());
    check(figs.size() == kNumFigures, "figure order is a permutation");
}

void
percentilesPickTheHighestSupportedLevel()
{
    check(tailLevel(1000) == 0.99, "1000 samples: p99 has 10 beyond");
    check(tailLevel(999) == 0.95, "999 samples: p99 has 9 beyond");
    check(tailLevel(200) == 0.95, "200 samples: p95 has 10 beyond");
    check(tailLevel(199) == 0.90, "199 samples: p95 has 9 beyond");
    check(tailLevel(5000, 0.95) == 0.95, "the cap bounds the level");
    check(tailLevel(15) == 0.5, "too few samples fall back to the median");

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Summary s = summarize(v);
    check(s.count == 100 && s.median == 50.0, "median of 1..100");
    check(s.tailLevel == 0.90 && s.tail == 90.0, "p90 of 1..100");
}

void
dueTimesAreExact()
{
    check(dueNs(1000, 0, 2000.0) == 1000, "request 0 is due at the start");
    check(dueNs(0, 3, 2000.0) == 1'500'000, "3 requests at 2000/s: 1.5 ms");
    check(dueNs(0, 1, 3.0) == 333'333'333, "1/3 s rounds to the nearest ns");
    check(dueNs(0, 3, 3.0) == 1'000'000'000, "no drift: 3 at 3/s is 1 s");
    check(dueNs(0, 10'000'000, 1e6) == 10'000'000'000,
          "computed from the index, never accumulated");
}

} // namespace

int
main()
{
    generatorsAreSeeded();
    percentilesPickTheHighestSupportedLevel();
    dueTimesAreExact();
    if (failures == 0)
        std::cout << "selftest: all checks passed\n";
    return failures == 0 ? 0 : 1;
}
