#include "gen.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "core/case_study.hh"
#include "sim/graph.hh"

namespace perfbench {

namespace {

constexpr std::int64_t kSeqLens[] = { 512, 1024, 2048, 4096, 8192 };
constexpr int kTps[] = { 1, 2, 4, 8, 16, 32, 64 };
constexpr int kPps[] = { 2, 4 };
constexpr int kDps[] = { 2, 4, 8 };
// Zoo models whose hidden size every TP degree below divides.
const char *const kModels[] = { "BERT", "GPT-2", "Megatron-LM", "T-NLG",
                                "GPT-3" };
constexpr int kSmallTps[] = { 1, 2, 4, 8 };

template <typename T, std::size_t N>
const T &
pick(SplitMix &rng, const T (&values)[N])
{
    return values[rng.below(N)];
}

std::string
kv(const char *key, std::int64_t value)
{
    return std::string(", \"") + key + "\": " + std::to_string(value);
}

constexpr std::int64_t kMinK = 16;  // hidden = 64 * k
constexpr std::uint64_t kNumK = 2032;
constexpr std::uint64_t kNumBatch = 32;
constexpr std::uint64_t kNumPlans = 24; // pp x dp x zero

/** The `project` request for configuration `index` of its class:
 *  mixed-radix digits pick every field, so distinct indexes of one
 *  class are distinct requests, and the classes (ground truth or not,
 *  3D plan or not) never share a request. */
Request
projectRequest(std::uint64_t index, bool ground_truth, bool plan3d)
{
    const auto digit = [&index](std::uint64_t radix) {
        const std::uint64_t d = index % radix;
        index /= radix;
        return d;
    };
    const std::int64_t hidden = 64 * (kMinK + static_cast<std::int64_t>(digit(kNumK)));
    const std::int64_t seq_len = kSeqLens[digit(std::size(kSeqLens))];
    const auto batch = static_cast<std::int64_t>(1 + digit(kNumBatch));
    const int tp = kTps[digit(std::size(kTps))];

    Request r;
    r.kind = Kind::Project;
    r.groundTruth = ground_truth;
    r.plan3d = plan3d;
    r.line = "{\"kind\": \"project\"" + kv("hidden", hidden) +
             kv("seqlen", seq_len) + kv("batch", batch);
    if (plan3d) {
        const int pp = kPps[digit(std::size(kPps))];
        const int dp = kDps[digit(std::size(kDps))];
        const std::uint64_t zero = digit(4);
        r.line += ", \"parallel\": {\"tp\": " + std::to_string(tp) +
                  ", \"pp\": " + std::to_string(pp) +
                  ", \"dp\": " + std::to_string(dp) +
                  ", \"zero\": " + std::to_string(zero) + "}";
    } else {
        r.line += kv("tp", tp);
    }
    if (ground_truth)
        r.line += ", \"ground_truth\": true";
    r.line += "}";
    return r;
}

/** Configurations in a class (every digit's radix multiplied). */
std::uint64_t
classSize(bool plan3d)
{
    const std::uint64_t plain =
        kNumK * std::size(kSeqLens) * kNumBatch * std::size(kTps);
    return plan3d ? plain * kNumPlans : plain;
}

/** A random `project` request (the serve-zipf pool's). */
Request
projectRequest(SplitMix &rng, bool ground_truth)
{
    const bool plan3d = rng.chance(MissStream::kPlan3dShare);
    return projectRequest(rng.below(classSize(plan3d)), ground_truth, plan3d);
}

struct PerturbShape
{
    std::int64_t hidden, seqLen;
    int tp, dp;
    std::int64_t tasks;
};

/** Task counts come from the configuration's own graph, so every
 *  generated task id is in range whatever the graph builder emits. */
std::vector<PerturbShape>
perturbShapes()
{
    std::vector<PerturbShape> shapes = { { 8192, 2048, 16, 4, 0 },
                                         { 8192, 2048, 8, 2, 0 } };
    const twocs::core::CaseStudy study;
    for (PerturbShape &s : shapes) {
        twocs::core::CaseStudyConfig cfg;
        cfg.hidden = s.hidden;
        cfg.seqLen = s.seqLen;
        cfg.batch = 1;
        cfg.tpDegree = s.tp;
        cfg.dpDegree = s.dp;
        s.tasks = static_cast<std::int64_t>(
            study.compileGraph(cfg)->numTasks());
    }
    return shapes;
}

} // namespace

const char *
kindLabel(Kind kind)
{
    switch (kind) {
      case Kind::Project:
        return "project";
      case Kind::Slack:
        return "slack";
      case Kind::Analyze:
        return "analyze";
      case Kind::Memory:
        return "memory";
      case Kind::Perturb:
        return "perturb";
    }
    return "?";
}

void
InputStats::add(const Request &r)
{
    ++requests;
    ++byKind[static_cast<int>(r.kind)];
    groundTruth += r.groundTruth ? 1 : 0;
    plan3d += r.plan3d ? 1 : 0;
    if (requests <= kDistinctSample)
        sampleHashes.push_back(std::hash<std::string>{}(r.line));
}

double
InputStats::share(std::uint64_t n) const
{
    return requests == 0 ? 0.0
                         : static_cast<double>(n) /
                               static_cast<double>(requests);
}

std::string
InputStats::describe() const
{
    std::vector<std::size_t> hashes = sampleHashes;
    std::sort(hashes.begin(), hashes.end());
    const auto distinct = static_cast<double>(
        std::unique(hashes.begin(), hashes.end()) - hashes.begin());
    std::string out = "inputs: requests " + std::to_string(requests) +
                      ", distinct_share " +
                      fmt(distinct / static_cast<double>(std::max<std::size_t>(
                                         hashes.size(), 1))) +
                      " (of the first " + std::to_string(kDistinctSample) + ")" +
                      ", kinds";
    for (int k = 0; k < kNumKinds; ++k) {
        out += std::string(" ") + kindLabel(static_cast<Kind>(k)) + " " +
               fmt(share(byKind[k]));
    }
    out += ", ground_truth_share " + fmt(share(groundTruth)) +
           ", plan3d_share " + fmt(share(plan3d));
    return out;
}

MissStream::MissStream(std::uint64_t seed) : rng_(seed)
{
    for (int c = 0; c < 4; ++c) {
        const std::uint64_t n = classSize(c & 1);
        // An odd multiplier that shares no factor with n walks every
        // index of the class exactly once: an affine bijection.
        std::uint64_t a = rng_.next() | 1;
        while (std::gcd(a % n, n) != 1)
            a += 2;
        classes_[c] = { a % n, rng_.below(n), 0 };
    }
}

Request
MissStream::next()
{
    const bool ground_truth = rng_.chance(kGroundTruthShare);
    const bool plan3d = rng_.chance(kPlan3dShare);
    Class &c = classes_[(ground_truth ? 2 : 0) + (plan3d ? 1 : 0)];
    const std::uint64_t n = classSize(plan3d);
    const auto wide = static_cast<unsigned __int128>(c.mul) * (c.next++ % n);
    const auto index = static_cast<std::uint64_t>((wide + c.offset) % n);
    return projectRequest(index, ground_truth, plan3d);
}

ZipfPool::ZipfPool(std::uint64_t seed)
{
    SplitMix rng(seed ^ 0x5a1ff00dull);
    const std::vector<PerturbShape> shapes = perturbShapes();
    entries_.reserve(kSize);
    for (std::size_t i = 0; i < kSize; ++i) {
        const double u = rng.unit();
        Request r;
        if (u < 0.40) {
            r = projectRequest(rng, false);
        } else if (u < 0.50) {
            r = projectRequest(rng, true);
        } else if (u < 0.65) {
            r.kind = Kind::Slack;
            r.line = "{\"kind\": \"slack\"" +
                     kv("hidden", 64 * (kMinK + static_cast<std::int64_t>(
                                                   rng.below(kNumK)))) +
                     kv("seqlen", pick(rng, kSeqLens)) +
                     kv("batch", 1 + static_cast<std::int64_t>(rng.below(8))) +
                     "}";
        } else if (u < 0.75) {
            r.kind = Kind::Analyze;
            r.line = std::string("{\"kind\": \"analyze\", \"model\": \"") +
                     pick(rng, kModels) + "\", \"parallel\": {\"tp\": " +
                     std::to_string(pick(rng, kSmallTps)) + ", \"dp\": " +
                     std::to_string(1 << rng.below(3)) + "}" +
                     kv("batch", 1 << rng.below(4)) + "}";
        } else if (u < 0.85) {
            r.kind = Kind::Memory;
            r.line = std::string("{\"kind\": \"memory\", \"model\": \"") +
                     pick(rng, kModels) + "\"";
            if (rng.chance(0.75))
                r.line += kv("tp", pick(rng, kSmallTps));
            r.line += "}";
        } else {
            const PerturbShape &s = shapes[rng.below(shapes.size())];
            r.kind = Kind::Perturb;
            r.line = "{\"kind\": \"perturb\"" + kv("hidden", s.hidden) +
                     kv("seqlen", s.seqLen) + kv("batch", 1) +
                     ", \"parallel\": {\"tp\": " + std::to_string(s.tp) +
                     ", \"dp\": " + std::to_string(s.dp) +
                     "}, \"perturb\": {\"task\": " +
                     std::to_string(rng.below(
                         static_cast<std::uint64_t>(s.tasks))) +
                     ", \"scale\": " +
                     std::to_string(1 + rng.below(8)) + ".5}}";
        }
        entries_.push_back(std::move(r));
    }

    cdf_.resize(kSize);
    double total = 0.0;
    for (std::size_t i = 0; i < kSize; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), kSkew);
        cdf_[i] = total;
    }
    for (double &c : cdf_)
        c /= total;
}

std::size_t
ZipfPool::draw(SplitMix &rng) const
{
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

FigurePlan
figurePlan(std::uint64_t seed, std::uint64_t pass)
{
    static constexpr double kScales[] = { 0.5, 1.0, 2.0 };
    SplitMix sys_rng(seed ^ 0xf19e5eedull);
    FigurePlan plan;
    plan.system.flopScale = pick(sys_rng, kScales);
    plan.system.bwScale = pick(sys_rng, kScales);

    SplitMix order_rng(seed * 0x9e3779b97f4a7c15ull + pass);
    for (int f = 0; f < kNumFigures; ++f)
        plan.order.push_back(f);
    for (int i = kNumFigures - 1; i > 0; --i) {
        const auto j = static_cast<int>(
            order_rng.below(static_cast<std::uint64_t>(i) + 1));
        std::swap(plan.order[i], plan.order[j]);
    }
    return plan;
}

} // namespace perfbench
