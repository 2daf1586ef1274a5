/**
 * @file
 * Seeded input generators. The same seed always yields the same
 * bytes; every request is valid for the service (perturb task ids
 * lie inside their configuration's graph), so any error response is
 * a program failure, not a generator one.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "core/system_config.hh"

namespace perfbench {

enum class Kind { Project, Slack, Analyze, Memory, Perturb };

inline constexpr int kNumKinds = 5;

const char *kindLabel(Kind kind);

/** One generated request line and the properties it was drawn with. */
struct Request
{
    std::string line;
    Kind kind = Kind::Project;
    bool groundTruth = false;
    bool plan3d = false;
};

/** Running tally of generated inputs' properties. */
struct InputStats
{
    std::uint64_t requests = 0;
    std::uint64_t byKind[kNumKinds] = {};
    std::uint64_t groundTruth = 0;
    std::uint64_t plan3d = 0;
    /** Hashes of the first kDistinctSample lines: a bounded sample,
     *  so the tally's memory does not grow with the program's speed. */
    static constexpr std::uint64_t kDistinctSample = 20000;
    std::vector<std::size_t> sampleHashes;

    void add(const Request &r);
    /** "requests N, distinct F, kinds project P ..., ground_truth G,
     *  3d_plan D". */
    std::string describe() const;
    double share(std::uint64_t n) const;
};

/**
 * serve-miss: a stream of pairwise-distinct `project` configurations
 * on the default system (hidden, seqlen, batch, TP, ground truth and
 * 3D plan all drawn), so every request misses the result cache.
 * Distinct by construction, in O(1) memory: each class walks its
 * configuration space through a seeded bijection (2.27M plain and
 * 54.6M 3D-plan configurations per ground-truth flag).
 */
class MissStream
{
  public:
    static constexpr double kGroundTruthShare = 0.10;
    static constexpr double kPlan3dShare = 0.20;

    explicit MissStream(std::uint64_t seed);

    Request next();

  private:
    /** A seeded affine walk over one class of configurations. */
    struct Class
    {
        std::uint64_t mul = 1, offset = 0, next = 0;
    };
    SplitMix rng_;
    Class classes_[4]; //!< by (ground truth, 3D plan)
};

/**
 * serve-zipf: a fixed pool covering every compute kind, ranked in a
 * seeded order; draw() picks ranks Zipf(s)-skewed so the head of the
 * pool repeats and the result cache serves most requests.
 */
class ZipfPool
{
  public:
    static constexpr std::size_t kSize = 2048;
    static constexpr double kSkew = 1.1;

    explicit ZipfPool(std::uint64_t seed);

    const std::vector<Request> &entries() const { return entries_; }
    /** A pool index drawn Zipf-skewed with `rng`. */
    std::size_t draw(SplitMix &rng) const;

  private:
    std::vector<Request> entries_;
    std::vector<double> cdf_;
};

/** figure-suite: the system a run's figure grids are computed on and
 *  the order of the figures inside each pass. */
struct FigurePlan
{
    twocs::core::SystemConfig system;
    std::vector<int> order; //!< a permutation of 0..kNumFigures-1
};

inline constexpr int kNumFigures = 6;

FigurePlan figurePlan(std::uint64_t seed, std::uint64_t pass);

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
