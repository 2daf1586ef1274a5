/**
 * @file
 * A small deterministic PRNG (xoshiro256**) for the places the
 * library deliberately injects randomness (measurement-noise
 * modelling). Seeded explicitly everywhere — the simulator itself
 * stays bit-reproducible.
 *
 * Gaussian and log-normal draws go through one portable sampler:
 * fdlibm-style log, sincos(2πu) and exp kernels written on a
 * two-double vector and built without FP contraction, so a draw's
 * bits depend neither on the host's libm nor on -march. Rng runs
 * them on one lane; LaneRng runs four streams in lockstep, each lane
 * reproducing a scalar Rng draw for draw.
 */

#ifndef TWOCS_UTIL_RNG_HH
#define TWOCS_UTIL_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace twocs {

/**
 * Derive an independent stream seed from a base seed and a stream
 * index via a splitmix64 finalizer mix of the pair. Adjacent base
 * seeds with `seed + i` style derivation produce almost entirely
 * overlapping stream families (base s, stream 1 == base s+1,
 * stream 0); this mix decorrelates both axes. The mix is distinct
 * from Rng's own state expansion, so splitmixSeed(s, 0) does not
 * collide with any internal Rng(s) state word.
 */
std::uint64_t splitmixSeed(std::uint64_t seed, std::uint64_t index);

/**
 * The sigma of noiseFactor()'s log-normal, sqrt(log(1 + rel²)),
 * through the portable log kernel. Fatal unless rel_stddev is a
 * finite number >= 0 whose square does not overflow — which also
 * keeps every noiseFactor() exponent within |y| < 600.
 */
double noiseSigma(double rel_stddev);

/** xoshiro256** with splitmix64 seeding. */
class Rng
{
  public:
    using State = std::array<std::uint64_t, 4>;

    explicit Rng(std::uint64_t seed);

    /** Resume from a raw xoshiro state (not all zero), e.g. to pin
     *  an edge draw in a test. */
    explicit Rng(const State &state);

    /** The splitmix64 expansion Rng(seed) starts from. */
    static State seedState(std::uint64_t seed);

    /** Uniform 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Standard normal deviate (Box-Muller). */
    double nextGaussian();

    /**
     * Log-normal multiplicative noise factor with the given relative
     * standard deviation; mean 1. rel_stddev == 0 returns exactly 1
     * without drawing. Fatal for a stddev noiseSigma() rejects.
     */
    double noiseFactor(double rel_stddev);

  private:
    State state_;
    bool hasSpare_ = false;
    double spare_ = 0.0;
    /** noiseFactor()'s derived sigma, cached per rel_stddev: almost
     *  every caller uses one stddev for a whole study. */
    double cachedRelStddev_ = -1.0;
    double cachedSigma_ = 0.0;
};

/**
 * Four Rng streams drawn in lockstep on the same kernels. Lane l of
 * LaneRng(seed, first) is Rng(splitmixSeed(seed, first + l)), and
 * each noiseFactors() call returns, per lane, exactly the bits that
 * lane's Rng::noiseFactor() would: the lanes share one Box-Muller
 * spare, and a lane whose first uniform is 0 redraws alone, as the
 * scalar loop does.
 */
class LaneRng
{
  public:
    static constexpr std::size_t Lanes = 4;

    LaneRng(std::uint64_t seed, std::uint64_t first);

    /** Lane l resumes from states[l] (see Rng(const State &)). */
    explicit LaneRng(const std::array<Rng::State, Lanes> &states);

    /** One noiseFactor(rel_stddev) per lane. */
    void noiseFactors(double rel_stddev, double (&out)[Lanes]);

  private:
    /** Word-major: state_[w][l] is word w of lane l's state, so one
     *  16-byte load holds a word of a lane pair. */
    alignas(16) std::uint64_t state_[4][Lanes] = {};
    alignas(16) double spare_[Lanes] = {};
    bool hasSpare_ = false;
    double cachedRelStddev_ = -1.0;
    double cachedSigma_ = 0.0;
    double cachedHalfVar_ = 0.0;
};

} // namespace twocs

#endif // TWOCS_UTIL_RNG_HH
