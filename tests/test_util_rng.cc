/**
 * @file
 * Tests for the portable noise sampler: LaneRng against four scalar
 * Rngs bit for bit, and both against the glibc Box-Muller formula
 * the kernels replaced, including its edge inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs {

namespace test {

/** The log-normal factor of one standard deviate through glibc. */
double
libmNoiseFactor(double z, double rel_stddev)
{
    const double sigma =
        std::sqrt(std::log(1.0 + rel_stddev * rel_stddev));
    return std::exp(sigma * z - 0.5 * sigma * sigma);
}

/** The (cos, sin) Box-Muller deviates of (u1, u2) through glibc. */
std::pair<double, double>
libmGaussians(double u1, double u2)
{
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586;
    return { mag * std::cos(two_pi * u2), mag * std::sin(two_pi * u2) };
}

/**
 * Rng's draws as they were computed before the portable kernels:
 * the same uniforms (taken from an Rng of the same state), the same
 * u1 == 0 redraw and spare, glibc's log/sin/cos/exp.
 */
class LibmRng
{
  public:
    explicit LibmRng(const Rng &uniforms) : uniforms_(uniforms) {}

    double nextGaussian()
    {
        if (hasSpare_) {
            hasSpare_ = false;
            return spare_;
        }
        double u1 = 0.0;
        while (u1 == 0.0)
            u1 = uniforms_.nextDouble();
        const auto [c, s] = libmGaussians(u1, uniforms_.nextDouble());
        spare_ = s;
        hasSpare_ = true;
        return c;
    }

    double noiseFactor(double rel_stddev)
    {
        return rel_stddev == 0.0
                   ? 1.0
                   : libmNoiseFactor(nextGaussian(), rel_stddev);
    }

  private:
    Rng uniforms_;
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace test

namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** The multiplicative inverse of an odd word mod 2^64. */
std::uint64_t
inverse(std::uint64_t a)
{
    std::uint64_t y = a;
    for (int i = 0; i < 5; ++i)
        y *= 2 - a * y;
    return y;
}

/** The state word s1 for which xoshiro256** outputs `out`. */
std::uint64_t
s1For(std::uint64_t out)
{
    const std::uint64_t rotated = out * inverse(9);
    return ((rotated >> 7) | (rotated << 57)) * inverse(5);
}

/**
 * A state whose first two outputs are `first` and `second`: a step
 * leaves s1 ^ s2 ^ s0 in s1, so s2 fixes the second output.
 */
Rng::State
stateFor(std::uint64_t first, std::uint64_t second)
{
    const std::uint64_t s0 = 0x0123456789abcdefULL;
    const std::uint64_t s1 = s1For(first);
    return { s0, s1, s1 ^ s1For(second) ^ s0, 0xfedcba9876543210ULL };
}

/** The raw output whose nextDouble() is u (a multiple of 2^-53). */
std::uint64_t
outputFor(double u)
{
    return static_cast<std::uint64_t>(u * 0x1p53) << 11;
}

double
relDiff(double a, double b)
{
    return std::abs(a - b) / std::abs(b);
}

TEST(LaneRng, LanesMatchFourScalarRngsBitForBit)
{
    // Blocks at first 0 and 4 (a 7-trial run's second block uses
    // three lanes; its fourth stream belongs to no trial). The
    // stddev changes mid-stream, and a zero stddev draws nothing.
    for (std::uint64_t first : { 0, 4 }) {
        LaneRng lanes(42, first);
        std::vector<Rng> scalar;
        for (std::size_t l = 0; l < LaneRng::Lanes; ++l)
            scalar.emplace_back(splitmixSeed(42, first + l));
        for (int i = 0; i < 2000; ++i) {
            const double rel = i % 7 == 3 ? 0.0 : i < 1000 ? 0.05 : 0.4;
            double got[LaneRng::Lanes];
            lanes.noiseFactors(rel, got);
            for (std::size_t l = 0; l < LaneRng::Lanes; ++l) {
                ASSERT_EQ(bits(got[l]), bits(scalar[l].noiseFactor(rel)))
                    << "first " << first << " lane " << l << " draw " << i;
            }
        }
    }
}

TEST(LaneRng, ZeroUniformRedrawsOnlyItsLane)
{
    // s1 == 0 makes xoshiro256** output 0, so u1 == 0: lane 2 redraws
    // once; lane 1's state {a, 0, a, b} outputs 0 twice in a row.
    const std::uint64_t a = 0x9e3779b97f4a7c15ULL;
    const std::array<Rng::State, LaneRng::Lanes> states = {
        Rng::seedState(1), Rng::State{ a, 0, a, 77 },
        Rng::State{ 5, 0, 6, 7 }, Rng::seedState(2)
    };
    {
        Rng twice(states[1]);
        EXPECT_EQ(twice.nextU64(), 0u);
        EXPECT_EQ(twice.nextU64(), 0u);
        EXPECT_NE(twice.nextU64(), 0u);
        EXPECT_EQ(Rng(states[2]).nextU64(), 0u);
    }
    LaneRng lanes(states);
    std::vector<Rng> scalar(states.begin(), states.end());
    for (int i = 0; i < 64; ++i) {
        double got[LaneRng::Lanes];
        lanes.noiseFactors(0.2, got);
        for (std::size_t l = 0; l < LaneRng::Lanes; ++l) {
            ASSERT_EQ(bits(got[l]), bits(scalar[l].noiseFactor(0.2)))
                << "lane " << l << " draw " << i;
        }
    }
}

TEST(Rng, DrawBitsArePinned)
{
    // The kernels are IEEE-exact operation sequences compiled without
    // FP contraction, so these bits may not change with the host's
    // libm, -march or the optimization level. (Contracting the kernels
    // on an FMA host changes this hash.)
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a over the bits
    Rng rng(2024);
    for (int i = 0; i < 4096; ++i) {
        for (double x : { rng.nextGaussian(), rng.noiseFactor(0.2),
                          rng.noiseFactor(1.0) }) {
            h ^= bits(x);
            h *= 0x100000001b3ULL;
        }
    }
    EXPECT_EQ(h, 0x61352a6d3b06e06bULL);
}

TEST(Rng, NoiseFactorWithinFourEpsOfLibm)
{
    // 1.2 million draws: the kernels may move only the last bits.
    for (double rel : { 0.05, 0.2, 1.0 }) {
        const Rng::State state = Rng::seedState(bits(rel));
        Rng rng(state);
        test::LibmRng libm{ Rng(state) };
        double worst = 0.0;
        for (int i = 0; i < 400000; ++i) {
            const double expected = libm.noiseFactor(rel);
            worst = std::max(worst, relDiff(rng.noiseFactor(rel), expected));
        }
        EXPECT_LE(worst, 4e-15) << "rel " << rel;
    }
}

TEST(Rng, EdgeUniformsMatchLibm)
{
    // u1 at both ends of (0, 1); u2 on every octant boundary, where
    // the quadrant reduction of 4 * u2 lands on or between integers.
    for (double u1 : { 0x1p-53, 1.0 - 0x1p-53 }) {
        double mag = -1.0;
        for (int k = 0; k < 8; ++k) {
            const double u2 = k / 8.0;
            const Rng::State state = stateFor(outputFor(u1), outputFor(u2));
            Rng probe(state);
            ASSERT_EQ(probe.nextDouble(), u1);
            ASSERT_EQ(probe.nextDouble(), u2);

            Rng rng(state);
            const double c = rng.nextGaussian();
            const double s = rng.nextGaussian();
            const auto [lc, ls] = test::libmGaussians(u1, u2);
            const double bound =
                4e-15 * std::max(1.0, std::abs(lc) + std::abs(ls));
            SCOPED_TRACE("u1 " + std::to_string(u1) + " k " +
                         std::to_string(k));
            EXPECT_NEAR(c, lc, bound);
            EXPECT_NEAR(s, ls, bound);
            // The reduction is exact: on the axes one deviate is
            // exactly zero and the other is the full magnitude.
            if (k % 2 == 0) {
                const double zero = k % 4 == 0 ? s : c;
                const double full = k % 4 == 0 ? c : s;
                EXPECT_EQ(zero, 0.0);
                EXPECT_EQ(full > 0.0, k < 4);
                if (mag < 0.0)
                    mag = std::abs(full);
                EXPECT_EQ(std::abs(full), mag);
            }

            for (double rel : { 0.05, 0.2, 1.0 }) {
                Rng factors(state);
                EXPECT_LE(relDiff(factors.noiseFactor(rel),
                                  test::libmNoiseFactor(lc, rel)),
                          4e-15);
                EXPECT_LE(relDiff(factors.noiseFactor(rel),
                                  test::libmNoiseFactor(ls, rel)),
                          4e-15);
            }
        }
    }
}

TEST(Rng, HugeStddevStaysNormalAndNearLibm)
{
    // rel = 1e150 gives sigma ~ 26.3, near the 26.6 of the largest
    // stddev whose square stays finite, so the exponent reaches about
    // -571 at the extreme uniforms. exp magnifies the exponent's
    // last-bit rounding by |y|, so the bound scales with it.
    const double rel = 1e150;
    const double sigma = noiseSigma(rel);
    EXPECT_NEAR(sigma, std::sqrt(std::log(1.0 + rel * rel)), 4e-15 * sigma);
    for (double u1 : { 0x1p-53, 0.5, 1.0 - 0x1p-53 }) {
        for (int k = 0; k < 8; ++k) {
            const Rng::State state =
                stateFor(outputFor(u1), outputFor(k / 8.0));
            Rng rng(state);
            test::LibmRng libm{ Rng(state) };
            for (int draw = 0; draw < 2; ++draw) {
                const double f = rng.noiseFactor(rel);
                const double expected = libm.noiseFactor(rel);
                const double y = std::log(expected);
                EXPECT_TRUE(std::isnormal(f)) << f;
                EXPECT_GT(y, -600.0);
                EXPECT_LE(relDiff(f, expected), 16 * 0x1p-52 * std::abs(y))
                    << "u1 " << u1 << " k " << k << " draw " << draw;
            }
        }
    }
}

TEST(Rng, RejectsStddevThatIsNotFiniteOrOverflows)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : { -0.1, std::nan(""), inf, 1e200, 1.5e154 }) {
        Rng rng(3);
        EXPECT_THROW(rng.noiseFactor(bad), FatalError) << bad;
        EXPECT_THROW(noiseSigma(bad), FatalError) << bad;
        double out[LaneRng::Lanes];
        LaneRng lanes(3, 0);
        EXPECT_THROW(lanes.noiseFactors(bad, out), FatalError) << bad;
    }
    EXPECT_EQ(noiseSigma(0.0), 0.0);
    EXPECT_TRUE(std::isfinite(noiseSigma(1.3e154)));
    EXPECT_THROW(Rng(Rng::State{}), FatalError);
}

} // namespace
} // namespace twocs
