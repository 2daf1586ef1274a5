#include "rng.hh"

#include <bit>
#include <cmath>
#include <cstring>

#include "logging.hh"

// This file is built with -ffp-contract=off (util/CMakeLists.txt):
// every kernel below is a fixed sequence of IEEE-exact + - * / sqrt
// and bit operations, so its bits cannot depend on -march.

namespace twocs {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

// Two doubles (or 64-bit words) per register: SSE2 on baseline
// x86-64, NEON on aarch64, plain pairs elsewhere.
typedef double V2d __attribute__((vector_size(16)));
typedef std::uint64_t V2u __attribute__((vector_size(16)));
typedef std::int64_t V2i __attribute__((vector_size(16)));

/** 1.5 * 2^52: adding it rounds a double below 2^51 in magnitude to
 *  an integer, which then sits in the low mantissa bits. */
constexpr double kRoundMagic = 0x1.8p52;
constexpr std::uint64_t kRoundMagicBits = 0x4338000000000000ULL;

[[gnu::always_inline]] inline V2d
sqrt2(V2d x)
{
    return V2d{ std::sqrt(x[0]), std::sqrt(x[1]) };
}

/** Small integers (|k| < 2^51) to doubles, exactly. */
[[gnu::always_inline]] inline V2d
toDouble(V2i k)
{
    return std::bit_cast<V2d>(std::bit_cast<V2u>(k) + kRoundMagicBits) -
           kRoundMagic;
}

/** Rng::nextDouble() of two raw outputs: (x >> 11) * 2^-53, exact,
 *  converted as a 27-bit and a 26-bit half. */
[[gnu::always_inline]] inline V2d
toUnit(V2u x)
{
    const V2u v = x >> 11;
    const V2u exp52 = V2u{} + 0x4330000000000000ULL;
    const V2d hi = std::bit_cast<V2d>((v >> 26) | exp52) - 0x1p52;
    const V2d lo =
        std::bit_cast<V2d>((v & 0x3ffffffULL) | exp52) - 0x1p52;
    return hi * 0x1p-27 + lo * 0x1p-53;
}

/*
 * The log, sin, cos and exp kernels below follow fdlibm (e_log.c,
 * k_sin.c, k_cos.c, e_exp.c; the sin/cos kernels in their FreeBSD
 * form), made branch-free for the domains this file feeds them.
 * Their coefficients are fdlibm's:
 *
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 */

constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 3fe62e42 fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 3dea39ef 35793c76
constexpr double kInvLn2 = 1.44269504088896338700e+00; // 3ff71547 652b82fe

constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;

constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

constexpr double kP1 = 1.66666666666666019037e-01;
constexpr double kP2 = -2.77777777770155933842e-03;
constexpr double kP3 = 6.61375632143793436117e-05;
constexpr double kP4 = -1.65339022054652515390e-06;
constexpr double kP5 = 4.13813679705723846039e-08;

/**
 * log(x) for positive normal x (e_log.c). x = 2^k (1 + f) with
 * sqrt(2)/2 < 1 + f < sqrt(2); log(1 + f) = f - (hfsq - s (hfsq +
 * R(s²))) with s = f / (2 + f), which fdlibm uses when f is large
 * and which is as accurate for small f.
 */
[[gnu::always_inline]] inline V2d
logKernel(V2d x)
{
    const V2u bits = std::bit_cast<V2u>(x);
    const V2u hx = (bits >> 32) & 0xfffffULL;
    // i is 2^20 when the mantissa is past sqrt(2): halve x into range.
    const V2u i = (hx + 0x95f64ULL) & 0x100000ULL;
    const V2i k = std::bit_cast<V2i>((bits >> 52) + (i >> 20)) - 1023;
    const V2d f =
        std::bit_cast<V2d>(((hx | (i ^ 0x3ff00000ULL)) << 32) |
                           (bits & 0xffffffffULL)) -
        1.0;
    const V2d s = f / (2.0 + f);
    const V2d dk = toDouble(k);
    const V2d z = s * s;
    const V2d w = z * z;
    const V2d t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
    const V2d t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
    const V2d r = t2 + t1;
    const V2d hfsq = 0.5 * f * f;
    return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

constexpr double kPio2 = 1.57079632679489655800e+00; // 3ff921fb 54442d18

/**
 * sin(2πu) and cos(2πu) for u in [0, 1). The quadrant reduction is
 * exact: 4u = n + r with n = round(4u) and |r| <= 1/2, so 2πu = nπ/2
 * + x with x = r·π/2, rounded once. The k_sin/k_cos kernels on
 * |x| <= π/4, with no tail (y = 0), and the quadrant n finish it.
 */
[[gnu::always_inline]] inline void
sinCos2Pi(V2d u, V2d &sine, V2d &cosine)
{
    const V2d q = u * 4.0;
    const V2d shifted = q + kRoundMagic;
    const V2u n = std::bit_cast<V2u>(shifted);
    const V2d x = (q - (shifted - kRoundMagic)) * kPio2;

    const V2d z = x * x;
    const V2d w = z * z;
    const V2d sr = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
    const V2d ks = x + z * x * (kS1 + z * sr);

    const V2d cr = z * (kC1 + z * (kC2 + z * kC3)) +
                   w * w * (kC4 + z * (kC5 + z * kC6));
    const V2d hz = 0.5 * z;
    const V2d cw = 1.0 - hz;
    const V2d kc = cw + (((1.0 - cw) - hz) + z * cr);

    // Quadrant n: odd n swaps sin and cos; sin flips sign for
    // n = 2, 3 and cos for n = 1, 2.
    const V2i odd = (n & 1ULL) != 0;
    const V2d s = odd ? kc : ks;
    const V2d c = odd ? ks : kc;
    sine = std::bit_cast<V2d>(std::bit_cast<V2u>(s) ^ ((n & 2ULL) << 62));
    cosine = std::bit_cast<V2d>(std::bit_cast<V2u>(c) ^
                                (((n + 1ULL) & 2ULL) << 62));
}

/**
 * exp(x) for |x| < 600 (e_exp.c): x = k·ln2 + r with k = round(x /
 * ln2), exp(r) = 1 + r + r·c / (2 - c), then k added to the
 * exponent — the result is always normal in this domain.
 */
[[gnu::always_inline]] inline V2d
expKernel(V2d x)
{
    const V2d shifted = x * kInvLn2 + kRoundMagic;
    const V2d t = shifted - kRoundMagic;
    const V2u k = std::bit_cast<V2u>(shifted) - kRoundMagicBits;
    const V2d hi = x - t * kLn2Hi;
    const V2d lo = t * kLn2Lo;
    const V2d r = hi - lo;
    const V2d tt = r * r;
    const V2d c =
        r - tt * (kP1 + tt * (kP2 + tt * (kP3 + tt * (kP4 + tt * kP5))));
    const V2d y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    return std::bit_cast<V2d>(std::bit_cast<V2u>(y) + (k << 52));
}

/** The Box-Muller pair of uniforms (u1, u2), u1 > 0. */
[[gnu::always_inline]] inline void
boxMuller(V2d u1, V2d u2, V2d &cosine, V2d &sine)
{
    const V2d mag = sqrt2(-2.0 * logKernel(u1));
    V2d s, c;
    sinCos2Pi(u2, s, c);
    cosine = mag * c;
    sine = mag * s;
}

/** One xoshiro256** step of a lane pair; s[w] is word w. */
[[gnu::always_inline]] inline V2u
step(V2u (&s)[4])
{
    const V2u m = (s[1] << 2) + s[1]; // s1 * 5
    const V2u rot = (m << 7) | (m >> 57);
    const V2u result = (rot << 3) + rot; // * 9
    const V2u t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
    return result;
}

} // namespace

std::uint64_t
splitmixSeed(std::uint64_t seed, std::uint64_t index)
{
    // XOR the golden-ratio-spread index into the seed (rather than
    // adding, as the Rng constructor's state expansion does), then
    // run one finalizer round over the combined word.
    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
    return splitmix64(x);
}

double
noiseSigma(double rel_stddev)
{
    fatalIf(!(rel_stddev >= 0.0) || std::isinf(rel_stddev),
            "noise stddev must be finite and >= 0, got ", rel_stddev);
    const double var = rel_stddev * rel_stddev;
    fatalIf(std::isinf(var), "noise stddev ", rel_stddev,
            " is too large: its square overflows a double");
    return std::sqrt(logKernel(V2d{} + (1.0 + var))[0]);
}

Rng::State
Rng::seedState(std::uint64_t seed)
{
    State s;
    for (auto &w : s)
        w = splitmix64(seed);
    return s;
}

Rng::Rng(std::uint64_t seed) : state_(seedState(seed)) {}

Rng::Rng(const State &state) : state_(state)
{
    fatalIf(state == State{}, "an xoshiro state must not be all zero");
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::nextDouble()
{
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = nextDouble();
    const double u2 = nextDouble();
    V2d cosine, sine;
    boxMuller(V2d{} + u1, V2d{} + u2, cosine, sine);
    spare_ = sine[0];
    hasSpare_ = true;
    return cosine[0];
}

double
Rng::noiseFactor(double rel_stddev)
{
    // Log-normal with unit mean: exp(sigma*Z - sigma^2/2) where
    // sigma approximates the relative stddev for small values.
    if (rel_stddev != cachedRelStddev_) {
        cachedSigma_ = noiseSigma(rel_stddev);
        cachedRelStddev_ = rel_stddev;
    }
    if (rel_stddev == 0.0)
        return 1.0;
    const double sigma = cachedSigma_;
    return expKernel(V2d{} + (sigma * nextGaussian() -
                              0.5 * sigma * sigma))[0];
}

LaneRng::LaneRng(std::uint64_t seed, std::uint64_t first)
    : LaneRng({ Rng::seedState(splitmixSeed(seed, first)),
                Rng::seedState(splitmixSeed(seed, first + 1)),
                Rng::seedState(splitmixSeed(seed, first + 2)),
                Rng::seedState(splitmixSeed(seed, first + 3)) })
{
    static_assert(Lanes == 4, "one seeded state per lane");
}

LaneRng::LaneRng(const std::array<Rng::State, Lanes> &states)
{
    for (std::size_t l = 0; l < Lanes; ++l) {
        fatalIf(states[l] == Rng::State{},
                "an xoshiro state must not be all zero");
        for (std::size_t w = 0; w < 4; ++w)
            state_[w][l] = states[l][w];
    }
}

void
LaneRng::noiseFactors(double rel_stddev, double (&out)[Lanes])
{
    if (rel_stddev != cachedRelStddev_) {
        const double sigma = noiseSigma(rel_stddev);
        cachedRelStddev_ = rel_stddev;
        cachedSigma_ = sigma;
        cachedHalfVar_ = 0.5 * sigma * sigma;
    }
    if (rel_stddev == 0.0) {
        for (double &f : out)
            f = 1.0;
        return;
    }

    V2d z[2];
    if (hasSpare_) {
        std::memcpy(z, spare_, sizeof z);
        hasSpare_ = false;
    } else {
        V2u s[2][4];
        for (std::size_t h = 0; h < 2; ++h)
            for (std::size_t w = 0; w < 4; ++w)
                std::memcpy(&s[h][w], &state_[w][2 * h], sizeof(V2u));
        V2u x1[2] = { step(s[0]), step(s[1]) };
        // u1 == 0 happens once in 2^53 draws per lane: such a lane
        // steps again, alone, until it draws a nonzero u1.
        for (std::size_t h = 0; h < 2; ++h) {
            for (V2i zero = (x1[h] >> 11) == 0; zero[0] || zero[1];
                 zero = (x1[h] >> 11) == 0) {
                V2u fresh[4] = { s[h][0], s[h][1], s[h][2], s[h][3] };
                const V2u redrawn = step(fresh);
                for (std::size_t w = 0; w < 4; ++w)
                    s[h][w] = zero ? fresh[w] : s[h][w];
                x1[h] = zero ? redrawn : x1[h];
            }
        }
        const V2u x2[2] = { step(s[0]), step(s[1]) };
        for (std::size_t h = 0; h < 2; ++h) {
            V2d sine;
            boxMuller(toUnit(x1[h]), toUnit(x2[h]), z[h], sine);
            std::memcpy(&spare_[2 * h], &sine, sizeof sine);
            for (std::size_t w = 0; w < 4; ++w)
                std::memcpy(&state_[w][2 * h], &s[h][w], sizeof(V2u));
        }
        hasSpare_ = true;
    }
    for (std::size_t h = 0; h < 2; ++h) {
        const V2d f = expKernel(cachedSigma_ * z[h] - cachedHalfVar_);
        std::memcpy(&out[2 * h], &f, sizeof f);
    }
}

} // namespace twocs
