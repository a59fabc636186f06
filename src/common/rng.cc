#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace tp {

namespace {

/** splitmix64 step used for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
    // Guard against the all-zero state, which xoshiro cannot escape.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 &&
        state_[3] == 0) {
        state_[0] = 0x1ULL;
    }
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform01();
    } while (u1 <= 0.0);
    const double u2 = uniform01();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586;
    spareNormal_ = mag * std::sin(two_pi * u2);
    hasSpare_ = true;
    return mag * std::cos(two_pi * u2);
}

double
Rng::logNormal(double median, double sigma)
{
    tp_assert(median > 0.0);
    return median * std::exp(sigma * normal());
}

double
Rng::exponential(double mean)
{
    tp_assert(mean > 0.0);
    double u = 0.0;
    do {
        u = uniform01();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::pareto(double x_m, double alpha)
{
    tp_assert(x_m > 0.0 && alpha > 0.0);
    double u = 0.0;
    do {
        u = uniform01();
    } while (u <= 0.0);
    return x_m / std::pow(u, 1.0 / alpha);
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    tp_assert(n > 0);
    // Inverse-CDF on a truncated harmonic approximation: accurate
    // enough for access-locality skew and O(1) per draw.
    if (s == 1.0)
        s = 1.0 + 1e-9; // avoid the harmonic singularity
    const double u = uniform01();
    const double h = std::pow(static_cast<double>(n), 1.0 - s);
    const double x = std::pow(u * (h - 1.0) + 1.0, 1.0 / (1.0 - s));
    std::uint64_t r = static_cast<std::uint64_t>(x) - 1;
    return r >= n ? n - 1 : r;
}

std::uint64_t
Rng::bernoulliThreshold(double p)
{
    constexpr double two53 = 9007199254740992.0; // 2^53
    if (!(p > 0.0))
        return 0; // p <= 0 or NaN: never
    if (p >= 1.0)
        return static_cast<std::uint64_t>(two53); // always
    // p * 2^53 only shifts p's exponent, so the product is exact and
    // ceil() yields the mathematically exact threshold.
    return static_cast<std::uint64_t>(std::ceil(p * two53));
}

Rng::ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n)
{
    tp_assert(n > 0);
    // Mirror Rng::zipf exactly, including its harmonic-singularity
    // guard, so precomputed constants equal the per-draw ones.
    if (s == 1.0)
        s = 1.0 + 1e-9;
    const double h = std::pow(static_cast<double>(n), 1.0 - s);
    hMinus1_ = h - 1.0;
    invOneMinusS_ = 1.0 / (1.0 - s);
}

} // namespace tp
