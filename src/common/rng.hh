/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in TaskPoint (workload synthesis, noise
 * injection, scheduling tie-breaks) flows through Rng so that every
 * experiment is exactly reproducible from its seed. The engine is
 * xoshiro256** (public domain, Blackman & Vigna), which is fast and has
 * no observable bias for our use cases.
 */

#ifndef TP_COMMON_RNG_HH
#define TP_COMMON_RNG_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/binary_io.hh"
#include "common/logging.hh"

namespace tp {

/** Deterministic, seedable PRNG with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * @return next raw 64-bit value.
     *
     * Defined inline: this is the innermost call of instruction
     * synthesis, and keeping it visible lets batch loops hold the
     * state words in registers instead of paying a call and a
     * state round-trip per draw.
     */
    std::uint64_t
    next()
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

    /**
     * @return the raw 53-bit draw underlying uniform01(): uniform01()
     * is exactly next53() * 2^-53, so distribution samplers can work
     * on the integer draw without any floating-point math.
     */
    std::uint64_t next53() { return next() >> 11; }

    /** @return uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        tp_assert(bound > 0);
        // Simple rejection keeps the distribution exactly uniform;
        // BoundedSampler hoists the threshold division for hot
        // fixed-bound call sites.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return uniform double in [0, 1). */
    double
    uniform01()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return standard normal variate (Box-Muller, cached spare). */
    double normal();

    /**
     * @return log-normal variate such that the *median* is `median`
     * and log-space standard deviation is `sigma`.
     */
    double logNormal(double median, double sigma);

    /** @return exponential variate with the given mean. */
    double exponential(double mean);

    /** @return true with probability p. */
    bool bernoulli(double p) { return uniform01() < p; }

    /**
     * @return Pareto-distributed variate with minimum x_m and shape
     * alpha; used for heavy-tailed task size distributions (freqmine).
     */
    double pareto(double x_m, double alpha);

    /** @return Zipf-like rank in [0, n) with exponent s. */
    std::uint64_t zipf(std::uint64_t n, double s);

    /**
     * Serialize the full generator state (stream position). A
     * restored Rng produces the exact draw sequence the saved one
     * would have — required for warm-state checkpoints.
     */
    void
    state(StateIo &io)
    {
        io.block(state_);
        io.pod(spareNormal_);
        io.flag(hasSpare_);
    }

    /**
     * Smallest integer T such that `next53() < T` is equivalent to
     * `uniform01() < p` — i.e. T = ceil(p * 2^53), computed exactly.
     *
     * uniform01() returns k * 2^-53 with k = next53() ∈ [0, 2^53), and
     * both k * 2^-53 and p * 2^53 are exact in double precision (the
     * scalings only shift the exponent), so `k * 2^-53 < p` holds iff
     * `k < ceil(p * 2^53)`. Precomputing T turns every Bernoulli draw
     * into one integer comparison with bit-identical outcomes.
     * p <= 0 (or NaN) maps to 0 (never), p >= 1 to 2^53 (always).
     */
    static std::uint64_t bernoulliThreshold(double p);

    /**
     * Precomputed Bernoulli(p) sampler: draw-for-draw identical to
     * `rng.uniform01() < p` (consumes exactly one next()) with the
     * comparison hoisted to integer space — see bernoulliThreshold.
     */
    class BernoulliSampler
    {
      public:
        BernoulliSampler() = default;

        explicit BernoulliSampler(double p)
            : threshold_(bernoulliThreshold(p))
        {}

        /**
         * @return true with probability p; consumes one draw from
         * any source exposing next53() (Rng or a buffered façade).
         */
        template <class Source>
        bool
        sample(Source &rng) const
        {
            return rng.next53() < threshold_;
        }

        /** @return the integer threshold (for tests). */
        std::uint64_t threshold() const { return threshold_; }

      private:
        std::uint64_t threshold_ = 0;
    };

    /**
     * Precomputed bounded-uniform sampler: draw-for-draw identical
     * to `rng.nextBounded(bound)` — same rejection threshold, same
     * draw consumption — with the two per-call divisions hoisted:
     * the rejection threshold `(0 - bound) % bound` is computed once
     * at construction, and power-of-two bounds (the common case for
     * line/word offsets and footprints) reduce the final modulo to
     * a mask.
     */
    class BoundedSampler
    {
      public:
        BoundedSampler() = default;

        explicit BoundedSampler(std::uint64_t bound)
            : bound_(bound), threshold_((0 - bound) % bound),
              mask_(std::has_single_bit(bound) ? bound - 1 : 0)
        {}

        /** @return uniform integer in [0, bound). */
        template <class Source>
        std::uint64_t
        sample(Source &rng) const
        {
            for (;;) {
                const std::uint64_t r = rng.next();
                if (r >= threshold_)
                    return mask_ != 0 ? (r & mask_) : r % bound_;
            }
        }

        /** @return the configured bound. */
        std::uint64_t bound() const { return bound_; }

      private:
        std::uint64_t bound_ = 1;
        std::uint64_t threshold_ = 0;
        std::uint64_t mask_ = 0;
    };

    /**
     * Precomputed Zipf(n, s) sampler: draw-for-draw identical to
     * `rng.zipf(n, s)` (consumes exactly one next()) with the
     * per-draw `pow(n, 1 - s)` and `1 / (1 - s)` hoisted to
     * construction; only the inverse-CDF pow with the draw-dependent
     * base remains in the hot path. Identical arithmetic on
     * identical operands, so results match Rng::zipf bit for bit.
     */
    class ZipfSampler
    {
      public:
        ZipfSampler(std::uint64_t n, double s);

        /** @return Zipf-like rank in [0, n); consumes one next(). */
        template <class Source>
        std::uint64_t
        sample(Source &rng) const
        {
            const double u = rng.uniform01();
            const double x =
                std::pow(u * hMinus1_ + 1.0, invOneMinusS_);
            std::uint64_t r = static_cast<std::uint64_t>(x) - 1;
            return r >= n_ ? n_ - 1 : r;
        }

        /** @return the rank-space size n. */
        std::uint64_t n() const { return n_; }

      private:
        std::uint64_t n_ = 1;
        double hMinus1_ = 0.0;       //!< pow(n, 1-s) - 1
        double invOneMinusS_ = 1.0;  //!< 1 / (1-s), s != 1
    };

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    double spareNormal_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace tp

#endif // TP_COMMON_RNG_HH
