/**
 * @file
 * Descriptive statistics used throughout the evaluation harness.
 *
 * The paper reports boxplot statistics (quartiles, 5th/95th percentile
 * whiskers, outliers) for IPC variation (Figs. 1 and 5) and
 * mean/absolute errors for the sampling evaluation (Figs. 6-10).
 *
 * Variance convention
 * -------------------
 * Two divisors exist and both are offered explicitly:
 *
 *  - *population* variance divides by `n` and describes the spread of
 *    exactly the observations at hand. Use it for descriptive output
 *    (error tables, deviation spreads).
 *  - *sample* variance divides by `n - 1` (Bessel's correction) and is
 *    the unbiased estimator of the variance of the distribution the
 *    observations were drawn from. Use it for inferential math —
 *    confidence intervals, Neyman allocation, stopping rules. With the
 *    default history size H=4 the two differ by a factor 4/3 (~13% in
 *    stddev terms), which is far from negligible.
 *
 * The legacy `variance()`/`stddev()` accessors on RunningStats were
 * removed in favour of `populationVariance()`/`sampleVariance()` (and
 * the matching stddevs) precisely so every caller states which one it
 * wants. The free `stddev(vector)` stays population (descriptive use),
 * and `sampleVariance(vector)`/`sampleStddev(vector)` cover the
 * inferential case.
 *
 * Empty-input contract: every estimator here panics (throws SimError
 * via tp_assert) when given fewer observations than it needs — mean
 * and population stddev need one, sample variance needs two. Nothing
 * silently returns 0.0: a fake zero variance would read as "converged"
 * to the adaptive stopping rule.
 */

#ifndef TP_COMMON_STATISTICS_HH
#define TP_COMMON_STATISTICS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/binary_io.hh"

namespace tp {

/** Arithmetic mean; panics on an empty sample. */
double mean(const std::vector<double> &xs);

/** Population standard deviation (divisor n); panics when empty. */
double stddev(const std::vector<double> &xs);

/** Unbiased sample variance (divisor n-1); panics for n < 2. */
double sampleVariance(const std::vector<double> &xs);

/** Unbiased-variance standard deviation; panics for n < 2. */
double sampleStddev(const std::vector<double> &xs);

/** Minimum; panics on an empty sample. */
double minOf(const std::vector<double> &xs);

/** Maximum; panics on an empty sample. */
double maxOf(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile, p in [0, 100].
 *
 * Uses the same convention as numpy.percentile(..., method="linear"),
 * which the paper's matplotlib boxplots are built on.
 */
double percentile(std::vector<double> xs, double p);

/**
 * Boxplot summary as drawn in Figs. 1 and 5: solid box from the first
 * to the third quartile, whiskers from the 5th to the 95th percentile,
 * everything outside the whiskers counted as outliers.
 */
struct BoxplotStats
{
    double median = 0.0;
    double q1 = 0.0;       //!< first quartile (25th percentile)
    double q3 = 0.0;       //!< third quartile (75th percentile)
    double whiskerLo = 0.0; //!< 5th percentile
    double whiskerHi = 0.0; //!< 95th percentile
    double min = 0.0;
    double max = 0.0;
    std::size_t count = 0;
    std::size_t outliers = 0; //!< samples outside the whiskers
};

/** Compute the boxplot summary; panics on an empty sample. */
BoxplotStats boxplot(const std::vector<double> &xs);

/**
 * Normalize each sample to the mean of its group, expressed as a
 * percentage deviation: 100 * (x / groupMean - 1).
 *
 * This is the per-task-type IPC normalization the paper applies before
 * plotting Figs. 1 and 5.
 */
std::vector<double>
normalizeToMeanPct(const std::vector<double> &xs, double group_mean);

/** Relative error in percent: 100 * |value - reference| / reference. */
double absPctError(double value, double reference);

/**
 * Online mean/variance/min/max accumulator for streaming statistics.
 *
 * Internally uses Welford's algorithm: the running mean and the
 * centered sum of squares M2 = sum((x - mean)^2) are updated per
 * observation, so the variance never suffers the catastrophic
 * cancellation of the naive sumSq/n - mean^2 formula (which loses all
 * precision exactly in the IPC regime: large mean, tight spread).
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** @return number of observations. */
    std::size_t count() const { return n_; }

    /** @return running arithmetic mean (panics if empty). */
    double mean() const;

    /** @return population variance, divisor n (panics if empty). */
    double populationVariance() const;

    /** @return population standard deviation (panics if empty). */
    double populationStddev() const;

    /** @return unbiased sample variance, divisor n-1 (panics n<2). */
    double sampleVariance() const;

    /** @return unbiased-variance standard deviation (panics n<2). */
    double sampleStddev() const;

    /** @return smallest observation (panics if empty). */
    double min() const;

    /** @return largest observation (panics if empty). */
    double max() const;

    /** Serialize the accumulator state (for warm-state checkpoints). */
    void
    state(StateIo &io)
    {
        io.pod<std::uint64_t>(n_);
        io.pod(mean_);
        io.pod(m2_);
        io.pod(min_);
        io.pod(max_);
    }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0; //!< centered sum of squares sum((x - mean)^2)
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace tp

#endif // TP_COMMON_STATISTICS_HH
