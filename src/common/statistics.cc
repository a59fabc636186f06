#include "common/statistics.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tp {

double
mean(const std::vector<double> &xs)
{
    tp_assert(!xs.empty());
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

namespace {

/** Centered sum of squares sum((x - mean)^2), cancellation-free. */
double
centeredSumSq(const std::vector<double> &xs)
{
    const double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return s;
}

} // namespace

double
stddev(const std::vector<double> &xs)
{
    tp_assert(!xs.empty());
    return std::sqrt(centeredSumSq(xs) /
                     static_cast<double>(xs.size()));
}

double
sampleVariance(const std::vector<double> &xs)
{
    tp_assert(xs.size() >= 2);
    return centeredSumSq(xs) / static_cast<double>(xs.size() - 1);
}

double
sampleStddev(const std::vector<double> &xs)
{
    return std::sqrt(sampleVariance(xs));
}

double
minOf(const std::vector<double> &xs)
{
    tp_assert(!xs.empty());
    return *std::min_element(xs.begin(), xs.end());
}

double
maxOf(const std::vector<double> &xs)
{
    tp_assert(!xs.empty());
    return *std::max_element(xs.begin(), xs.end());
}

double
percentile(std::vector<double> xs, double p)
{
    tp_assert(!xs.empty());
    tp_assert(p >= 0.0 && p <= 100.0);
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs[0];
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

BoxplotStats
boxplot(const std::vector<double> &xs)
{
    tp_assert(!xs.empty());
    BoxplotStats b;
    b.count = xs.size();
    b.median = percentile(xs, 50.0);
    b.q1 = percentile(xs, 25.0);
    b.q3 = percentile(xs, 75.0);
    b.whiskerLo = percentile(xs, 5.0);
    b.whiskerHi = percentile(xs, 95.0);
    b.min = minOf(xs);
    b.max = maxOf(xs);
    for (double x : xs) {
        if (x < b.whiskerLo || x > b.whiskerHi)
            ++b.outliers;
    }
    return b;
}

std::vector<double>
normalizeToMeanPct(const std::vector<double> &xs, double group_mean)
{
    tp_assert(group_mean != 0.0);
    std::vector<double> out;
    out.reserve(xs.size());
    for (double x : xs)
        out.push_back(100.0 * (x / group_mean - 1.0));
    return out;
}

double
absPctError(double value, double reference)
{
    tp_assert(reference != 0.0);
    return 100.0 * std::abs(value - reference) / std::abs(reference);
}

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::mean() const
{
    tp_assert(n_ > 0);
    return mean_;
}

double
RunningStats::populationVariance() const
{
    tp_assert(n_ > 0);
    return m2_ / static_cast<double>(n_);
}

double
RunningStats::populationStddev() const
{
    return std::sqrt(populationVariance());
}

double
RunningStats::sampleVariance() const
{
    tp_assert(n_ >= 2);
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::sampleStddev() const
{
    return std::sqrt(sampleVariance());
}

double
RunningStats::min() const
{
    tp_assert(n_ > 0);
    return min_;
}

double
RunningStats::max() const
{
    tp_assert(n_ > 0);
    return max_;
}

} // namespace tp
