#include "sampling/adaptive.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace tp::sampling {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

StratifiedEstimator::StratifiedEstimator(std::vector<StratumSpec> strata,
                                         const AdaptiveConfig &cfg)
    : strata_(std::move(strata)), cfg_(cfg)
{
    if (!(cfg_.targetError > 0.0) || cfg_.targetError >= 1.0)
        fatal("adaptive target error must be a fraction in (0, 1)");
    if (cfg_.pilotSamples < 2)
        fatal("adaptive pilot needs at least 2 samples per stratum "
              "(sample variance is undefined below that)");
    if (!(cfg_.confidenceZ > 0.0))
        fatal("adaptive confidence quantile z must be positive");
    for (const StratumSpec &s : strata_) {
        tp_assert(s.weight >= 0.0);
        // A weighted stratum with no instances could never be
        // sampled and would block convergence forever.
        tp_assert(s.weight == 0.0 || s.capacity > 0);
        weightTotal_ += s.weight;
    }
    if (!(weightTotal_ > 0.0))
        fatal("adaptive sampling needs at least one weighted stratum");
    stats_.resize(strata_.size());
    seen_.assign(strata_.size(), 0);
    reset();
}

void
StratifiedEstimator::reset()
{
    stats_.assign(strata_.size(), RunningStats{});
    targets_.assign(strata_.size(), 0);
    for (std::size_t h = 0; h < strata_.size(); ++h) {
        if (strata_[h].weight <= 0.0)
            continue;
        targets_[h] = std::min<std::uint64_t>(
            strata_[h].capacity,
            std::max<std::uint64_t>(2, cfg_.pilotSamples));
    }
}

void
StratifiedEstimator::state(StateIo &io)
{
    io.count(strata_.size(), "adaptive-estimator stratum count");
    for (RunningStats &s : stats_)
        s.state(io);
    io.block(targets_);
    for (char &s : seen_)
        io.flag(s);
    io.pod(rounds_);
}

void
StratifiedEstimator::markSeen(std::size_t stratum)
{
    tp_assert(stratum < strata_.size());
    seen_[stratum] = 1;
}

void
StratifiedEstimator::addSample(std::size_t stratum, double cpi)
{
    tp_assert(stratum < strata_.size());
    tp_assert(cpi > 0.0);
    seen_[stratum] = 1;
    stats_[stratum].add(cpi);
}

std::uint64_t
StratifiedEstimator::samples(std::size_t stratum) const
{
    tp_assert(stratum < strata_.size());
    return stats_[stratum].count();
}

double
StratifiedEstimator::seenWeight() const
{
    double w = 0.0;
    for (std::size_t h = 0; h < strata_.size(); ++h) {
        if (seen_[h])
            w += strata_[h].weight;
    }
    return w;
}

double
StratifiedEstimator::estimateCpi() const
{
    double acc = 0.0;
    double wsum = 0.0;
    for (std::size_t h = 0; h < strata_.size(); ++h) {
        if (strata_[h].weight <= 0.0 || stats_[h].count() == 0)
            continue;
        const double wn = strata_[h].weight / weightTotal_;
        acc += wn * stats_[h].mean();
        wsum += wn;
    }
    tp_assert(wsum > 0.0);
    // Renormalize over the observed strata so the partial estimate
    // (used during reallocation) is itself a weighted mean.
    return acc / wsum;
}

double
StratifiedEstimator::estimatorVariance() const
{
    const double wseen = seenWeight();
    if (!(wseen > 0.0))
        return -1.0; // nothing seen yet
    double var = 0.0;
    for (std::size_t h = 0; h < strata_.size(); ++h) {
        const StratumSpec &s = strata_[h];
        if (s.weight <= 0.0 || !seen_[h])
            continue;
        const std::uint64_t n = stats_[h].count();
        if (n >= s.capacity)
            continue; // census: no sampling error left
        if (n < 2)
            return -1.0; // variance not yet measurable
        const double wn = s.weight / wseen;
        var += wn * wn * stats_[h].sampleVariance() /
               static_cast<double>(n);
    }
    return var;
}

double
StratifiedEstimator::relHalfWidth() const
{
    const double var = estimatorVariance();
    if (var < 0.0)
        return kInf;
    const double t = estimateCpi();
    if (!(t > 0.0))
        return kInf;
    return cfg_.confidenceZ * std::sqrt(var) / t;
}

bool
StratifiedEstimator::converged() const
{
    return relHalfWidth() <= cfg_.targetError;
}

bool
StratifiedEstimator::allTargetsMet() const
{
    bool any = false;
    for (std::size_t h = 0; h < strata_.size(); ++h) {
        if (strata_[h].weight <= 0.0 || !seen_[h])
            continue;
        any = true;
        if (stats_[h].count() < targets_[h])
            return false;
    }
    return any;
}

bool
StratifiedEstimator::needMore(std::size_t stratum)
{
    tp_assert(stratum < strata_.size());
    seen_[stratum] = 1;
    const StratumSpec &s = strata_[stratum];
    if (s.weight <= 0.0)
        return false;
    if (stats_[stratum].count() >= s.capacity)
        return false; // census complete
    if (stats_[stratum].count() < targets_[stratum])
        return true;
    // This stratum met its target. Reallocate only once *every* seen
    // stratum has: under-target strata are still collecting, and
    // re-planning on partial pilots would chase noise.
    if (!allTargetsMet())
        return false;
    if (converged())
        return false;
    reallocate();
    return stats_[stratum].count() < targets_[stratum];
}

void
StratifiedEstimator::reallocate()
{
    ++rounds_;

    // Neyman numerator sum_h wn_h * s_h over the seen strata that
    // still have sampling error; census strata are done.
    const double wseen = seenWeight();
    double num = 0.0;
    for (std::size_t h = 0; h < strata_.size(); ++h) {
        const StratumSpec &s = strata_[h];
        const std::uint64_t n = stats_[h].count();
        if (s.weight <= 0.0 || !seen_[h] || n >= s.capacity || n < 2)
            continue;
        num += s.weight / wseen * stats_[h].sampleStddev();
    }
    const double t = estimateCpi();

    bool progress = false;
    if (num > 0.0 && t > 0.0) {
        // Total detailed samples a proportional Neyman split needs
        // for a half-width of targetError * T^.
        const double ratio =
            cfg_.confidenceZ * num / (cfg_.targetError * t);
        const double n_total = ratio * ratio;
        for (std::size_t h = 0; h < strata_.size(); ++h) {
            const StratumSpec &s = strata_[h];
            const std::uint64_t n = stats_[h].count();
            if (s.weight <= 0.0 || !seen_[h] || n >= s.capacity ||
                n < 2) {
                continue;
            }
            const double share = s.weight / wseen *
                                 stats_[h].sampleStddev() / num;
            const double raw = std::ceil(n_total * share);
            std::uint64_t want =
                raw >= double(s.capacity)
                    ? s.capacity
                    : static_cast<std::uint64_t>(raw);
            want = std::min(want, s.capacity);
            want = std::max(want, targets_[h]); // never shrink
            targets_[h] = want;
            progress = progress || want > n;
        }
    }
    if (progress)
        return;

    // Degenerate round (all measured variance in strata the formula
    // skipped, or rounding landed on the current counts): force
    // progress by raising the target of the seen stratum contributing
    // the most variance, so the loop cannot spin without sampling.
    double worst = -1.0;
    std::size_t worst_h = strata_.size();
    for (std::size_t h = 0; h < strata_.size(); ++h) {
        const StratumSpec &s = strata_[h];
        const std::uint64_t n = stats_[h].count();
        if (s.weight <= 0.0 || !seen_[h] || n >= s.capacity)
            continue;
        const double wn = s.weight / weightTotal_;
        const double contrib =
            n >= 2 ? wn * wn * stats_[h].sampleVariance() / double(n)
                   : wn * wn; // unmeasured: assume the worst
        if (contrib > worst) {
            worst = contrib;
            worst_h = h;
        }
    }
    if (worst_h < strata_.size()) {
        targets_[worst_h] = std::min(
            strata_[worst_h].capacity,
            std::max(targets_[worst_h], stats_[worst_h].count() + 1));
    }
}

const char *
stopReason(const AdaptiveDiagnostics &d)
{
    return d.budgetStopped   ? "budget cap"
           : d.cutoffStopped ? "rare cutoff"
                             : "CI target";
}

std::string
reportedCi(const AdaptiveDiagnostics &d)
{
    if (d.cutoffStopped && d.finalRelHalfWidth == 0.0)
        return "n/a";
    return strprintf("%.2f%%", 100.0 * d.finalRelHalfWidth);
}

} // namespace tp::sampling
