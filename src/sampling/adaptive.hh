/**
 * @file
 * Variance-aware adaptive sampling: stratified estimation with Neyman
 * allocation and a confidence-interval stopping rule.
 *
 * The paper's periodic and lazy policies fix the sampling effort up
 * front; two-phase stratified sampling (Ekman & Stenstrom) and
 * SMARTS-style rigorous statistical sampling instead spend detailed
 * simulation where the *measured variance* says it buys accuracy.
 * TaskPoint's task types are natural strata: every instance of a type
 * runs the same code on same-shaped data, so within-stratum IPC
 * variance is low and between-stratum variance is captured exactly.
 *
 * StratifiedEstimator is engine-independent (unit-testable on
 * synthetic data). It estimates mean CPI per stratum — CPI, not IPC,
 * because total execution time is linear in CPI weighted by each
 * stratum's share of dynamic instructions:
 *
 *    T ~= total_insts * sum_h W_h * meanCPI_h,  W_h = insts_h / insts
 *
 * The estimator's variance is the stratified-sampling formula
 *
 *    Var(T^) = sum_h W_h^2 * s_h^2 / n_h
 *
 * with s_h^2 the *unbiased* per-stratum sample variance (divisor
 * n-1; see common/statistics.hh for the convention) and a census
 * stratum (every instance sampled) contributing zero. Sampling stops
 * when the relative CI half-width  z * sqrt(Var) / T^  drops below
 * the user's target error; until then, additional detailed samples
 * are allocated across strata proportionally to W_h * s_h (Neyman
 * allocation), which minimizes Var(T^) for a given total sample
 * count.
 *
 * The controller keeps the whole sampling phase detailed (as the
 * base mechanism does): mixing fast-forwarding into the phase would
 * let the remaining detailed samples execute next to threads that
 * emit no memory traffic — a contention-free machine — and such
 * samples are systematically optimistic (Section III-B). Adaptivity
 * is therefore in when the phase *ends*: it stays open while the
 * measured variance says more samples buy accuracy, and closes as
 * soon as the CI target is met, instead of at a fixed per-type
 * history depth.
 *
 * Strata the simulation has not *seen* yet (task types whose first
 * instance has not arrived — common under dependencies, e.g. a
 * combine stage gated on its inputs) are excluded from the stopping
 * rule and the estimate, with weights renormalized over the seen
 * strata. When such a type appears later in fast mode, the
 * controller's new-type resample opens a fresh sampling phase that
 * covers it — the same recovery path the lazy policy uses.
 */

#ifndef TP_SAMPLING_ADAPTIVE_HH
#define TP_SAMPLING_ADAPTIVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/statistics.hh"
#include "common/types.hh"

namespace tp::sampling {

/** Static description of one stratum, known before simulation. */
struct StratumSpec
{
    /**
     * Relative share of total work, e.g. the stratum's dynamic
     * instructions. Need not be normalized; 0 excludes the stratum.
     */
    double weight = 0.0;
    /** Total instances in the trace (census bound). */
    std::uint64_t capacity = 0;
};

/** Tuning knobs of the adaptive policy. */
struct AdaptiveConfig
{
    /** Target relative CI half-width, e.g. 0.01 for 1%. */
    double targetError = 0.01;
    /** Minimum samples per stratum before variance is trusted. */
    std::uint64_t pilotSamples = 4;
    /** Normal quantile of the CI (1.96 = 95% confidence). */
    double confidenceZ = 1.96;
};

/**
 * Per-run adaptive-sampling diagnostics, carried inside
 * SampledOutcome and through every ResultSink.
 */
struct AdaptiveDiagnostics
{
    bool enabled = false;
    double targetError = 0.0;
    /**
     * Relative CI half-width at the end of the run; 0 when it was
     * never computable (e.g. adaptive disabled).
     */
    double finalRelHalfWidth = 0.0;
    /** Cycle of the last sampling-complete transition (0 = none). */
    Cycles stopCycle = 0;
    /** Neyman reallocation rounds across the whole run. */
    std::uint64_t allocationRounds = 0;
    /**
     * True when the last sampling phase ended through the rare-type
     * cutoff instead of CI convergence — the target was unreachable
     * with the instances that arrived, so finalRelHalfWidth may not
     * meet targetError (or may be 0 = not computable).
     */
    bool cutoffStopped = false;
    /**
     * True when the last sampling phase ended because the detailed-
     * instruction budget cap was hit (see
     * SamplingParams::detailBudgetMultiple): Neyman reallocation was
     * chasing a CI target the workload's variance cannot reach at an
     * acceptable cost, so the phase was closed at a bounded multiple
     * of the lazy policy's detailed-instruction budget.
     */
    bool budgetStopped = false;
    /**
     * Detailed samples credited to each stratum (by TaskTypeId) in
     * the final sampling regime (resampling restarts the counts).
     */
    std::vector<std::uint64_t> strataSamples;
};

/**
 * Why the run's last sampling phase ended, as the diagnostics tables
 * print it: "budget cap", else "rare cutoff", else "CI target".
 */
const char *stopReason(const AdaptiveDiagnostics &d);

/**
 * The reported CI half-width as a table cell: "n/a" when it was never
 * computable (the rare cutoff ended the phase with a zero
 * half-width: some stratum stayed under 2 samples), else the
 * percentage with two decimals, e.g. "2.46%".
 */
std::string reportedCi(const AdaptiveDiagnostics &d);

/** See file comment. */
class StratifiedEstimator
{
  public:
    /**
     * @param strata per-stratum weight/capacity (index = stratum id)
     * @param cfg    tuning knobs; targetError must be in (0, 1),
     *               pilotSamples >= 2, confidenceZ > 0
     */
    StratifiedEstimator(std::vector<StratumSpec> strata,
                        const AdaptiveConfig &cfg);

    /** Record one detailed sample of `stratum` (cpi > 0). */
    void addSample(std::size_t stratum, double cpi);

    /**
     * Mark `stratum` as seen (an instance arrived). Unseen strata
     * are excluded from the stopping rule, the estimate and the
     * allocation; seen-ness persists across reset(). addSample()
     * marks implicitly.
     */
    void markSeen(std::size_t stratum);

    /**
     * Does `stratum` still need detailed samples?
     *
     * Non-const: when every seen stratum has met its current target
     * and the CI is still too wide, the call performs one Neyman
     * reallocation round before answering. Marks `stratum` seen.
     */
    bool needMore(std::size_t stratum);

    /** @return true once the stopping rule is satisfied. */
    bool converged() const;

    /**
     * @return relative CI half-width z*sqrt(Var)/T^ over the seen
     *         strata, or +infinity while no stratum has been seen or
     *         some seen weighted stratum lacks the samples to
     *         compute it.
     */
    double relHalfWidth() const;

    /** @return weighted mean CPI estimate (panics without samples). */
    double estimateCpi() const;

    /** @return samples recorded for `stratum`. */
    std::uint64_t samples(std::size_t stratum) const;

    /** @return current per-stratum sample targets. */
    const std::vector<std::uint64_t> &targets() const
    {
        return targets_;
    }

    /** @return Neyman reallocation rounds so far (survives reset). */
    std::uint64_t allocationRounds() const { return rounds_; }

    /** @return number of strata. */
    std::size_t size() const { return strata_.size(); }

    /**
     * Drop all samples and restart from pilot targets (on resample).
     * Strata, config, seen-ness and the reallocation-round counter
     * persist.
     */
    void reset();

    /**
     * Checkpoint the dynamic estimator state (per-stratum Welford
     * accumulators, targets, seen flags, reallocation rounds); the
     * strata specs and config are fixed by construction. Throws
     * IoError on mismatch.
     */
    void state(StateIo &io);

  private:
    /** True when every seen stratum met its target or capacity. */
    bool allTargetsMet() const;
    void reallocate();
    /** Sum of weights over the seen strata (0 while none seen). */
    double seenWeight() const;
    /**
     * Var(T^) in seen-renormalized-weight terms, or -1 while no
     * stratum is seen or some seen weighted stratum cannot
     * contribute a variance estimate yet.
     */
    double estimatorVariance() const;

    std::vector<StratumSpec> strata_;
    AdaptiveConfig cfg_;
    double weightTotal_ = 0.0;
    std::vector<RunningStats> stats_;
    std::vector<std::uint64_t> targets_;
    std::vector<char> seen_;
    std::uint64_t rounds_ = 0;
};

} // namespace tp::sampling

#endif // TP_SAMPLING_ADAPTIVE_HH
