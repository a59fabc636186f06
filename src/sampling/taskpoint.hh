/**
 * @file
 * TaskPoint: the sampled-simulation methodology (paper Section III).
 *
 * TaskPointController implements the sampling *mechanism* — warmup,
 * sampling, accurate fast-forwarding — and the sampling *policies* on
 * top of it:
 *
 *  - Initial warmup: W task instances per participating thread are
 *    simulated in detail; their IPC goes to the history of all
 *    samples only.
 *  - Sampling: detailed task instances contribute valid samples until
 *    either (1) every observed task type's valid history is full, or
 *    (2) the rare-type cutoff fires: every participating thread has
 *    simulated R consecutive instances without encountering a type
 *    whose valid history is not yet full.
 *  - Fast-forward: each instance runs at the mean IPC of its type's
 *    valid history (fallback: the all-samples history), for
 *    C_i = ceil(I_i / IPC_T) cycles.
 *  - Resampling triggers: (a) periodic policy — a thread has executed
 *    P instances in fast mode (P = ∞ ≡ lazy sampling); (b) the first
 *    instance of a task type with no samples at all; (c) a persistent
 *    change in the number of threads executing tasks. Resampling
 *    discards all valid histories, re-warms with one detailed
 *    instance per participating thread, and samples again.
 *
 * Mode switching happens only at task-instance boundaries; instances
 * that started before a phase change finish in their original mode,
 * and detailed instances finishing after the transition to fast mode
 * contribute to the all-samples history only (paper Section III-B).
 *
 * A third, variance-aware policy sits on top of the same mechanism:
 * with SamplingParams::adaptive(targetError) the sampling phase
 * stratifies instances by task type, runs a pilot per stratum,
 * allocates further detailed samples by Neyman allocation and ends
 * when the combined confidence interval is tighter than the target
 * (falling back to the rare-type cutoff when strata stop arriving).
 * The phase itself stays fully detailed, like the other policies —
 * only its length adapts. See sampling/adaptive.hh for the
 * estimator and the contention-bias rationale.
 */

#ifndef TP_SAMPLING_TASKPOINT_HH
#define TP_SAMPLING_TASKPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sampling/adaptive.hh"
#include "sampling/type_profile.hh"
#include "sim/mode_controller.hh"
#include "trace/trace.hh"

namespace tp::sampling {

/** TaskPoint model parameters (paper Section V-A defaults). */
struct SamplingParams
{
    /** W: warmup instances per thread at simulation start. */
    std::uint64_t warmup = 2;
    /** H: size of both IPC histories. */
    std::size_t historySize = 4;
    /** P: fast instances per thread before resampling (∞ = lazy). */
    std::uint64_t period = kInfinitePeriod;
    /** R: rare-type sampling cutoff (instances per thread). */
    std::uint64_t rareCutoff = 5;
    /**
     * Consecutive fast-mode task starts that must observe a changed
     * active-thread count before the concurrency trigger resamples.
     * The paper does not specify a debounce; we expose it and ablate
     * it in bench/ablation_sampling.
     */
    std::uint32_t concurrencyHysteresis = 8;
    /**
     * Relative dead band for the concurrency trigger: the active
     * count must leave [c*(1-tol), c*(1+tol)] (and at least by one
     * thread) around the sampled concurrency before divergence is
     * counted. Filters the dips every dependency stall produces.
     */
    double concurrencyTolerance = 0.25;
    /**
     * Target relative CI half-width of the adaptive policy, e.g.
     * 0.01 for 1%. 0 disables adaptive sampling (lazy/periodic
     * behaviour is then untouched). When enabled the sampling phase
     * stratifies instances by task type, pilots each stratum, spends
     * further detailed samples by Neyman allocation and stops once
     * the combined CI half-width is below this target (see
     * sampling/adaptive.hh).
     */
    double targetError = 0.0;
    /** Pilot samples per stratum before variance is trusted (>= 2). */
    std::uint64_t pilotSamples = 4;
    /** Normal quantile of the CI (1.96 = 95% confidence). */
    double confidenceZ = 1.96;
    /**
     * Detail-budget cap of the adaptive policy, as a multiple of the
     * lazy policy's detailed-instruction budget (the instructions a
     * valid history of depth H per observed type would cost). When an
     * unreachable CI target keeps Neyman reallocation requesting more
     * samples — high within-stratum variance makes n_total ~ 1/eps^2
     * explode well past the census sizes actually available — the
     * sampling phase is closed at this multiple instead of devolving
     * into near-full detail (see AdaptiveDiagnostics::budgetStopped).
     * 0 disables the cap. Ignored by the lazy/periodic policies.
     */
    double detailBudgetMultiple = 2.0;

    /** @return true when the adaptive policy is active. */
    bool adaptiveEnabled() const { return targetError > 0.0; }

    /** @return params for the lazy policy (P = ∞). */
    static SamplingParams
    lazy()
    {
        return SamplingParams{};
    }

    /** @return params for the periodic policy with the given P. */
    static SamplingParams
    periodic(std::uint64_t p)
    {
        SamplingParams s;
        s.period = p;
        return s;
    }

    /**
     * @return params for the adaptive policy with the given target
     *         relative error (periodic resampling off; the
     *         new-type and concurrency triggers stay active).
     */
    static SamplingParams
    adaptive(double target_error)
    {
        SamplingParams s;
        s.targetError = target_error;
        return s;
    }
};

/** Sampling phases (paper Fig. 2). */
enum class Phase : std::uint8_t { Warmup, Sampling, Fast };

/** @return printable phase name. */
const char *toString(Phase p);

/** Why a resample was triggered. */
enum class ResampleReason : std::uint8_t {
    Period,      //!< periodic policy expired (P fast instances)
    NewType,     //!< first instance of an unsampled task type
    Concurrency, //!< active-thread count changed persistently
};

/** Counters reported by the controller after a run. */
struct SamplingStats
{
    std::uint64_t warmupTasks = 0;
    std::uint64_t sampleTasks = 0;
    std::uint64_t fastTasks = 0;
    std::uint64_t resamples = 0;
    std::uint64_t resamplesPeriod = 0;
    std::uint64_t resamplesNewType = 0;
    std::uint64_t resamplesConcurrency = 0;
    std::uint64_t phaseChanges = 0;
};

/** One phase-transition event (for tests and debugging). */
struct PhaseChange
{
    Cycles at = 0;
    Phase to = Phase::Warmup;
};

/** See file comment. */
class TaskPointController : public sim::ModeController
{
  public:
    /**
     * @param trace  the application being simulated (not owned)
     * @param params model parameters (W, H, P, R)
     */
    TaskPointController(const trace::TaskTrace &trace,
                        const SamplingParams &params);

    sim::ModeDecision decideTask(const trace::TaskInstance &inst,
                                 ThreadId thread,
                                 const sim::EngineStatus &status)
        override;

    void taskFinished(const trace::TaskInstance &inst, ThreadId thread,
                      sim::SimMode mode, double ipc) override;

    /** @return current phase. */
    Phase phase() const { return phase_; }

    /** @return accumulated counters. */
    const SamplingStats &stats() const { return stats_; }

    /** @return phase-transition log. */
    const std::vector<PhaseChange> &phaseLog() const
    {
        return phaseLog_;
    }

    /** @return per-type sampling state (indexed by TaskTypeId). */
    const std::vector<TypeProfile> &profiles() const
    {
        return profiles_;
    }

    /** @return model parameters. */
    const SamplingParams &params() const { return params_; }

    /**
     * @return adaptive-policy diagnostics (all-defaults when the
     *         adaptive policy is disabled).
     */
    AdaptiveDiagnostics adaptiveDiagnostics() const;

    /**
     * @return number of Sampling->Fast transitions so far. Each one
     *         is a checkpointable sample boundary: the histories are
     *         freshly full and the fast-forward regime is about to
     *         begin (see sim/checkpoint.hh).
     */
    std::uint64_t phaseEpoch() const override
    {
        return fastPhaseEntries_;
    }

    /** Phase codes match sampling::Phase (see sim/trace_observer.hh). */
    std::uint8_t observerPhase() const override
    {
        return static_cast<std::uint8_t>(phase_);
    }

    /**
     * Checkpoint the full dynamic controller state; throws IoError
     * on corruption.
     */
    void state(StateIo &io) override;

  private:
    /** Per-thread bookkeeping, reset at each phase change. */
    struct ThreadState
    {
        std::uint64_t finishedInPhase = 0;
        std::uint64_t sinceUnsampled = 0;
        std::uint64_t fastStarted = 0;
        bool inPhase = false; //!< started >= 1 task in current phase
    };

    /** Decision record per instance (for finish-time attribution). */
    struct StartInfo
    {
        std::uint32_t phaseSeq = 0;
        Phase phase = Phase::Warmup;
        bool decided = false;
    };

    void enterPhase(Phase p, Cycles at);
    void resample(ResampleReason reason, Cycles at);
    bool warmupComplete() const;
    bool allSeenTypesSampled() const;
    bool rareCutoffReached() const;

    const trace::TaskTrace &trace_;
    SamplingParams params_;

    std::vector<TypeProfile> profiles_;
    std::vector<ThreadState> threads_;
    /**
     * Tasks decided but not yet finished, per thread. Unlike
     * ThreadState this survives phase changes: warmup completion must
     * wait for threads still draining tasks from an earlier phase
     * (the paper requires *every* thread to simulate one instance in
     * detail before resampling — otherwise samples would measure a
     * contention-free machine while other threads fast-forward).
     */
    std::vector<std::uint32_t> inFlight_;
    std::vector<StartInfo> startInfo_;

    Phase phase_ = Phase::Warmup;
    std::uint32_t phaseSeq_ = 0;
    std::uint64_t warmupTarget_;
    std::uint32_t sampledConcurrency_ = 0;
    std::uint32_t concurrencyDivergence_ = 0;
    /** Ask the engine to age caches on the next detailed decision. */
    bool pendingStateAging_ = false;

    /** Stratified CI estimator; engaged iff adaptiveEnabled(). */
    std::optional<StratifiedEstimator> estimator_;
    /** Last sampling-complete transition (adaptive diagnostics). */
    Cycles adaptiveStopCycle_ = 0;
    bool adaptiveCutoffStopped_ = false;
    bool adaptiveBudgetStopped_ = false;
    /**
     * Detailed-instruction cap per sampling regime, derived in the
     * constructor from detailBudgetMultiple and the trace's type mix
     * (0 = uncapped; always 0 for the lazy/periodic policies).
     */
    double detailBudget_ = 0.0;
    /** Detailed instructions spent in the current sampling regime. */
    std::uint64_t detailInstsInSampling_ = 0;

    /** Sampling->Fast transitions; exported via phaseEpoch(). */
    std::uint64_t fastPhaseEntries_ = 0;

    SamplingStats stats_;
    std::vector<PhaseChange> phaseLog_;
};

} // namespace tp::sampling

#endif // TP_SAMPLING_TASKPOINT_HH
