#include "sampling/taskpoint.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tp::sampling {

const char *
toString(Phase p)
{
    switch (p) {
      case Phase::Warmup:
        return "warmup";
      case Phase::Sampling:
        return "sampling";
      case Phase::Fast:
        return "fast";
    }
    return "?";
}

TaskPointController::TaskPointController(const trace::TaskTrace &trace,
                                         const SamplingParams &params)
    : trace_(trace), params_(params), warmupTarget_(params.warmup)
{
    if (params_.historySize == 0)
        fatal("history size H must be positive");
    if (params_.rareCutoff == 0)
        fatal("rare-type cutoff R must be positive");
    if (params_.period == 0)
        fatal("sampling period P must be positive (use "
              "kInfinitePeriod for lazy sampling)");
    if (params_.adaptiveEnabled()) {
        // Strata are task types; weights are each type's share of
        // dynamic instructions (known statically from the trace),
        // capacities its instance count.
        std::vector<StratumSpec> strata(trace.types().size());
        for (const trace::TaskInstance &inst : trace.instances()) {
            strata[inst.type].weight +=
                static_cast<double>(inst.instCount);
            ++strata[inst.type].capacity;
        }
        AdaptiveConfig cfg;
        cfg.targetError = params_.targetError;
        cfg.pilotSamples = params_.pilotSamples;
        cfg.confidenceZ = params_.confidenceZ;
        if (params_.detailBudgetMultiple > 0.0) {
            // The lazy policy's detailed budget: H valid samples per
            // observed type, each costing that type's mean dynamic
            // instructions. The cap is a multiple of that, so the
            // adaptive policy can spend more where variance demands
            // it without devolving into near-full detail when the CI
            // target is unreachable.
            double lazy_budget = 0.0;
            for (const StratumSpec &s : strata) {
                if (s.capacity == 0)
                    continue;
                const double mean_insts =
                    s.weight / static_cast<double>(s.capacity);
                lazy_budget +=
                    mean_insts *
                    static_cast<double>(std::min<std::uint64_t>(
                        s.capacity, params_.historySize));
            }
            detailBudget_ =
                params_.detailBudgetMultiple * lazy_budget;
        }
        estimator_.emplace(std::move(strata), cfg);
    }

    profiles_.reserve(trace.types().size());
    for (std::size_t t = 0; t < trace.types().size(); ++t)
        profiles_.emplace_back(params_.historySize);
    startInfo_.resize(trace.size());
    phaseLog_.push_back(PhaseChange{0, Phase::Warmup});
}

void
TaskPointController::enterPhase(Phase p, Cycles at)
{
    phase_ = p;
    ++phaseSeq_;
    ++stats_.phaseChanges;
    if (p == Phase::Fast)
        ++fastPhaseEntries_;
    for (ThreadState &ts : threads_)
        ts = ThreadState{};
    concurrencyDivergence_ = 0;
    phaseLog_.push_back(PhaseChange{at, p});
}

void
TaskPointController::resample(ResampleReason reason, Cycles at)
{
    ++stats_.resamples;
    switch (reason) {
      case ResampleReason::Period:
        ++stats_.resamplesPeriod;
        break;
      case ResampleReason::NewType:
        ++stats_.resamplesNewType;
        break;
      case ResampleReason::Concurrency:
        ++stats_.resamplesConcurrency;
        break;
    }
    // "When a simulation is resampled, the entries of the history of
    // valid samples are discarded." (Section III-C)
    for (TypeProfile &p : profiles_)
        p.clearValid();
    // The estimator tracks exactly the valid samples, so it restarts
    // with them (pilot targets apply afresh to the new regime).
    if (estimator_)
        estimator_->reset();
    detailInstsInSampling_ = 0;
    // Re-warmup needs one detailed instance per participating
    // thread, on state aged past the fast-forwarded phase.
    pendingStateAging_ = true;
    warmupTarget_ = 1;
    enterPhase(Phase::Warmup, at);
}

bool
TaskPointController::warmupComplete() const
{
    if (warmupTarget_ == 0)
        return true;
    bool any = false;
    for (std::size_t th = 0; th < threads_.size(); ++th) {
        const ThreadState &ts = threads_[th];
        // Only threads currently executing a task gate warmup: a
        // busy thread must complete its quota *in this phase* —
        // including threads still draining a task from before the
        // phase change (paper Section III-B: "until every thread has
        // simulated one task instance in detail"). Idle threads have
        // no work to warm up on (limited parallelism) and are exempt,
        // otherwise a thread that went idle early would gate forever.
        if (inFlight_[th] == 0)
            continue;
        any = true;
        if (ts.finishedInPhase < warmupTarget_)
            return false;
    }
    return any;
}

bool
TaskPointController::allSeenTypesSampled() const
{
    bool any = false;
    for (const TypeProfile &p : profiles_) {
        if (!p.seen())
            continue;
        any = true;
        if (!p.valid().full())
            return false;
    }
    return any;
}

bool
TaskPointController::rareCutoffReached() const
{
    bool any = false;
    for (std::size_t th = 0; th < threads_.size(); ++th) {
        const ThreadState &ts = threads_[th];
        // As in warmupComplete(): only busy threads gate the cutoff,
        // or a thread that went idle mid-phase would hold sampling
        // open for the rest of the program.
        if (inFlight_[th] == 0 || !ts.inPhase)
            continue;
        any = true;
        if (ts.sinceUnsampled < params_.rareCutoff)
            return false;
    }
    return any;
}

sim::ModeDecision
TaskPointController::decideTask(const trace::TaskInstance &inst,
                                ThreadId thread,
                                const sim::EngineStatus &status)
{
    if (thread >= threads_.size()) {
        threads_.resize(thread + 1);
        inFlight_.resize(thread + 1, 0);
    }
    ++inFlight_[thread];

    tp_assert(inst.type < profiles_.size());
    tp_assert(inst.id < startInfo_.size());
    TypeProfile &prof = profiles_[inst.type];
    prof.markSeen();
    if (estimator_)
        estimator_->markSeen(inst.type);

    // Phase transitions are evaluated here — the task-instance
    // boundary is the only legal mode-switch point (Section III-B).
    if (phase_ == Phase::Warmup && warmupComplete())
        enterPhase(Phase::Sampling, status.now);
    if (phase_ == Phase::Sampling) {
        // Adaptive: stop when the CI target is met; the detail
        // budget caps runaway Neyman reallocation, and the rare-type
        // cutoff stays as the escape for strata that stop arriving.
        const bool converged = estimator_ && estimator_->converged();
        const bool budgetExceeded =
            estimator_ && detailBudget_ > 0.0 &&
            static_cast<double>(detailInstsInSampling_) >=
                detailBudget_;
        const bool done = estimator_
                              ? converged || budgetExceeded ||
                                    rareCutoffReached()
                              : allSeenTypesSampled() ||
                                    rareCutoffReached();
        if (done) {
            if (estimator_) {
                // Last stop wins: the diagnostics describe the final
                // sampling regime, matching the estimator state they
                // are reported with. Convergence trumps the budget
                // trumps the cutoff.
                adaptiveStopCycle_ = status.now;
                adaptiveBudgetStopped_ = !converged && budgetExceeded;
                adaptiveCutoffStopped_ =
                    !converged && !budgetExceeded;
            }
            sampledConcurrency_ = status.effectiveConcurrency;
            enterPhase(Phase::Fast, status.now);
        }
    }

    ThreadState &ts_pre = threads_[thread];
    StartInfo &si = startInfo_[inst.id];
    tp_assert(!si.decided);
    si.decided = true;

    auto decide_detailed = [&](Phase as) {
        ThreadState &ts = threads_[thread];
        ts.inPhase = true;
        si.phase = as;
        si.phaseSeq = phaseSeq_;
        if (as == Phase::Warmup)
            ++stats_.warmupTasks;
        else
            ++stats_.sampleTasks;
        sim::ModeDecision d{sim::SimMode::Detailed, 0.0, false};
        d.reconstructState = pendingStateAging_;
        pendingStateAging_ = false;
        return d;
    };

    switch (phase_) {
      case Phase::Warmup:
        return decide_detailed(Phase::Warmup);

      case Phase::Sampling:
        if (estimator_) {
            // The whole phase runs detailed — fast-forwarding some
            // threads here would let the remaining samples execute
            // on a contention-free machine (see adaptive.hh). The
            // estimator only steers sinceUnsampled (the cutoff
            // escape) and, via needMore(), the Neyman reallocation.
            if (estimator_->needMore(inst.type))
                ts_pre.sinceUnsampled = 0;
            else
                ++ts_pre.sinceUnsampled;
            return decide_detailed(Phase::Sampling);
        }
        if (prof.valid().full())
            ++ts_pre.sinceUnsampled;
        else
            ts_pre.sinceUnsampled = 0;
        return decide_detailed(Phase::Sampling);

      case Phase::Fast: {
        const double ipc = prof.predictIpc();
        if (ipc == 0.0) {
            // First instance of a type with no samples at all: it is
            // impossible to fast-forward it (Fig. 4b) — resample.
            resample(ResampleReason::NewType, status.now);
            return decide_detailed(Phase::Warmup);
        }
        if (params_.period != kInfinitePeriod &&
            ts_pre.fastStarted >= params_.period) {
            // Periodic policy: this thread fast-forwarded P instances.
            resample(ResampleReason::Period, status.now);
            return decide_detailed(Phase::Warmup);
        }
        const double band =
            std::max(1.0, params_.concurrencyTolerance *
                              double(sampledConcurrency_));
        if (std::abs(double(status.effectiveConcurrency) -
                     double(sampledConcurrency_)) > band) {
            if (++concurrencyDivergence_ >=
                params_.concurrencyHysteresis) {
                // Contention regime changed (Fig. 4a): samples taken
                // at the old thread count are invalid.
                resample(ResampleReason::Concurrency, status.now);
                return decide_detailed(Phase::Warmup);
            }
        } else {
            concurrencyDivergence_ = 0;
        }
        ++ts_pre.fastStarted;
        ++stats_.fastTasks;
        si.phase = Phase::Fast;
        si.phaseSeq = phaseSeq_;
        return sim::ModeDecision{sim::SimMode::Fast, ipc};
      }
    }
    panic("unreachable sampling phase");
}

void
TaskPointController::taskFinished(const trace::TaskInstance &inst,
                                  ThreadId thread, sim::SimMode mode,
                                  double ipc)
{
    if (thread >= threads_.size()) {
        threads_.resize(thread + 1);
        inFlight_.resize(thread + 1, 0);
    }
    tp_assert(inFlight_[thread] > 0);
    --inFlight_[thread];
    if (mode == sim::SimMode::Fast)
        return;

    tp_assert(inst.id < startInfo_.size());
    const StartInfo &si = startInfo_[inst.id];
    tp_assert(si.decided);
    TypeProfile &prof = profiles_[inst.type];

    if (si.phaseSeq != phaseSeq_) {
        // The phase changed while this instance was in flight: it is
        // no longer a valid sample (Section III-B) but contributes to
        // the history of all samples — unless the run is currently in
        // fast mode, in which case most of this instance executed
        // alongside fast-forwarding threads that emit no memory
        // traffic, i.e. on a contention-free machine. Such
        // measurements are systematically optimistic and would poison
        // the rare-type fallback.
        if (phase_ != Phase::Fast)
            prof.addAnySample(ipc);
        return;
    }

    switch (si.phase) {
      case Phase::Warmup:
        prof.addAnySample(ipc);
        ++threads_[thread].finishedInPhase;
        break;
      case Phase::Sampling:
        prof.addValidSample(ipc);
        detailInstsInSampling_ += inst.instCount;
        // The estimator consumes exactly the valid samples, as CPI:
        // execution time is linear in CPI, not IPC.
        if (estimator_)
            estimator_->addSample(inst.type, 1.0 / ipc);
        break;
      case Phase::Fast:
        panic("detailed completion attributed to the fast phase");
    }
}

void
TaskPointController::state(StateIo &io)
{
    for (TypeProfile &p : profiles_)
        p.state(io);
    io.length(threads_, 1, "controller thread count");
    for (ThreadState &ts : threads_) {
        io.pod(ts.finishedInPhase);
        io.pod(ts.sinceUnsampled);
        io.pod(ts.fastStarted);
        io.flag(ts.inPhase);
    }
    if (io.loading())
        inFlight_.assign(threads_.size(), 0);
    io.block(inFlight_);
    for (StartInfo &si : startInfo_) {
        io.pod(si.phaseSeq);
        io.tag(si.phase, Phase::Fast, "sampling phase tag");
        io.flag(si.decided);
    }
    io.tag(phase_, Phase::Fast, "sampling phase tag");
    io.pod(phaseSeq_);
    io.pod(warmupTarget_);
    io.pod(sampledConcurrency_);
    io.pod(concurrencyDivergence_);
    io.flag(pendingStateAging_);
    if (estimator_)
        estimator_->state(io);
    io.pod(adaptiveStopCycle_);
    io.flag(adaptiveCutoffStopped_);
    io.flag(adaptiveBudgetStopped_);
    io.pod(detailInstsInSampling_);
    io.pod(fastPhaseEntries_);
    io.pod(stats_.warmupTasks);
    io.pod(stats_.sampleTasks);
    io.pod(stats_.fastTasks);
    io.pod(stats_.resamples);
    io.pod(stats_.resamplesPeriod);
    io.pod(stats_.resamplesNewType);
    io.pod(stats_.resamplesConcurrency);
    io.pod(stats_.phaseChanges);
    io.length(phaseLog_, 1, "phase-log length");
    for (PhaseChange &pc : phaseLog_) {
        io.pod(pc.at);
        io.tag(pc.to, Phase::Fast, "sampling phase tag");
    }
}

AdaptiveDiagnostics
TaskPointController::adaptiveDiagnostics() const
{
    AdaptiveDiagnostics d;
    if (!estimator_)
        return d;
    d.enabled = true;
    d.targetError = params_.targetError;
    const double rhw = estimator_->relHalfWidth();
    d.finalRelHalfWidth = std::isfinite(rhw) ? rhw : 0.0;
    d.stopCycle = adaptiveStopCycle_;
    d.allocationRounds = estimator_->allocationRounds();
    d.cutoffStopped = adaptiveCutoffStopped_;
    d.budgetStopped = adaptiveBudgetStopped_;
    d.strataSamples.reserve(estimator_->size());
    for (std::size_t h = 0; h < estimator_->size(); ++h)
        d.strataSamples.push_back(estimator_->samples(h));
    return d;
}

} // namespace tp::sampling
