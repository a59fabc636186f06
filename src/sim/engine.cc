#include "sim/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "sim/trace_observer.hh"

namespace tp::sim {

Engine::Engine(const RunSpec &config, const trace::TaskTrace &trace)
    : config_(config), trace_(trace),
      mem_(config.arch.memory, config.threads),
      runtime_(trace, config.runtime, config.threads),
      noise_(config.noise), events_(config.threads)
{
    if (config_.threads == 0)
        fatal("simulation needs at least one thread");
    if (config_.quantum == 0)
        fatal("quantum must be positive");

    cores_.reserve(config_.threads);
    for (ThreadId c = 0; c < config_.threads; ++c)
        cores_.emplace_back(config_.arch.core, mem_, c);
    states_.resize(config_.threads);
}

EngineStatus
Engine::status(Cycles now) const
{
    // Busy cores, the one being assigned and the queued tasks.
    const std::uint64_t could_run =
        events_.size() + 1 + runtime_.readyCount();
    EngineStatus st;
    st.now = now;
    st.effectiveConcurrency = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(could_run, config_.threads));
    return st;
}

void
Engine::pollObserverPhase(Cycles at)
{
    // Only called with observer_ != nullptr. Read-only with respect
    // to simulated state: attaching an observer cannot perturb a run.
    const std::uint8_t p = controller_ != nullptr
                               ? controller_->observerPhase()
                               : kDetailedOnlyPhase;
    if (p != observerPhase_) {
        observerPhase_ = p;
        observer_->onPhaseChange(at, p);
    }
}

void
Engine::startTask(ThreadId core, TaskInstanceId id, Cycles now)
{
    const trace::TaskInstance &inst = trace_.instance(id);
    const trace::TaskType &type = trace_.type(inst.type);
    const Cycles start = now + runtime_.dispatchOverhead();

    ModeDecision decision; // default: detailed
    if (controller_ != nullptr)
        decision = controller_->decideTask(inst, core, status(now));

    if (decision.reconstructState) {
        mem_.applyFastForwardAging(fastInstsSinceAging_);
        fastInstsSinceAging_ = 0;
    }

    CoreState &s = states_[core];
    s.task = id;
    s.start = start;
    if (decision.mode == SimMode::Detailed) {
        s.st = CoreState::St::Detailed;
        cores_[core].beginTask(type, inst, start);
        // localNow() == start right after beginTask.
        events_.update(core, start);
    } else {
        if (!(decision.fastIpc > 0.0))
            panic("fast-mode decision without a positive IPC");
        s.st = CoreState::St::Fast;
        const auto cycles = static_cast<Cycles>(std::ceil(
            static_cast<double>(inst.instCount) / decision.fastIpc));
        fastInstsSinceAging_ += inst.instCount;
        events_.update(core, start + std::max<Cycles>(cycles, 1));
    }

    if (observer_ != nullptr) {
        pollObserverPhase(now); // decideTask may have moved the phase
        observer_->onTaskScheduled(core, id, now);
    }
}

void
Engine::completeTask(ThreadId core, Cycles finish)
{
    CoreState &s = states_[core];
    tp_assert(s.st != CoreState::St::Idle);
    const trace::TaskInstance &inst = trace_.instance(s.task);
    const SimMode mode = s.st == CoreState::St::Detailed
                             ? SimMode::Detailed
                             : SimMode::Fast;

    if (mode == SimMode::Detailed && noise_.enabled()) {
        const Cycles dur = finish - s.start;
        finish = s.start + noise_.perturb(dur);
    }

    const Cycles start_cycles = s.start;
    const Cycles dur = finish > s.start ? finish - s.start : Cycles{1};
    const double ipc =
        static_cast<double>(inst.instCount) / static_cast<double>(dur);

    if (mode == SimMode::Detailed) {
        ++result_.detailedTasks;
        result_.detailedInsts += inst.instCount;
    } else {
        ++result_.fastTasks;
        result_.fastInsts += inst.instCount;
    }
    busyCycles_ += dur;
    lastCompletion_ = std::max(lastCompletion_, finish);

    if (config_.recordTasks) {
        result_.tasks.push_back(TaskRecord{inst.id, inst.type, core,
                                           s.start, finish,
                                           inst.instCount, mode, ipc});
    }

    s.st = CoreState::St::Idle;
    s.task = kNoTaskInstance;
    events_.remove(core);

    runtime_.taskCompleted(inst.id, core);

    if (controller_ != nullptr)
        controller_->taskFinished(inst, core, mode, ipc);

    if (observer_ != nullptr) {
        pollObserverPhase(finish); // taskFinished may move the phase
        observer_->onTaskEnd(core, inst, start_cycles, finish, mode,
                             ipc, runtime_.readyCount());
    }

    assignTasks(finish);
}

void
Engine::assignTasks(Cycles now)
{
    for (ThreadId c = 0; c < config_.threads; ++c) {
        if (states_[c].st != CoreState::St::Idle)
            continue;
        const TaskInstanceId id = runtime_.fetchTask(c);
        if (id == kNoTaskInstance)
            break; // scheduler empty (FIFO/steal both drain globally)
        startTask(c, id, now);
    }
}

void
Engine::state(StateIo &io)
{
    io.pod(lastCompletion_);
    io.pod(busyCycles_);
    io.pod(fastInstsSinceAging_);
    io.pod(result_.detailedTasks);
    io.pod(result_.fastTasks);
    io.pod(result_.detailedInsts);
    io.pod(result_.fastInsts);
    for (CoreState &s : states_) {
        io.tag(s.st, CoreState::St::Fast, "core state tag");
        io.pod(s.task);
        io.pod(s.start);
        if (io.loading() && s.st != CoreState::St::Idle &&
            s.task >= trace_.size())
            io.corrupt("core task id (out of range)");
    }
    for (ThreadId c = 0; c < config_.threads; ++c) {
        const CoreState &s = states_[c];
        // A detailed core at a sample boundary is always mid-task;
        // on load its instruction stream is rebuilt from the trace
        // and then repositioned by RobCore::state.
        const trace::TaskInstance *inst =
            s.st == CoreState::St::Detailed ? &trace_.instance(s.task)
                                            : nullptr;
        const trace::TaskType *type =
            inst != nullptr ? &trace_.type(inst->type) : nullptr;
        cores_[c].state(io, type, inst);
    }
    events_.state(io);
    mem_.state(io);
    runtime_.state(io);
    noise_.state(io);
}

SimResult
Engine::run(ModeController *controller, const CheckpointHooks *hooks)
{
    if (ran_)
        fatal("Engine::run may only be called once per instance");
    ran_ = true;
    controller_ = controller;
    const auto wall_start = std::chrono::steady_clock::now();

    // Sample-boundary bookkeeping (sim/checkpoint.hh): any loop-top
    // change of the controller's phase epoch counts as exactly one
    // boundary. Recording and slicing runs observe the identical
    // deterministic event sequence, so the boundary indices — and
    // therefore the interval slices — tile the run exactly.
    std::uint64_t boundary_count = 0;
    std::size_t state_bytes = 0; // last recorded payload size
    if (observer_ != nullptr) {
        std::vector<std::string> type_names;
        type_names.reserve(trace_.types().size());
        for (const trace::TaskType &t : trace_.types())
            type_names.push_back(t.name);
        observer_->onRunBegin(config_.threads, type_names);
    }
    if (hooks != nullptr && hooks->restore != nullptr) {
        if (controller_ == nullptr)
            fatal("checkpoint restore requires a mode controller");
        const std::string &saved = hooks->restore->state;
        ByteViewBuf view(saved.data(), saved.size());
        std::istream is(&view);
        BinaryReader r(is, "checkpoint");
        StateIo io(r);
        controller_->state(io);
        state(io);
        r.expectEof();
        boundary_count = hooks->restore->boundary;
        if (observer_ != nullptr)
            pollObserverPhase(lastCompletion_);
    } else {
        if (observer_ != nullptr)
            pollObserverPhase(0); // initial phase at cycle 0
        assignTasks(0);
    }
    std::uint64_t seen_epoch =
        controller_ != nullptr ? controller_->phaseEpoch() : 0;

    while (!runtime_.allDone()) {
        if (controller_ != nullptr &&
            (hooks != nullptr || observer_ != nullptr)) {
            const std::uint64_t epoch = controller_->phaseEpoch();
            if (epoch != seen_epoch) {
                seen_epoch = epoch;
                ++boundary_count;
                // Stop *before* processing any post-boundary event:
                // the next slice restores the state captured here.
                if (hooks != nullptr && hooks->stopBoundary != 0 &&
                    boundary_count >= hooks->stopBoundary) {
                    break;
                }
                if (observer_ != nullptr) {
                    observer_->onSampleBoundary(
                        boundary_count, lastCompletion_, mem_.stats());
                }
                if (hooks != nullptr && hooks->record) {
                    Checkpoint cp;
                    cp.boundary = boundary_count;
                    {
                        // One buffer per boundary: the stream writes
                        // into the capacity reserved from the last
                        // boundary's size (plus headroom for the
                        // state that grows) and hands the buffer
                        // back without a copy. The encoder's block
                        // buffer is freed before `record` runs.
                        std::string payload;
                        payload.reserve(state_bytes + state_bytes / 8);
                        std::ostringstream os(std::move(payload),
                                              std::ios::binary);
                        BinaryWriter w(os);
                        StateIo io(w);
                        controller_->state(io);
                        state(io);
                        if (!w.good())
                            fatal("checkpoint serialization failed");
                        cp.state = std::move(os).str();
                    }
                    state_bytes = cp.state.size();
                    hooks->record(std::move(cp));
                }
            }
        }
        // Pick the lagging core: fast cores are keyed by their known
        // completion time, detailed cores by their local progress.
        // The queue orders by (time, core id) — identical to the
        // linear scan it replaced — and is maintained by startTask /
        // completeTask and the post-step update below.
        if (events_.empty()) {
            panic("deadlock: %llu of %llu tasks completed but no core "
                  "is runnable",
                  static_cast<unsigned long long>(
                      runtime_.numCompleted()),
                  static_cast<unsigned long long>(trace_.size()));
        }
        const ThreadId best = events_.top();

        if (states_[best].st == CoreState::St::Fast) {
            completeTask(best, events_.topKey());
        } else if (cores_[best].step(config_.quantum)) {
            completeTask(best, cores_[best].finishTime());
        } else {
            events_.update(best, cores_[best].localNow());
        }
    }

    const auto wall_end = std::chrono::steady_clock::now();
    result_.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    result_.totalCycles = lastCompletion_;
    result_.avgActiveCores =
        lastCompletion_ > 0
            ? static_cast<double>(busyCycles_) /
                  static_cast<double>(lastCompletion_)
            : 0.0;
    result_.memStats = mem_.stats();

    if (observer_ != nullptr)
        observer_->onRunEnd(lastCompletion_);

    controller_ = nullptr;
    return result_;
}

} // namespace tp::sim
