/**
 * @file
 * Interface between the engine and a sampling methodology.
 *
 * The engine consults a ModeController at every task-instance start
 * (the only legal mode-switch point) and reports every completion.
 * TaskPoint (src/sampling) is the production implementation; the
 * engine with a null controller is the full-detail reference
 * simulator.
 */

#ifndef TP_SIM_MODE_CONTROLLER_HH
#define TP_SIM_MODE_CONTROLLER_HH

#include "common/binary_io.hh"
#include "common/types.hh"
#include "sim/sim_mode.hh"
#include "trace/task.hh"

namespace tp::sim {

/** Engine state snapshot passed to decideTask. */
struct EngineStatus
{
    Cycles now = 0;
    /**
     * Threads that *could* be executing right now: cores executing a
     * task (the one being assigned included) plus eligible tasks
     * still waiting for assignment, capped at the core count. This is
     * the paper's "number of threads participating in task execution"
     * without the instantaneous assignment ramp right after a barrier
     * opens.
     */
    std::uint32_t effectiveConcurrency = 0;
};

/** Controller verdict for one task instance. */
struct ModeDecision
{
    SimMode mode = SimMode::Detailed;
    /** IPC to apply in fast mode; ignored for detailed. */
    double fastIpc = 1.0;
    /**
     * Set on the first detailed decision after leaving fast mode:
     * the engine must age micro-architectural state in proportion to
     * the fast-forwarded work before re-warming (state frozen during
     * fast simulation is otherwise artificially warm).
     */
    bool reconstructState = false;
};

/** See file comment. */
class ModeController
{
  public:
    virtual ~ModeController() = default;

    /** Decide how to simulate `inst`, starting now on `thread`. */
    virtual ModeDecision decideTask(const trace::TaskInstance &inst,
                                    ThreadId thread,
                                    const EngineStatus &status) = 0;

    /**
     * Observe a completion.
     * @param ipc measured IPC for detailed tasks; the applied
     *            prediction for fast tasks
     */
    virtual void taskFinished(const trace::TaskInstance &inst,
                              ThreadId thread, SimMode mode,
                              double ipc) = 0;

    /**
     * Monotone counter the engine polls to detect checkpointable
     * sample boundaries: each increment marks the start of a new
     * fast-forward regime (warm state is maximally aged there, so a
     * checkpoint taken at the increment captures a stable point the
     * run can later be resumed from). Controllers without a phase
     * structure never advance it, which disables checkpointing.
     */
    virtual std::uint64_t phaseEpoch() const { return 0; }

    /**
     * Current sampling-phase code for trace observers (see
     * sim/trace_observer.hh). Controllers without a phase structure
     * report kDetailedOnlyPhase (3), matching the null-controller
     * reference simulation.
     */
    virtual std::uint8_t observerPhase() const { return 3; }

    /**
     * Write or read the controller's dynamic checkpoint state: one
     * declaration serves both directions (StateIo,
     * common/binary_io.hh). Controllers that advance phaseEpoch()
     * must override it; the default stores nothing.
     */
    virtual void state(StateIo &) {}
};

} // namespace tp::sim

#endif // TP_SIM_MODE_CONTROLLER_HH
