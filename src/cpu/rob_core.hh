/**
 * @file
 * Detailed out-of-order core model: Reorder-Buffer Occupancy Analysis.
 *
 * TaskSim's detailed mode is based on the ROB occupancy analysis model
 * of Lee et al. [21] (paper Section IV): instructions are dispatched
 * in order up to the issue width, complete out of order after their
 * register dependencies resolve and their (memory) latency elapses,
 * and commit in order up to the commit width. A full ROB stalls
 * dispatch, so a long-latency load at the head exposes memory latency
 * while younger independent misses overlap (MLP within the ROB
 * window).
 *
 * The model is resumable in quanta of instructions so that the engine
 * can interleave detailed cores in approximate global-time order —
 * required for faithful contention at shared resources.
 *
 * The ROB ring is the only record of completion times: a register
 * dependency on a producer still in the ring reads its slot, and a
 * producer that already left the ring committed no later than the
 * dependent instruction's dispatch, so it cannot delay it.
 */

#ifndef TP_CPU_ROB_CORE_HH
#define TP_CPU_ROB_CORE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "cpu/arch_config.hh"
#include "memory/hierarchy.hh"
#include "trace/instr_stream.hh"
#include "trace/task.hh"

namespace tp::cpu {

/** Resumable detailed core (see file comment). */
class RobCore
{
  public:
    /**
     * @param config core parameters (ROB, widths)
     * @param mem    shared memory hierarchy (not owned)
     * @param id     this core's id (selects the private caches)
     */
    RobCore(const CoreConfig &config, mem::Hierarchy &mem, ThreadId id);

    /**
     * Start executing one task instance at global cycle `start`.
     * Any previous task must have finished (pipeline drained between
     * tasks, as the runtime intervenes at task boundaries).
     */
    void beginTask(const trace::TaskType &type,
                   const trace::TaskInstance &inst, Cycles start);

    /**
     * Execute up to `quantum` instructions of the current task.
     * @return true when the task has fully committed
     */
    bool step(InstCount quantum);

    /** @return true if a task is loaded and not yet finished. */
    bool busy() const { return stream_.has_value(); }

    /**
     * Approximate current global cycle of this core: the cycle of
     * its last dispatch (the task's start before the first one).
     * The engine keys a mid-task core by it to pick the lagging core
     * for the next quantum.
     */
    Cycles localNow() const { return dispatch_.cycle; }

    /** @return commit cycle of the task's last instruction. */
    Cycles finishTime() const;

    /**
     * Checkpoint state: the in-flight instruction stream position
     * (if any), the pipeline clocks and the ROB contents.
     * Configuration is fixed by construction and not serialized. On
     * load, when the saved core had a task in flight, `type`/`inst`
     * must name that task (the engine knows it from its own restored
     * per-core state) so the instruction stream can be rebuilt; they
     * may be null otherwise. Throws IoError on inconsistency.
     */
    void state(StateIo &io, const trace::TaskType *type,
               const trace::TaskInstance *inst);

  private:
    /** Track a width-limited per-cycle resource (dispatch/commit). */
    struct WidthLimiter
    {
        Cycles cycle = 0;
        std::uint32_t used = 0;
        std::uint32_t width = 1;

        /**
         * Reserve one slot at or after `at`; @return slot cycle.
         * Written with selects instead of branches: whether `at`
         * overtakes the current cycle is data-dependent and
         * mispredicts badly in the per-instruction loop.
         */
        Cycles
        reserve(Cycles at)
        {
            const bool adv = at > cycle;
            cycle = adv ? at : cycle;
            used = adv ? 0 : used;
            const bool full = used >= width;
            cycle = full ? cycle + 1 : cycle;
            used = full ? 0 : used;
            ++used;
            return cycle;
        }

        void
        reset(Cycles at, std::uint32_t w)
        {
            cycle = at;
            used = 0;
            width = w;
        }
    };

    /** Commit the oldest ROB entry; @return its commit cycle. */
    Cycles commitHead();

    CoreConfig config_;
    mem::Hierarchy &mem_;
    ThreadId id_;

    std::optional<trace::InstrStream> stream_;

    /**
     * Staging buffer for batched instruction generation: step()
     * consumes the stream through InstrStream::fillBlock in chunks
     * of up to kBlockSize, which keeps the generator state in
     * registers instead of paying a per-instruction call and member
     * round-trip.
     */
    static constexpr InstCount kBlockSize = 256;
    std::array<trace::Instr, kBlockSize> block_;

    Cycles lastCommit_ = 0;

    WidthLimiter dispatch_;
    WidthLimiter commit_;

    /**
     * Completion times of in-flight (uncommitted) instructions,
     * oldest at robHead_; also the register-dependency lookup.
     */
    std::vector<Cycles> rob_;
    std::size_t robHead_ = 0;
    std::size_t robCount_ = 0;
};

} // namespace tp::cpu

#endif // TP_CPU_ROB_CORE_HH
