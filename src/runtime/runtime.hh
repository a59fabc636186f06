/**
 * @file
 * The task runtime model: dependency tracking + dynamic scheduling.
 *
 * This is the simulator-facing facade of the OmpSs runtime: the engine
 * asks for work on behalf of idle threads and reports completions; the
 * runtime keeps the dependency state and the ready queues consistent
 * and accounts the per-task dispatch overhead the real runtime incurs.
 */

#ifndef TP_RUNTIME_RUNTIME_HH
#define TP_RUNTIME_RUNTIME_HH

#include <memory>

#include "common/types.hh"
#include "runtime/dep_tracker.hh"
#include "runtime/scheduler.hh"
#include "trace/trace.hh"

namespace tp::rt {

/** Runtime configuration knobs. */
struct RuntimeConfig
{
    SchedulerKind scheduler = SchedulerKind::Fifo;
    /** Cycles of runtime work per task dispatch (scheduling cost). */
    Cycles dispatchOverhead = 200;
    /** Seed of the work-stealing scheduler's steal-victim RNG. */
    std::uint64_t seed = 12345;
};

/** See file comment. */
class RuntimeModel
{
  public:
    /**
     * @param trace  application task graph (not owned; must outlive)
     * @param config scheduler policy and overheads
     * @param num_threads worker thread count
     */
    RuntimeModel(const trace::TaskTrace &trace,
                 const RuntimeConfig &config,
                 std::uint32_t num_threads);

    /**
     * Fetch work for an idle thread.
     * @return instance id or kNoTaskInstance when nothing is eligible
     */
    TaskInstanceId fetchTask(ThreadId thread);

    /**
     * Report completion of `id` on `thread`; newly eligible tasks are
     * queued with `thread` as the locality hint.
     */
    void taskCompleted(TaskInstanceId id, ThreadId thread);

    /** @return true when every instance completed. */
    bool allDone() const { return tracker_.allDone(); }

    /** @return number of eligible tasks waiting for a thread. */
    std::size_t readyCount() const { return scheduler_->size(); }

    /** @return completed instance count. */
    std::uint64_t numCompleted() const
    {
        return tracker_.numCompleted();
    }

    /** @return per-task dispatch overhead in cycles. */
    Cycles dispatchOverhead() const
    {
        return config_.dispatchOverhead;
    }

    /** Checkpoint dependency + scheduler state (trace/config fixed). */
    void
    state(StateIo &io)
    {
        tracker_.state(io);
        scheduler_->state(io);
    }

  private:
    RuntimeConfig config_;
    DepTracker tracker_;
    std::unique_ptr<Scheduler> scheduler_;
};

} // namespace tp::rt

#endif // TP_RUNTIME_RUNTIME_HH
