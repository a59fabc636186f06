/**
 * @file
 * Dependency tracking over a task trace (OmpSs runtime model, part 1).
 *
 * Mirrors what the Nanos++/OmpSs runtime does with the in/out/inout
 * annotations: a task instance becomes *eligible* once all its data
 * predecessors completed and all tasks of earlier barrier epochs
 * (taskwait) completed. Eligibility order is dynamic — it depends on
 * completion order, which depends on timing — which is exactly why
 * task-based programs defeat static sampling techniques (paper
 * Section I).
 */

#ifndef TP_RUNTIME_DEP_TRACKER_HH
#define TP_RUNTIME_DEP_TRACKER_HH

#include <cstdint>
#include <vector>

#include "common/binary_io.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace tp::rt {

/** See file comment. */
class DepTracker
{
  public:
    explicit DepTracker(const trace::TaskTrace &trace);

    /**
     * @return the instances eligible at time zero (no predecessors,
     *         first epoch), in creation order.
     */
    std::vector<TaskInstanceId> initialReady() const;

    /**
     * Mark `id` complete.
     * @return instances that became eligible as a result, in creation
     *         order (data successors, plus the next epoch's
     *         zero-in-degree tasks when a barrier opens)
     */
    std::vector<TaskInstanceId> complete(TaskInstanceId id);

    /** @return number of completed instances. */
    std::uint64_t numCompleted() const { return completed_; }

    /** @return true when every instance has completed. */
    bool allDone() const { return completed_ == trace_.size(); }

    /** @return barrier epoch currently executing. */
    std::uint32_t currentEpoch() const { return currentEpoch_; }

    /** Reset to the initial state (for a fresh simulation run). */
    void reset();

    /**
     * Checkpoint the dependency/epoch state (trace is fixed); throws
     * IoError on mismatch.
     */
    void state(StateIo &io);

  private:
    const trace::TaskTrace &trace_;
    std::vector<std::uint32_t> remainingDeps_;
    std::vector<bool> done_;
    std::vector<std::uint64_t> epochRemaining_;
    std::uint32_t currentEpoch_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace tp::rt

#endif // TP_RUNTIME_DEP_TRACKER_HH
