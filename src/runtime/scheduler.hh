/**
 * @file
 * Dynamic task schedulers (OmpSs runtime model, part 2).
 *
 * The scheduler decides which eligible task instance an idle thread
 * executes next. Because decisions depend on runtime timing, two
 * simulations with different timing models produce different
 * instance-to-thread mappings — the property that motivates TaskPoint
 * over static multi-threaded sampling (paper Sections I-II).
 *
 * Three policies are provided:
 *  - FifoScheduler: one central FIFO ready queue (Nanos++ default-like)
 *  - WorkStealingScheduler: per-thread LIFO deques with random steal
 *  - LocalityScheduler: prefers the thread where the task's last
 *    predecessor ran (data affinity)
 */

#ifndef TP_RUNTIME_SCHEDULER_HH
#define TP_RUNTIME_SCHEDULER_HH

#include <deque>
#include <memory>
#include <vector>

#include "common/binary_io.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace tp::rt {

/** Scheduler interface (see file comment). */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Offer an eligible task.
     * @param id   the eligible instance
     * @param hint thread on which the releasing predecessor completed
     *             (kNoThread for initially eligible tasks)
     */
    virtual void taskReady(TaskInstanceId id, ThreadId hint) = 0;

    /**
     * Request work for an idle thread.
     * @return an instance id, or kNoTaskInstance if none available
     */
    virtual TaskInstanceId nextTask(ThreadId thread) = 0;

    /** @return number of queued (eligible, unassigned) tasks. */
    virtual std::size_t size() const = 0;

    /**
     * Checkpoint the queue contents (and any tie-break RNG state).
     * Loading restores exactly into a scheduler constructed with the
     * same policy and thread count; throws IoError on corruption.
     */
    virtual void state(StateIo &io) = 0;
};

/** Central-queue FIFO scheduler. */
class FifoScheduler : public Scheduler
{
  public:
    void taskReady(TaskInstanceId id, ThreadId hint) override;
    TaskInstanceId nextTask(ThreadId thread) override;
    std::size_t size() const override { return queue_.size(); }
    void state(StateIo &io) override;

  private:
    std::deque<TaskInstanceId> queue_;
};

/** Per-thread deques with random-victim stealing. */
class WorkStealingScheduler : public Scheduler
{
  public:
    /**
     * @param num_threads deque count
     * @param seed        steal-victim RNG seed (determinism)
     */
    WorkStealingScheduler(std::uint32_t num_threads,
                          std::uint64_t seed);

    void taskReady(TaskInstanceId id, ThreadId hint) override;
    TaskInstanceId nextTask(ThreadId thread) override;
    std::size_t size() const override { return queued_; }
    void state(StateIo &io) override;

  private:
    std::vector<std::deque<TaskInstanceId>> deques_;
    Rng rng_;
    std::size_t queued_ = 0;
};

/** Affinity scheduler: local queue first, then oldest global work. */
class LocalityScheduler : public Scheduler
{
  public:
    explicit LocalityScheduler(std::uint32_t num_threads);

    void taskReady(TaskInstanceId id, ThreadId hint) override;
    TaskInstanceId nextTask(ThreadId thread) override;
    std::size_t size() const override;
    void state(StateIo &io) override;

  private:
    std::vector<std::deque<TaskInstanceId>> local_;
    std::deque<TaskInstanceId> global_;
};

/** Scheduler policy selector. */
enum class SchedulerKind { Fifo, WorkStealing, Locality };

/** @return the policy's report name: "fifo", "steal" or "locality". */
const char *toString(SchedulerKind kind);

/** Build a scheduler. */
std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind, std::uint32_t num_threads,
              std::uint64_t seed);

} // namespace tp::rt

#endif // TP_RUNTIME_SCHEDULER_HH
