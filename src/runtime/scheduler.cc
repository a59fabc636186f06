#include "runtime/scheduler.hh"

#include "common/logging.hh"

namespace tp::rt {

namespace {

void
queueState(StateIo &io, std::deque<TaskInstanceId> &q)
{
    io.length(q, sizeof(TaskInstanceId), "scheduler queue length");
    for (TaskInstanceId &id : q)
        io.pod(id);
}

} // namespace

void
FifoScheduler::taskReady(TaskInstanceId id, ThreadId hint)
{
    (void)hint;
    queue_.push_back(id);
}

TaskInstanceId
FifoScheduler::nextTask(ThreadId thread)
{
    (void)thread;
    if (queue_.empty())
        return kNoTaskInstance;
    const TaskInstanceId id = queue_.front();
    queue_.pop_front();
    return id;
}

void
FifoScheduler::state(StateIo &io)
{
    queueState(io, queue_);
}

WorkStealingScheduler::WorkStealingScheduler(std::uint32_t num_threads,
                                             std::uint64_t seed)
    : deques_(num_threads), rng_(seed)
{
    tp_assert(num_threads > 0);
}

void
WorkStealingScheduler::taskReady(TaskInstanceId id, ThreadId hint)
{
    const std::size_t q =
        hint == kNoThread ? 0 : hint % deques_.size();
    deques_[q].push_back(id);
    ++queued_;
}

TaskInstanceId
WorkStealingScheduler::nextTask(ThreadId thread)
{
    if (queued_ == 0)
        return kNoTaskInstance;
    auto &own = deques_[thread % deques_.size()];
    if (!own.empty()) {
        // LIFO pop on the owner's side (cache-hot child tasks first).
        const TaskInstanceId id = own.back();
        own.pop_back();
        --queued_;
        return id;
    }
    // Steal from a random victim, FIFO side (oldest work).
    const std::size_t n = deques_.size();
    std::size_t v = static_cast<std::size_t>(rng_.nextBounded(n));
    for (std::size_t k = 0; k < n; ++k, v = (v + 1) % n) {
        if (!deques_[v].empty()) {
            const TaskInstanceId id = deques_[v].front();
            deques_[v].pop_front();
            --queued_;
            return id;
        }
    }
    panic("work-stealing bookkeeping out of sync");
}

void
WorkStealingScheduler::state(StateIo &io)
{
    for (auto &q : deques_)
        queueState(io, q);
    rng_.state(io);
    if (io.loading()) {
        queued_ = 0;
        for (const auto &q : deques_)
            queued_ += q.size();
    }
}

LocalityScheduler::LocalityScheduler(std::uint32_t num_threads)
    : local_(num_threads)
{
    tp_assert(num_threads > 0);
}

void
LocalityScheduler::taskReady(TaskInstanceId id, ThreadId hint)
{
    if (hint == kNoThread) {
        global_.push_back(id);
    } else {
        local_[hint % local_.size()].push_back(id);
    }
}

TaskInstanceId
LocalityScheduler::nextTask(ThreadId thread)
{
    auto &own = local_[thread % local_.size()];
    if (!own.empty()) {
        const TaskInstanceId id = own.front();
        own.pop_front();
        return id;
    }
    if (!global_.empty()) {
        const TaskInstanceId id = global_.front();
        global_.pop_front();
        return id;
    }
    // Help out: take the oldest task from the fullest local queue.
    std::size_t best = local_.size();
    std::size_t best_size = 0;
    for (std::size_t q = 0; q < local_.size(); ++q) {
        if (local_[q].size() > best_size) {
            best = q;
            best_size = local_[q].size();
        }
    }
    if (best == local_.size())
        return kNoTaskInstance;
    const TaskInstanceId id = local_[best].front();
    local_[best].pop_front();
    return id;
}

std::size_t
LocalityScheduler::size() const
{
    std::size_t n = global_.size();
    for (const auto &q : local_)
        n += q.size();
    return n;
}

void
LocalityScheduler::state(StateIo &io)
{
    for (auto &q : local_)
        queueState(io, q);
    queueState(io, global_);
}

const char *
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return "fifo";
      case SchedulerKind::WorkStealing:
        return "steal";
      case SchedulerKind::Locality:
        return "locality";
    }
    panic("unreachable scheduler kind");
}

std::unique_ptr<Scheduler>
makeScheduler(SchedulerKind kind, std::uint32_t num_threads,
              std::uint64_t seed)
{
    switch (kind) {
      case SchedulerKind::Fifo:
        return std::make_unique<FifoScheduler>();
      case SchedulerKind::WorkStealing:
        return std::make_unique<WorkStealingScheduler>(num_threads,
                                                       seed);
      case SchedulerKind::Locality:
        return std::make_unique<LocalityScheduler>(num_threads);
    }
    panic("unreachable scheduler kind");
}

} // namespace tp::rt
