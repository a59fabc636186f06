#include "runtime/dep_tracker.hh"

#include "common/logging.hh"

namespace tp::rt {

DepTracker::DepTracker(const trace::TaskTrace &trace) : trace_(trace)
{
    reset();
}

void
DepTracker::reset()
{
    const std::size_t n = trace_.size();
    remainingDeps_.resize(n);
    for (TaskInstanceId i = 0; i < n; ++i)
        remainingDeps_[i] = trace_.inDegree(i);
    done_.assign(n, false);
    epochRemaining_.resize(trace_.numEpochs());
    for (std::uint32_t e = 0; e < trace_.numEpochs(); ++e)
        epochRemaining_[e] = trace_.epochSize(e);
    currentEpoch_ = 0;
    completed_ = 0;
}

void
DepTracker::state(StateIo &io)
{
    io.count(remainingDeps_.size(), "dependency-tracker size");
    io.block(remainingDeps_);
    for (auto &&done : done_)
        io.flag(done);
    io.block(epochRemaining_);
    io.pod(currentEpoch_);
    io.pod(completed_);
    if (io.loading() && (currentEpoch_ >= trace_.numEpochs() ||
                         completed_ > trace_.size()))
        io.corrupt("dependency-tracker counters");
}

std::vector<TaskInstanceId>
DepTracker::initialReady() const
{
    std::vector<TaskInstanceId> ready;
    for (TaskInstanceId i = 0; i < trace_.size(); ++i) {
        const trace::TaskInstance &ti = trace_.instance(i);
        if (ti.epoch > currentEpoch_)
            break; // instances are epoch-sorted by construction
        if (remainingDeps_[i] == 0)
            ready.push_back(i);
    }
    return ready;
}

std::vector<TaskInstanceId>
DepTracker::complete(TaskInstanceId id)
{
    tp_assert(id < trace_.size());
    tp_assert(!done_[id]);
    tp_assert(trace_.instance(id).epoch == currentEpoch_);

    done_[id] = true;
    ++completed_;

    std::vector<TaskInstanceId> ready;
    for (TaskInstanceId s : trace_.successors(id)) {
        tp_assert(remainingDeps_[s] > 0);
        if (--remainingDeps_[s] == 0 &&
            trace_.instance(s).epoch == currentEpoch_) {
            ready.push_back(s);
        }
    }

    tp_assert(epochRemaining_[currentEpoch_] > 0);
    if (--epochRemaining_[currentEpoch_] == 0 &&
        currentEpoch_ + 1 < trace_.numEpochs()) {
        // Barrier opens: release the next epoch's unblocked tasks.
        ++currentEpoch_;
        for (TaskInstanceId i = 0; i < trace_.size(); ++i) {
            const trace::TaskInstance &ti = trace_.instance(i);
            if (ti.epoch < currentEpoch_)
                continue;
            if (ti.epoch > currentEpoch_)
                break;
            if (remainingDeps_[i] == 0 && !done_[i])
                ready.push_back(i);
        }
    }
    return ready;
}

} // namespace tp::rt
