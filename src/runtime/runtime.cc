#include "runtime/runtime.hh"

#include "common/logging.hh"

namespace tp::rt {

RuntimeModel::RuntimeModel(const trace::TaskTrace &trace,
                           const RuntimeConfig &config,
                           std::uint32_t num_threads)
    : config_(config), tracker_(trace),
      scheduler_(makeScheduler(config.scheduler, num_threads,
                               config.seed))
{
    for (TaskInstanceId id : tracker_.initialReady())
        scheduler_->taskReady(id, kNoThread);
}

TaskInstanceId
RuntimeModel::fetchTask(ThreadId thread)
{
    return scheduler_->nextTask(thread);
}

void
RuntimeModel::taskCompleted(TaskInstanceId id, ThreadId thread)
{
    for (TaskInstanceId ready : tracker_.complete(id))
        scheduler_->taskReady(ready, thread);
}

} // namespace tp::rt
