/**
 * @file
 * Unit tests for the runtime model: dependency tracking (including
 * barrier epochs) and the three schedulers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "runtime/dep_tracker.hh"
#include "runtime/runtime.hh"
#include "runtime/scheduler.hh"
#include "trace/trace_builder.hh"

namespace tp::rt {
namespace {

trace::TaskTrace
diamondTrace()
{
    // 0 -> {1, 2} -> 3, then a barrier, then 4.
    trace::TraceBuilder b("diamond", 3);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    const auto a = b.createTask(ty, 100);
    const auto l = b.createTask(ty, 100);
    const auto r = b.createTask(ty, 100);
    const auto j = b.createTask(ty, 100);
    b.addDependency(a, l);
    b.addDependency(a, r);
    b.addDependency(l, j);
    b.addDependency(r, j);
    b.barrier();
    b.createTask(ty, 100);
    return b.build();
}

TEST(DepTracker, InitialReadyRespectsDependencies)
{
    const trace::TaskTrace t = diamondTrace();
    DepTracker d(t);
    const auto ready = d.initialReady();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], 0u);
}

TEST(DepTracker, CompleteReleasesSuccessors)
{
    const trace::TaskTrace t = diamondTrace();
    DepTracker d(t);
    auto next = d.complete(0);
    std::sort(next.begin(), next.end());
    ASSERT_EQ(next.size(), 2u);
    EXPECT_EQ(next[0], 1u);
    EXPECT_EQ(next[1], 2u);
    EXPECT_TRUE(d.complete(1).empty()); // join waits for both
    next = d.complete(2);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0], 3u);
}

TEST(DepTracker, BarrierGatesNextEpoch)
{
    const trace::TaskTrace t = diamondTrace();
    DepTracker d(t);
    d.complete(0);
    d.complete(1);
    d.complete(2);
    EXPECT_EQ(d.currentEpoch(), 0u);
    const auto next = d.complete(3); // last of epoch 0
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0], 4u);
    EXPECT_EQ(d.currentEpoch(), 1u);
    d.complete(4);
    EXPECT_TRUE(d.allDone());
}

TEST(DepTracker, FullTopologicalDrainVisitsEveryTask)
{
    const trace::TaskTrace t = diamondTrace();
    DepTracker d(t);
    std::vector<TaskInstanceId> frontier = d.initialReady();
    std::set<TaskInstanceId> done;
    while (!frontier.empty()) {
        const TaskInstanceId id = frontier.back();
        frontier.pop_back();
        EXPECT_TRUE(done.insert(id).second) << "task ran twice";
        for (TaskInstanceId n : d.complete(id))
            frontier.push_back(n);
    }
    EXPECT_EQ(done.size(), t.size());
    EXPECT_TRUE(d.allDone());
}

TEST(DepTracker, ResetRestoresInitialState)
{
    const trace::TaskTrace t = diamondTrace();
    DepTracker d(t);
    d.complete(0);
    d.reset();
    EXPECT_EQ(d.numCompleted(), 0u);
    EXPECT_EQ(d.initialReady().size(), 1u);
}

TEST(FifoScheduler, FifoOrder)
{
    FifoScheduler s;
    s.taskReady(10, kNoThread);
    s.taskReady(20, 1);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.nextTask(0), 10u);
    EXPECT_EQ(s.nextTask(0), 20u);
    EXPECT_EQ(s.nextTask(0), kNoTaskInstance);
    EXPECT_EQ(s.size(), 0u);
}

TEST(WorkStealingScheduler, OwnerPopsLifo)
{
    WorkStealingScheduler s(2, 1);
    s.taskReady(1, 0);
    s.taskReady(2, 0);
    EXPECT_EQ(s.nextTask(0), 2u); // LIFO on own deque
    EXPECT_EQ(s.nextTask(0), 1u);
}

TEST(WorkStealingScheduler, ThiefStealsOldest)
{
    WorkStealingScheduler s(2, 1);
    s.taskReady(1, 0);
    s.taskReady(2, 0);
    EXPECT_EQ(s.nextTask(1), 1u); // FIFO from victim
    EXPECT_EQ(s.size(), 1u);
}

TEST(WorkStealingScheduler, DrainsCompletely)
{
    WorkStealingScheduler s(4, 9);
    for (TaskInstanceId i = 0; i < 100; ++i)
        s.taskReady(i, static_cast<ThreadId>(i % 4));
    std::set<TaskInstanceId> seen;
    for (int i = 0; i < 100; ++i) {
        const TaskInstanceId id =
            s.nextTask(static_cast<ThreadId>(i % 3));
        ASSERT_NE(id, kNoTaskInstance);
        EXPECT_TRUE(seen.insert(id).second);
    }
    EXPECT_EQ(s.size(), 0u);
}

TEST(LocalityScheduler, PrefersLocalQueue)
{
    LocalityScheduler s(2);
    s.taskReady(1, kNoThread); // global
    s.taskReady(2, 0);         // local to thread 0
    EXPECT_EQ(s.nextTask(0), 2u);
    EXPECT_EQ(s.nextTask(0), 1u);
}

TEST(LocalityScheduler, HelpsFromFullestQueueWhenStarved)
{
    LocalityScheduler s(2);
    s.taskReady(1, 0);
    s.taskReady(2, 0);
    EXPECT_EQ(s.nextTask(1), 1u); // thread 1 helps thread 0
    EXPECT_EQ(s.size(), 1u);
}

TEST(Scheduler, FactoryAndNames)
{
    EXPECT_STREQ(toString(SchedulerKind::Fifo), "fifo");
    EXPECT_STREQ(toString(SchedulerKind::WorkStealing), "steal");
    EXPECT_STREQ(toString(SchedulerKind::Locality), "locality");
    for (const SchedulerKind kind :
         {SchedulerKind::Fifo, SchedulerKind::WorkStealing,
          SchedulerKind::Locality}) {
        const auto s = makeScheduler(kind, 4, 1);
        s->taskReady(7, kNoThread);
        EXPECT_EQ(s->size(), 1u) << toString(kind);
        EXPECT_EQ(s->nextTask(0), 7u) << toString(kind);
        EXPECT_EQ(s->size(), 0u) << toString(kind);
    }
}

TEST(RuntimeModel, DispatchesRespectingDependencies)
{
    const trace::TaskTrace t = diamondTrace();
    RuntimeConfig cfg;
    RuntimeModel rt(t, cfg, 2);

    EXPECT_EQ(rt.fetchTask(0), 0u);
    EXPECT_EQ(rt.fetchTask(1), kNoTaskInstance); // rest blocked
    rt.taskCompleted(0, 0);
    const TaskInstanceId a = rt.fetchTask(0);
    const TaskInstanceId b2 = rt.fetchTask(1);
    EXPECT_NE(a, kNoTaskInstance);
    EXPECT_NE(b2, kNoTaskInstance);
    EXPECT_NE(a, b2);
    rt.taskCompleted(a, 0);
    rt.taskCompleted(b2, 1);
    EXPECT_EQ(rt.fetchTask(0), 3u);
    rt.taskCompleted(3, 0);
    EXPECT_EQ(rt.fetchTask(1), 4u);
    rt.taskCompleted(4, 1);
    EXPECT_TRUE(rt.allDone());
}

} // namespace
} // namespace tp::rt
