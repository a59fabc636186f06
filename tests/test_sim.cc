/**
 * @file
 * Engine integration tests: full-detailed simulation correctness,
 * determinism, contention scaling, noise model, and the fast-mode
 * contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/statistics.hh"
#include "cpu/arch_config.hh"
#include "sim/engine.hh"
#include "sim/event_queue.hh"
#include "sim/noise.hh"
#include "trace/trace_builder.hh"

namespace tp::sim {
namespace {

trace::TaskTrace
parallelTrace(std::size_t n_tasks, InstCount insts = 8000)
{
    trace::TraceBuilder b("par", 5);
    trace::KernelProfile k;
    k.loadFrac = 0.2;
    k.storeFrac = 0.05;
    const auto ty = b.addTaskType("t", k);
    for (std::size_t i = 0; i < n_tasks; ++i)
        b.createTask(ty, insts, 16 * 1024);
    return b.build();
}

RunSpec
baseConfig(std::uint32_t threads)
{
    RunSpec cfg;
    cfg.arch = cpu::highPerformanceConfig();
    cfg.threads = threads;
    cfg.recordTasks = true;
    return cfg;
}

TEST(Engine, RunsEveryTaskExactlyOnce)
{
    const trace::TaskTrace t = parallelTrace(40);
    Engine e(baseConfig(4), t);
    const SimResult r = e.run();
    EXPECT_EQ(r.detailedTasks, 40u);
    EXPECT_EQ(r.fastTasks, 0u);
    ASSERT_EQ(r.tasks.size(), 40u);
    std::set<TaskInstanceId> ids;
    for (const TaskRecord &rec : r.tasks)
        ids.insert(rec.id);
    EXPECT_EQ(ids.size(), 40u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const trace::TaskTrace t = parallelTrace(60);
    Engine e1(baseConfig(4), t);
    Engine e2(baseConfig(4), t);
    EXPECT_EQ(e1.run().totalCycles, e2.run().totalCycles);
}

TEST(Engine, MoreThreadsFinishSooner)
{
    const trace::TaskTrace t = parallelTrace(64);
    Engine e1(baseConfig(1), t);
    Engine e4(baseConfig(4), t);
    const Cycles c1 = e1.run().totalCycles;
    const Cycles c4 = e4.run().totalCycles;
    EXPECT_LT(c4, c1);
    EXPECT_GT(c4, c1 / 8); // but not superlinear
}

TEST(Engine, ContentionMakesTasksSlowerAtHighThreadCounts)
{
    const trace::TaskTrace t = parallelTrace(200);
    Engine e1(baseConfig(1), t);
    Engine e8(baseConfig(8), t);
    const SimResult r1 = e1.run();
    const SimResult r8 = e8.run();
    double ipc1 = 0.0, ipc8 = 0.0;
    for (const TaskRecord &rec : r1.tasks)
        ipc1 += rec.ipc;
    for (const TaskRecord &rec : r8.tasks)
        ipc8 += rec.ipc;
    ipc1 /= double(r1.tasks.size());
    ipc8 /= double(r8.tasks.size());
    EXPECT_LT(ipc8, ipc1); // shared resources contended
}

TEST(Engine, DependencySerializationShowsInMakespan)
{
    // A chain of N tasks must take ~N times one task's duration,
    // regardless of thread count.
    trace::TraceBuilder b("chain", 5);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    trace::TaskTrace t = [&] {
        TaskInstanceId prev = b.createTask(ty, 4000);
        for (int i = 0; i < 9; ++i) {
            const TaskInstanceId cur = b.createTask(ty, 4000);
            b.addDependency(prev, cur);
            prev = cur;
        }
        return b.build();
    }();
    Engine e(baseConfig(8), t);
    const SimResult r = e.run();
    EXPECT_LT(r.avgActiveCores, 1.2);
    // Every record strictly after its predecessor.
    std::vector<TaskRecord> recs = r.tasks;
    std::sort(recs.begin(), recs.end(),
              [](const TaskRecord &a, const TaskRecord &b2) {
                  return a.id < b2.id;
              });
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].start, recs[i - 1].end);
}

TEST(Engine, RecordsCanBeDisabled)
{
    const trace::TaskTrace t = parallelTrace(10);
    RunSpec cfg = baseConfig(2);
    cfg.recordTasks = false;
    Engine e(cfg, t);
    EXPECT_TRUE(e.run().tasks.empty());
}

TEST(Engine, RejectsSecondRun)
{
    const trace::TaskTrace t = parallelTrace(4);
    Engine e(baseConfig(2), t);
    e.run();
    EXPECT_THROW(e.run(), SimError);
}

TEST(Engine, RejectsBadConfig)
{
    const trace::TaskTrace t = parallelTrace(4);
    RunSpec cfg = baseConfig(0);
    EXPECT_THROW(Engine(cfg, t), SimError);
    cfg = baseConfig(2);
    cfg.quantum = 0;
    EXPECT_THROW(Engine(cfg, t), SimError);
}

/** Controller forcing every task into fast mode at a fixed IPC. */
class AllFastController : public ModeController
{
  public:
    explicit AllFastController(double ipc) : ipc_(ipc) {}

    ModeDecision
    decideTask(const trace::TaskInstance &, ThreadId,
               const EngineStatus &) override
    {
        return ModeDecision{SimMode::Fast, ipc_, false};
    }

    void
    taskFinished(const trace::TaskInstance &, ThreadId, SimMode mode,
                 double) override
    {
        tp_assert(mode == SimMode::Fast);
    }

  private:
    double ipc_;
};

TEST(Engine, FastModeHonoursRequestedIpc)
{
    const InstCount insts = 10000;
    const trace::TaskTrace t = parallelTrace(1, insts);
    RunSpec cfg = baseConfig(1);
    Engine e(cfg, t);
    AllFastController ctl(2.0);
    const SimResult r = e.run(&ctl);
    ASSERT_EQ(r.tasks.size(), 1u);
    const Cycles dur = r.tasks[0].end - r.tasks[0].start;
    EXPECT_EQ(dur, insts / 2);
    EXPECT_EQ(r.fastTasks, 1u);
    EXPECT_EQ(r.fastInsts, insts);
    EXPECT_DOUBLE_EQ(r.detailFraction(), 0.0);
}

TEST(Engine, FastModeIsMuchCheaperOnHostTime)
{
    const trace::TaskTrace t = parallelTrace(300, 20000);
    Engine ed(baseConfig(4), t);
    const SimResult rd = ed.run();
    Engine ef(baseConfig(4), t);
    AllFastController ctl(1.0);
    const SimResult rf = ef.run(&ctl);
    EXPECT_LT(rf.wallSeconds * 5.0, rd.wallSeconds);
}

TEST(Engine, StatusReportsEffectiveConcurrency)
{
    // Checked indirectly: a mixed controller sees plausible values.
    class Probe : public ModeController
    {
      public:
        ModeDecision
        decideTask(const trace::TaskInstance &, ThreadId,
                   const EngineStatus &st) override
        {
            EXPECT_GE(st.effectiveConcurrency, 1u);
            EXPECT_LE(st.effectiveConcurrency, 4u); // the run's threads
            ++decides;
            return ModeDecision{SimMode::Fast, 1.0, false};
        }
        void
        taskFinished(const trace::TaskInstance &, ThreadId, SimMode,
                     double) override
        {
            ++finishes;
        }
        int decides = 0;
        int finishes = 0;
    };
    const trace::TaskTrace t = parallelTrace(50);
    Engine e(baseConfig(4), t);
    Probe probe;
    e.run(&probe);
    EXPECT_EQ(probe.decides, 50);
    EXPECT_EQ(probe.finishes, 50);
}

TEST(Noise, DisabledIsIdentity)
{
    NoiseModel n(NoiseConfig{});
    EXPECT_EQ(n.perturb(12345), 12345u);
}

TEST(Noise, EnabledPerturbsMultiplicatively)
{
    NoiseConfig cfg;
    cfg.enabled = true;
    cfg.sigma = 0.05;
    cfg.preemptProb = 0.0;
    NoiseModel n(cfg);
    RunningStats rel;
    for (int i = 0; i < 2000; ++i) {
        const double p = double(n.perturb(1000000));
        rel.add(p / 1000000.0);
    }
    EXPECT_NEAR(rel.mean(), 1.0, 0.01);
    EXPECT_GT(rel.populationStddev(), 0.02);
    EXPECT_LT(rel.populationStddev(), 0.10);
}

TEST(Noise, PreemptionsAddHeavyTail)
{
    NoiseConfig cfg;
    cfg.enabled = true;
    cfg.sigma = 0.0;
    cfg.preemptProb = 0.5;
    cfg.preemptMeanCycles = 100000.0;
    NoiseModel n(cfg);
    Cycles mx = 0;
    for (int i = 0; i < 200; ++i)
        mx = std::max(mx, n.perturb(1000));
    EXPECT_GT(mx, 50000u);
}

TEST(Noise, NeverReturnsZero)
{
    NoiseConfig cfg;
    cfg.enabled = true;
    cfg.sigma = 3.0; // extreme
    NoiseModel n(cfg);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(n.perturb(1), 1u);
}

/**
 * Reference model for CoreEventQueue: the linear scan the queue
 * replaced in Engine::run, including its lowest-id tie-break.
 */
ThreadId
scanMin(const std::vector<std::pair<bool, Cycles>> &cores)
{
    ThreadId best = kNoThread;
    Cycles best_time = kNoCycle;
    for (ThreadId c = 0; c < cores.size(); ++c) {
        if (!cores[c].first)
            continue;
        if (cores[c].second < best_time) {
            best_time = cores[c].second;
            best = c;
        }
    }
    return best;
}

TEST(CoreEventQueue, MatchesLinearScanUnderRandomOperations)
{
    constexpr std::uint32_t kCores = 23;
    CoreEventQueue q(kCores);
    // (queued?, key) per core — the naive model.
    std::vector<std::pair<bool, Cycles>> model(kCores, {false, 0});
    Rng rng(99);

    for (int step = 0; step < 200000; ++step) {
        const auto core =
            static_cast<ThreadId>(rng.nextBounded(kCores));
        switch (rng.nextBounded(4)) {
          case 0:
          case 1: {
            // Small key range on purpose: exercises ties, which
            // must resolve to the lowest core id like the scan.
            const Cycles key = rng.nextBounded(50);
            q.update(core, key);
            model[core] = {true, key};
            break;
          }
          case 2:
            q.remove(core);
            model[core] = {false, 0};
            break;
          default:
            break;
        }
        const ThreadId expect = scanMin(model);
        ASSERT_EQ(q.empty(), expect == kNoThread) << "step " << step;
        if (expect != kNoThread) {
            ASSERT_EQ(q.top(), expect) << "step " << step;
            ASSERT_EQ(q.topKey(), model[expect].second);
        }
    }
}

TEST(CoreEventQueue, RemoveIsIdempotentAndUpdateReinserts)
{
    CoreEventQueue q(4);
    EXPECT_TRUE(q.empty());
    q.remove(2); // not queued: no-op
    EXPECT_TRUE(q.empty());
    q.update(1, 10);
    q.update(3, 5);
    EXPECT_EQ(q.top(), 3u);
    q.update(3, 50); // move up
    EXPECT_EQ(q.top(), 1u);
    q.remove(1);
    EXPECT_EQ(q.top(), 3u);
    q.remove(3);
    EXPECT_TRUE(q.empty());
    q.update(0, 7); // reinsert after removal
    EXPECT_EQ(q.top(), 0u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.contains(0));
    EXPECT_FALSE(q.contains(1));
}

TEST(CoreEventQueue, TieBreaksOnLowestCoreId)
{
    CoreEventQueue q(8);
    for (ThreadId c = 8; c-- > 0;)
        q.update(c, 42);
    EXPECT_EQ(q.top(), 0u);
    q.remove(0);
    EXPECT_EQ(q.top(), 1u);
    q.update(5, 41);
    EXPECT_EQ(q.top(), 5u);
}

} // namespace
} // namespace tp::sim
