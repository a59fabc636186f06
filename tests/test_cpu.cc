/**
 * @file
 * Unit tests for the detailed core model (ROB occupancy analysis) and
 * the architecture configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "cpu/arch_config.hh"
#include "cpu/rob_core.hh"
#include "memory/hierarchy.hh"
#include "trace/instr_stream.hh"
#include "trace/trace_builder.hh"

namespace tp::cpu {
namespace {

/** Build a single-instance trace with the given profile/size. */
trace::TaskTrace
makeTrace(const trace::KernelProfile &k, InstCount insts,
          Addr footprint = 64 * 1024)
{
    trace::TraceBuilder b("core-test", 7);
    const auto ty = b.addTaskType("t", k);
    b.createTask(ty, insts, footprint);
    return b.build();
}

/** One task run to completion on a fresh single-core machine. */
struct TaskRun
{
    InstCount instructions = 0;
    Cycles cycles = 0;
    mem::HierarchyStats mem;

    double
    ipc() const
    {
        return double(instructions) / double(cycles);
    }
};

TaskRun
runTask(const trace::TaskTrace &t, const ArchConfig &arch,
        Cycles start = 0)
{
    mem::Hierarchy h(arch.memory, 1);
    RobCore core(arch.core, h, 0);
    core.beginTask(t.type(0), t.instance(0), start);
    while (!core.step(1024)) {
    }
    return {t.instance(0).instCount, core.finishTime() - start,
            h.stats()};
}

trace::KernelProfile
pureCompute()
{
    trace::KernelProfile k;
    k.loadFrac = 0.0;
    k.storeFrac = 0.0;
    k.branchFrac = 0.0;
    k.fpFrac = 0.0;
    k.mulFrac = 0.0;
    k.indepFrac = 1.0; // fully independent single-cycle ops
    return k;
}

TEST(RobCore, IpcBoundedByIssueWidth)
{
    const ArchConfig arch = highPerformanceConfig();
    const TaskRun run = runTask(makeTrace(pureCompute(), 50000), arch);
    EXPECT_LE(run.ipc(), double(arch.core.issueWidth) + 0.01);
    // Fully independent 1-cycle ops should come close to the width.
    EXPECT_GT(run.ipc(), double(arch.core.issueWidth) * 0.8);
}

TEST(RobCore, DependencyChainsSerialize)
{
    trace::KernelProfile chain = pureCompute();
    chain.indepFrac = 0.0;
    chain.ilpMean = 0.6; // dep distance ~1: serial chain
    const ArchConfig arch = highPerformanceConfig();
    const TaskRun run = runTask(makeTrace(chain, 50000), arch);
    // A serial chain of 1-cycle ops cannot exceed IPC 1.
    EXPECT_LE(run.ipc(), 1.05);
}

TEST(RobCore, WiderMachineIsFaster)
{
    trace::KernelProfile k;
    k.loadFrac = 0.15;
    k.storeFrac = 0.05;
    const TaskRun hp = runTask(makeTrace(k, 60000),
                               highPerformanceConfig());
    const TaskRun lp = runTask(makeTrace(k, 60000), lowPowerConfig());
    EXPECT_GT(hp.ipc(), lp.ipc());
}

TEST(RobCore, MemoryLatencyReducesIpc)
{
    trace::KernelProfile mem_heavy;
    mem_heavy.loadFrac = 0.45;
    mem_heavy.pattern.kind = trace::MemPatternKind::RandomUniform;
    const TaskRun m = runTask(makeTrace(mem_heavy, 40000, 1 << 20),
                              highPerformanceConfig());
    const TaskRun c = runTask(makeTrace(pureCompute(), 40000),
                              highPerformanceConfig());
    EXPECT_LT(m.ipc(), c.ipc() * 0.5);
    EXPECT_GT(m.mem.l1.misses, 100u);
}

TEST(RobCore, EachMemoryInstructionAccessesL1Once)
{
    trace::KernelProfile k;
    k.loadFrac = 0.3;
    k.storeFrac = 0.1;
    const trace::TaskTrace t = makeTrace(k, 50000);
    const TaskRun run = runTask(t, highPerformanceConfig());

    // Replay the same stream: prefetch fills are not demand
    // accesses, so the L1 sees exactly the loads and stores.
    trace::InstrStream replay(t.type(0), t.instance(0));
    std::uint64_t mem_ops = 0;
    for (trace::Instr in; replay.next(in);) {
        mem_ops += in.cls == trace::InstrClass::Load ||
                   in.cls == trace::InstrClass::Store;
    }
    EXPECT_EQ(replay.produced(), 50000u);
    EXPECT_GT(mem_ops, 0u);
    EXPECT_EQ(run.mem.l1.accesses, mem_ops);
}

TEST(RobCore, StartOffsetShiftsFinishTime)
{
    const trace::TaskTrace t = makeTrace(pureCompute(), 10000);
    const ArchConfig arch = highPerformanceConfig();

    mem::Hierarchy h1(arch.memory, 1);
    RobCore c1(arch.core, h1, 0);
    c1.beginTask(t.type(0), t.instance(0), 0);
    while (!c1.step(512)) {
    }
    mem::Hierarchy h2(arch.memory, 1);
    RobCore c2(arch.core, h2, 0);
    c2.beginTask(t.type(0), t.instance(0), 1000);
    while (!c2.step(512)) {
    }
    EXPECT_EQ(c2.finishTime(), c1.finishTime() + 1000);
}

TEST(RobCore, DeterministicAcrossQuantumSizes)
{
    trace::KernelProfile k;
    k.loadFrac = 0.25;
    const trace::TaskTrace t = makeTrace(k, 30000);
    const ArchConfig arch = highPerformanceConfig();

    mem::Hierarchy h1(arch.memory, 1);
    RobCore c1(arch.core, h1, 0);
    c1.beginTask(t.type(0), t.instance(0), 0);
    while (!c1.step(64)) {
    }
    mem::Hierarchy h2(arch.memory, 1);
    RobCore c2(arch.core, h2, 0);
    c2.beginTask(t.type(0), t.instance(0), 0);
    while (!c2.step(8192)) {
    }
    EXPECT_EQ(c1.finishTime(), c2.finishTime());
}

TEST(RobCore, ReusableAcrossTasks)
{
    const trace::TaskTrace t = makeTrace(pureCompute(), 5000);
    const ArchConfig arch = highPerformanceConfig();
    mem::Hierarchy h(arch.memory, 1);
    RobCore core(arch.core, h, 0);

    core.beginTask(t.type(0), t.instance(0), 0);
    while (!core.step(512)) {
    }
    const Cycles first = core.finishTime();
    EXPECT_FALSE(core.busy());

    core.beginTask(t.type(0), t.instance(0), first);
    while (!core.step(512)) {
    }
    EXPECT_GT(core.finishTime(), first);
}

TEST(RobCore, SmallRobLimitsMemoryParallelism)
{
    trace::KernelProfile k;
    k.loadFrac = 0.4;
    k.indepFrac = 1.0; // maximal potential MLP
    k.pattern.kind = trace::MemPatternKind::RandomUniform;

    ArchConfig big = highPerformanceConfig();
    ArchConfig small = big;
    small.core.robSize = 16;

    const TaskRun b = runTask(makeTrace(k, 40000, 4 << 20), big);
    const TaskRun s = runTask(makeTrace(k, 40000, 4 << 20), small);
    // Same widths, same memory: the small ROB must be slower because
    // it can keep fewer misses in flight.
    EXPECT_GT(b.ipc(), s.ipc() * 1.3);
}

/**
 * Reference model of the detailed core as it stood before it read
 * dependencies from its ROB ring: one instruction at a time, with a
 * separate 128-entry completion-time history for register
 * dependencies. RobCore must time every task identically.
 */
class HistoryReferenceCore
{
  public:
    HistoryReferenceCore(const CoreConfig &config, mem::Hierarchy &mem)
        : config_(config), mem_(mem), rob_(config.robSize)
    {
    }

    /** Run one task starting at `start`; @return its finish time. */
    Cycles
    run(const trace::TaskType &type, const trace::TaskInstance &inst,
        Cycles start)
    {
        Limiter dispatch{start, 0, config_.issueWidth};
        Limiter commit{start, 0, config_.commitWidth};
        Cycles last_commit = start;
        std::size_t head = 0, count = 0;
        hist_.fill(start);
        std::uint64_t index = 0;

        const auto commit_head = [&] {
            const Cycles at =
                commit.reserve(std::max(rob_[head], last_commit));
            last_commit = at;
            head = (head + 1) % rob_.size();
            --count;
            return at;
        };

        trace::InstrStream stream(type, inst);
        for (trace::Instr in; stream.next(in);) {
            const Cycles slot_free =
                count == rob_.size() ? commit_head() : 0;
            const Cycles disp = dispatch.reserve(slot_free);
            Cycles ready = disp;
            if (in.depDist != 0 && in.depDist <= index) {
                ready = std::max(
                    ready, hist_[(index - in.depDist) % hist_.size()]);
            }
            Cycles complete = ready + in.execLat;
            if (in.cls == trace::InstrClass::Load) {
                complete += mem_.access(0, in.addr, false, ready).latency;
            } else if (in.cls == trace::InstrClass::Store) {
                mem_.access(0, in.addr, true, ready);
                complete = ready + 1;
            }
            complete = std::max(complete, disp + 1);
            rob_[(head + count) % rob_.size()] = complete;
            ++count;
            hist_[index % hist_.size()] = complete;
            ++index;
        }
        while (count > 0)
            commit_head();
        return last_commit;
    }

  private:
    /** A width-limited per-cycle resource (dispatch or commit). */
    struct Limiter
    {
        Cycles cycle;
        std::uint32_t used;
        std::uint32_t width;

        Cycles
        reserve(Cycles at)
        {
            if (at > cycle) {
                cycle = at;
                used = 0;
            }
            if (used == width) {
                ++cycle;
                used = 0;
            }
            ++used;
            return cycle;
        }
    };

    CoreConfig config_;
    mem::Hierarchy &mem_;
    std::vector<Cycles> rob_;
    std::array<Cycles, 128> hist_{};
};

trace::TaskTrace
referenceTrace(const trace::KernelProfile &k, Addr footprint)
{
    trace::TraceBuilder b("rob-reference", 11);
    const auto ty = b.addTaskType("t", k);
    for (int i = 0; i < 3; ++i)
        b.createTask(ty, 3000, footprint);
    return b.build();
}

TEST(RobCore, MatchesHistoryReference)
{
    trace::KernelProfile chain; // short dependency chains with loads
    chain.loadFrac = 0.3;
    chain.storeFrac = 0.1;
    chain.indepFrac = 0.05;
    chain.ilpMean = 1.5;
    trace::KernelProfile chase; // loads depend on the previous one
    chase.loadFrac = 0.25;
    chase.pattern.kind = trace::MemPatternKind::PointerChase;
    trace::KernelProfile wide; // distances up to the 64 cap
    wide.loadFrac = 0.35;
    wide.storeFrac = 0.1;
    wide.ilpMean = 40.0;
    wide.pattern.kind = trace::MemPatternKind::RandomUniform;
    const struct
    {
        const char *name;
        trace::TaskTrace trace;
    } cases[] = {
        {"chain", referenceTrace(chain, 64 * 1024)},
        {"pointer-chase", referenceTrace(chase, 256 * 1024)},
        {"wide-random", referenceTrace(wide, 4 << 20)},
    };

    for (const auto &[name, t] : cases) {
        for (const std::uint32_t rob_size :
             {1u, 2u, 16u, 39u, 40u, 41u, 63u, 64u, 65u, 168u}) {
            ArchConfig arch = highPerformanceConfig();
            arch.core.robSize = rob_size;

            mem::Hierarchy ref_mem(arch.memory, 1);
            HistoryReferenceCore ref(arch.core, ref_mem);
            std::vector<Cycles> want;
            Cycles at = 100;
            for (const trace::TaskInstance &inst : t.instances()) {
                want.push_back(ref.run(t.type(inst.type), inst, at));
                at = want.back() + 5;
            }

            for (const InstCount quantum : {1u, 7u, 1024u}) {
                SCOPED_TRACE(std::string(name) + ", ROB " +
                             std::to_string(rob_size) + ", quantum " +
                             std::to_string(quantum));
                mem::Hierarchy h(arch.memory, 1);
                RobCore core(arch.core, h, 0);
                std::vector<Cycles> got;
                at = 100;
                for (const trace::TaskInstance &inst : t.instances()) {
                    core.beginTask(t.type(inst.type), inst, at);
                    while (!core.step(quantum)) {
                    }
                    got.push_back(core.finishTime());
                    at = got.back() + 5;
                }
                EXPECT_EQ(got, want);
                EXPECT_EQ(h.stats().l1.misses, ref_mem.stats().l1.misses);
                EXPECT_EQ(h.stats().dramRequests,
                          ref_mem.stats().dramRequests);
            }
        }
    }
}

TEST(ArchConfig, TableTwoParameters)
{
    const ArchConfig hp = highPerformanceConfig();
    EXPECT_EQ(hp.core.robSize, 168u);
    EXPECT_EQ(hp.core.issueWidth, 4u);
    EXPECT_EQ(hp.core.commitWidth, 4u);
    EXPECT_EQ(hp.memory.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(hp.memory.l1.assoc, 8u);
    EXPECT_EQ(hp.memory.l1.latency, 4u);
    EXPECT_EQ(hp.memory.l2.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(hp.memory.l2.latency, 11u);
    EXPECT_FALSE(hp.memory.l2Shared);
    EXPECT_TRUE(hp.memory.hasL3);
    EXPECT_EQ(hp.memory.l3.sizeBytes, 20u * 1024 * 1024);
    EXPECT_EQ(hp.memory.l3.assoc, 20u);
    EXPECT_EQ(hp.memory.l3.latency, 28u);

    const ArchConfig lp = lowPowerConfig();
    EXPECT_EQ(lp.core.robSize, 40u);
    EXPECT_EQ(lp.core.issueWidth, 3u);
    EXPECT_EQ(lp.core.commitWidth, 3u);
    EXPECT_EQ(lp.memory.l1.assoc, 2u);
    EXPECT_TRUE(lp.memory.l2Shared);
    EXPECT_EQ(lp.memory.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(lp.memory.l2.assoc, 16u);
    EXPECT_EQ(lp.memory.l2.latency, 21u);
    EXPECT_FALSE(lp.memory.hasL3);
}

TEST(ArchConfig, LookupByName)
{
    EXPECT_EQ(archConfigByName("highperf").name, "highperf");
    EXPECT_EQ(archConfigByName("lowpower").name, "lowpower");
    EXPECT_THROW(archConfigByName("quantum"), SimError);
}

} // namespace
} // namespace tp::cpu
