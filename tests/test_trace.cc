/**
 * @file
 * Unit and property tests for the trace library: builder invariants,
 * DAG structure, instruction-stream determinism and statistics,
 * serialization round trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/instr_stream.hh"
#include "trace/trace.hh"
#include "trace/trace_builder.hh"
#include "trace/trace_io.hh"

namespace tp::trace {
namespace {

KernelProfile
basicProfile()
{
    KernelProfile k;
    k.loadFrac = 0.25;
    k.storeFrac = 0.10;
    k.branchFrac = 0.10;
    return k;
}

TaskTrace
smallTrace()
{
    TraceBuilder b("test", 1);
    const TaskTypeId t0 = b.addTaskType("alpha", basicProfile());
    const TaskTypeId t1 = b.addTaskType("beta", basicProfile());
    const auto a = b.createTask(t0, 1000);
    const auto c = b.createTask(t1, 2000);
    const auto d = b.createTask(t0, 3000);
    b.addDependency(a, c);
    b.addDependency(a, d);
    b.addDependency(c, d);
    b.barrier();
    b.createTask(t1, 500);
    return b.build();
}

TEST(TraceBuilder, BuildsValidTrace)
{
    const TaskTrace t = smallTrace();
    EXPECT_EQ(t.name(), "test");
    EXPECT_EQ(t.types().size(), 2u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.numEpochs(), 2u);
    EXPECT_EQ(t.epochSize(0), 3u);
    EXPECT_EQ(t.epochSize(1), 1u);
    EXPECT_EQ(t.totalInstructions(), 6500u);
}

TEST(TraceBuilder, DependencyCsrIsCorrect)
{
    const TaskTrace t = smallTrace();
    EXPECT_EQ(t.inDegree(0), 0u);
    EXPECT_EQ(t.inDegree(1), 1u);
    EXPECT_EQ(t.inDegree(2), 2u);
    const auto succ0 = t.successors(0);
    ASSERT_EQ(succ0.size(), 2u);
    EXPECT_EQ(succ0[0], 1u);
    EXPECT_EQ(succ0[1], 2u);
    EXPECT_TRUE(t.successors(3).empty());
}

TEST(TraceBuilder, DuplicateEdgesCoalesced)
{
    TraceBuilder b("dup", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    const auto a = b.createTask(ty, 100);
    const auto c = b.createTask(ty, 100);
    b.addDependency(a, c);
    b.addDependency(a, c);
    const TaskTrace t = b.build();
    EXPECT_EQ(t.successors(0).size(), 1u);
    EXPECT_EQ(t.inDegree(1), 1u);
}

TEST(TraceBuilder, RejectsBackwardDependency)
{
    TraceBuilder b("bad", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    const auto a = b.createTask(ty, 100);
    const auto c = b.createTask(ty, 100);
    EXPECT_THROW(b.addDependency(c, a), SimError);
    EXPECT_THROW(b.addDependency(a, a), SimError);
}

TEST(TraceBuilder, RejectsZeroInstructions)
{
    TraceBuilder b("bad", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    EXPECT_THROW(b.createTask(ty, 0), SimError);
}

TEST(TraceBuilder, RejectsUnknownType)
{
    TraceBuilder b("bad", 1);
    b.addTaskType("t", basicProfile());
    EXPECT_THROW(b.createTask(5, 100), SimError);
}

TEST(TraceBuilder, RejectsUnknownVariant)
{
    TraceBuilder b("bad", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    EXPECT_THROW(b.createTask(ty, 100, 0, 3), SimError);
}

TEST(TraceBuilder, RejectsEmptyTrace)
{
    TraceBuilder b("empty", 1);
    EXPECT_THROW(b.build(), SimError);
    TraceBuilder b2("no-instances", 1);
    b2.addTaskType("t", basicProfile());
    EXPECT_THROW(b2.build(), SimError);
}

TEST(TraceBuilder, LeadingAndDoubleBarriersAreNoOps)
{
    TraceBuilder b("barriers", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    b.barrier(); // leading: no-op
    b.createTask(ty, 100);
    b.barrier();
    b.barrier(); // double: no-op
    b.createTask(ty, 100);
    const TaskTrace t = b.build();
    EXPECT_EQ(t.numEpochs(), 2u);
}

TEST(TraceBuilder, VariantsSelectable)
{
    TraceBuilder b("var", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    KernelProfile other = basicProfile();
    other.loadFrac = 0.5;
    const auto v = b.addVariant(ty, other);
    EXPECT_EQ(v, 1u);
    b.createTask(ty, 100, 0, v);
    const TaskTrace t = b.build();
    EXPECT_EQ(t.instance(0).variant, 1u);
    EXPECT_EQ(t.type(ty).variants.size(), 2u);
}

TEST(TraceBuilder, UniqueRegionsDoNotOverlap)
{
    TraceBuilder b("regions", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    b.createTask(ty, 100, 4096);
    b.createTask(ty, 100, 4096);
    const TaskTrace t = b.build();
    const auto &i0 = t.instance(0);
    const auto &i1 = t.instance(1);
    EXPECT_GE(i1.privBase, i0.privBase + i0.privFootprint);
}

TEST(TraceBuilder, RegionPoolCycles)
{
    TraceBuilder b("pool", 1);
    const auto ty = b.addTaskType("t", basicProfile());
    b.setRegionPool(ty, 3, 8192);
    std::vector<Addr> bases;
    for (int i = 0; i < 6; ++i)
        b.createTask(ty, 100, 8192);
    const TaskTrace t = b.build();
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(t.instance(i).privBase,
                  t.instance(i + 3).privBase);
    }
    EXPECT_NE(t.instance(0).privBase, t.instance(1).privBase);
}

TEST(TraceBuilder, ReuseStartsFromAnEmptyBuilder)
{
    TraceBuilder b("reused", 1);
    const auto pooled = b.addTaskType("pooled", basicProfile());
    b.setRegionPool(pooled, 4, 4096);
    b.createTask(pooled, 100, 4096);
    (void)b.build();

    // The second trace declares no pools, so neither type may inherit
    // the first trace's pool of 4 KiB regions.
    const auto t0 = b.addTaskType("first", basicProfile());
    const auto t1 = b.addTaskType("second", basicProfile());
    b.createTask(t0, 100, 1 << 16);
    b.createTask(t1, 100, 1 << 16);
    const TaskTrace t = b.build();
    EXPECT_EQ(t.name(), "reused");
    const TaskInstance &a = t.instance(0);
    const TaskInstance &c = t.instance(1);
    EXPECT_EQ(a.privFootprint, Addr{1} << 16);
    EXPECT_EQ(c.privFootprint, Addr{1} << 16);
    EXPECT_TRUE(a.privBase + a.privFootprint <= c.privBase ||
                c.privBase + c.privFootprint <= a.privBase)
        << std::hex << a.privBase << " and " << c.privBase;
}

/**
 * build() buckets the edges by predecessor and sorts each list; the
 * result must be the CSR a global sort + unique of the edge multiset
 * gives, whatever the insertion order and however many duplicates.
 */
TEST(TraceBuilder, CsrMatchesGlobalSortOfTheEdges)
{
    Rng rng(2024);
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(trial);
        const std::uint64_t n = 200 + rng.nextBounded(400);
        // Every seventh instance has no edges at all.
        const auto isolated = [](TaskInstanceId i) { return i % 7 == 3; };
        std::vector<std::pair<TaskInstanceId, TaskInstanceId>> edges;
        const auto add = [&](TaskInstanceId pred, TaskInstanceId succ) {
            if (!isolated(pred) && !isolated(succ))
                edges.emplace_back(pred, succ);
        };
        for (std::uint64_t e = 0, m = n + rng.nextBounded(n); e < m; ++e) {
            const TaskInstanceId pred = rng.nextBounded(n - 1);
            const TaskInstanceId succ =
                pred + 1 + rng.nextBounded(n - 1 - pred);
            add(pred, succ);
            if (rng.nextBounded(4) == 0)
                add(pred, succ); // a duplicate
        }
        // One predecessor fanning out to hundreds of successors.
        const TaskInstanceId hub = 7 * rng.nextBounded(n / 28);
        for (TaskInstanceId succ = hub + 1; succ < n; ++succ)
            if (rng.nextBounded(4) != 0)
                add(hub, succ);
        if (trial % 2 == 0) {
            std::reverse(edges.begin(), edges.end());
        } else {
            for (std::size_t i = edges.size(); i > 1; --i)
                std::swap(edges[i - 1], edges[rng.nextBounded(i)]);
        }

        TraceBuilder b("csr", 1);
        const auto ty = b.addTaskType("t", basicProfile());
        for (std::uint64_t i = 0; i < n; ++i)
            b.createTask(ty, 100);
        for (const auto &[pred, succ] : edges)
            b.addDependency(pred, succ);
        const TaskTrace t = b.build();

        const std::size_t added = edges.size();
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        EXPECT_LT(edges.size(), added) << "no duplicate edges drawn";
        std::vector<std::vector<TaskInstanceId>> succs(n);
        std::vector<std::uint32_t> inDegree(n, 0);
        for (const auto &[pred, succ] : edges) {
            succs[pred].push_back(succ);
            ++inDegree[succ];
        }
        EXPECT_GE(succs[hub].size(), 100u);
        for (TaskInstanceId i = 0; i < n; ++i) {
            const auto got = t.successors(i);
            EXPECT_EQ(std::vector<TaskInstanceId>(got.begin(), got.end()),
                      succs[i])
                << "successors of " << i;
            EXPECT_EQ(t.inDegree(i), inDegree[i]) << "in-degree of " << i;
        }
        EXPECT_EQ(t.stats().numDependencies, edges.size());
    }
}

TEST(TraceBuilder, InstanceSeedsDiffer)
{
    const TaskTrace t = smallTrace();
    EXPECT_NE(t.instance(0).seed, t.instance(1).seed);
    EXPECT_NE(t.instance(1).seed, t.instance(2).seed);
}

TEST(TraceBuilder, SameSeedSameTrace)
{
    TraceBuilder b1("x", 9), b2("x", 9);
    const auto ty1 = b1.addTaskType("t", basicProfile());
    const auto ty2 = b2.addTaskType("t", basicProfile());
    b1.createTask(ty1, 100);
    b2.createTask(ty2, 100);
    EXPECT_EQ(b1.build().instance(0).seed,
              b2.build().instance(0).seed);
}

TEST(InstrStream, ProducesExactlyInstCountInstructions)
{
    const TaskTrace t = smallTrace();
    InstrStream s(t.type(0), t.instance(0));
    Instr in;
    InstCount n = 0;
    while (s.next(in))
        ++n;
    EXPECT_EQ(n, t.instance(0).instCount);
    EXPECT_TRUE(s.done());
    EXPECT_FALSE(s.next(in));
}

TEST(InstrStream, DeterministicReplay)
{
    const TaskTrace t = smallTrace();
    InstrStream s1(t.type(0), t.instance(0));
    InstrStream s2(t.type(0), t.instance(0));
    Instr a, b;
    while (s1.next(a)) {
        ASSERT_TRUE(s2.next(b));
        EXPECT_EQ(static_cast<int>(a.cls), static_cast<int>(b.cls));
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.depDist, b.depDist);
        EXPECT_EQ(a.execLat, b.execLat);
    }
}

TEST(InstrStream, FillBlockMatchesNextForEveryPattern)
{
    // The batch API must emit exactly the sequence per-instruction
    // next() calls produce, for every memory pattern and for chunk
    // sizes that do and do not divide the stream length.
    const InstCount chunks[] = {1, 2, 3, 7, 64, 256, 1000};
    for (int kind = 0; kind < 5; ++kind) {
        for (double shared_frac : {0.0, 0.4}) {
            TraceBuilder b("fb", 1);
            KernelProfile k = basicProfile();
            k.pattern.kind = static_cast<MemPatternKind>(kind);
            k.pattern.sharedFrac = shared_frac;
            k.loadFrac = 0.3;
            k.storeFrac = 0.1;
            const auto ty = b.addTaskType("t", k);
            b.createTask(ty, 12345);
            const TaskTrace t = b.build();

            InstrStream ref(t.type(0), t.instance(0));
            InstrStream blk(t.type(0), t.instance(0));
            std::vector<Instr> buf(1000);
            std::size_t chunk_i = 0;
            InstCount total = 0;
            while (!blk.done()) {
                const InstCount want =
                    chunks[chunk_i++ % std::size(chunks)];
                const InstCount got =
                    blk.fillBlock(buf.data(), want);
                ASSERT_GT(got, 0u);
                for (InstCount i = 0; i < got; ++i) {
                    Instr expect;
                    ASSERT_TRUE(ref.next(expect));
                    ASSERT_EQ(static_cast<int>(expect.cls),
                              static_cast<int>(buf[i].cls))
                        << "kind=" << kind << " instr " << total + i;
                    ASSERT_EQ(expect.addr, buf[i].addr);
                    ASSERT_EQ(expect.depDist, buf[i].depDist);
                    ASSERT_EQ(expect.execLat, buf[i].execLat);
                }
                total += got;
                ASSERT_EQ(blk.produced(), total);
            }
            Instr leftover;
            EXPECT_FALSE(ref.next(leftover));
            EXPECT_EQ(blk.fillBlock(buf.data(), 16), 0u);
            EXPECT_EQ(total, t.instance(0).instCount);
        }
    }
}

TEST(InstrStream, MixApproximatelyMatchesProfile)
{
    TraceBuilder b("mix", 1);
    KernelProfile k = basicProfile();
    k.loadFrac = 0.30;
    k.storeFrac = 0.10;
    k.branchFrac = 0.15;
    const auto ty = b.addTaskType("t", k);
    b.createTask(ty, 100000);
    const TaskTrace t = b.build();

    InstrStream s(t.type(0), t.instance(0));
    Instr in;
    std::map<InstrClass, int> counts;
    while (s.next(in))
        ++counts[in.cls];
    const double n = 100000.0;
    EXPECT_NEAR(counts[InstrClass::Load] / n, 0.30, 0.02);
    EXPECT_NEAR(counts[InstrClass::Store] / n, 0.10, 0.02);
    EXPECT_NEAR(counts[InstrClass::Branch] / n, 0.15, 0.02);
}

TEST(InstrStream, AddressesStayInRegions)
{
    TraceBuilder b("addr", 1);
    KernelProfile k = basicProfile();
    k.pattern.kind = MemPatternKind::RandomUniform;
    k.pattern.sharedFrac = 0.3;
    k.pattern.sharedFootprint = 64 * 1024;
    const auto ty = b.addTaskType("t", k);
    b.createTask(ty, 50000, 16 * 1024);
    const TaskTrace t = b.build();
    const TaskInstance &inst = t.instance(0);
    const Addr shared_base = sharedRegionBase(ty);

    InstrStream s(t.type(0), inst);
    Instr in;
    while (s.next(in)) {
        if (in.cls != InstrClass::Load && in.cls != InstrClass::Store)
            continue;
        const bool in_priv =
            in.addr >= inst.privBase &&
            in.addr < inst.privBase + inst.privFootprint;
        const bool in_shared =
            in.addr >= shared_base &&
            in.addr < shared_base + k.pattern.sharedFootprint;
        EXPECT_TRUE(in_priv || in_shared)
            << "address " << in.addr << " outside both regions";
    }
}

TEST(InstrStream, DepDistanceBounded)
{
    const TaskTrace t = smallTrace();
    InstrStream s(t.type(0), t.instance(2));
    Instr in;
    while (s.next(in))
        EXPECT_LE(in.depDist, 64u);
}

TEST(InstrStream, PointerChaseSerializesLoads)
{
    TraceBuilder b("chase", 1);
    KernelProfile k = basicProfile();
    k.pattern.kind = MemPatternKind::PointerChase;
    k.pattern.sharedFrac = 0.0;
    const auto ty = b.addTaskType("t", k);
    b.createTask(ty, 20000);
    const TaskTrace t = b.build();
    InstrStream s(t.type(0), t.instance(0));
    Instr in;
    int chained = 0, loads = 0;
    while (s.next(in)) {
        if (in.cls == InstrClass::Load) {
            ++loads;
            chained += in.depDist > 0 ? 1 : 0;
        }
    }
    // Every private chase load depends on the previous memory op.
    EXPECT_GT(double(chained) / double(loads), 0.95);
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    const TaskTrace t = smallTrace();
    const std::string path = "/tmp/tp_test_trace.bin";
    serializeTrace(t, path);
    const TaskTrace r = deserializeTrace(path);
    std::remove(path.c_str());

    EXPECT_EQ(r.name(), t.name());
    ASSERT_EQ(r.types().size(), t.types().size());
    ASSERT_EQ(r.size(), t.size());
    EXPECT_EQ(r.numEpochs(), t.numEpochs());
    EXPECT_EQ(r.totalInstructions(), t.totalInstructions());
    for (TaskInstanceId i = 0; i < t.size(); ++i) {
        EXPECT_EQ(r.instance(i).seed, t.instance(i).seed);
        EXPECT_EQ(r.instance(i).instCount, t.instance(i).instCount);
        EXPECT_EQ(r.instance(i).privBase, t.instance(i).privBase);
        EXPECT_EQ(r.inDegree(i), t.inDegree(i));
        ASSERT_EQ(r.successors(i).size(), t.successors(i).size());
    }
    for (std::size_t ty = 0; ty < t.types().size(); ++ty) {
        EXPECT_EQ(r.type(ty).name, t.type(ty).name);
        EXPECT_EQ(r.type(ty).variants.size(),
                  t.type(ty).variants.size());
    }
}

TEST(TraceIo, RejectsGarbageFile)
{
    const std::string path = "/tmp/tp_test_garbage.bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a trace", f);
    std::fclose(f);
    EXPECT_THROW(deserializeTrace(path), SimError);
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile)
{
    EXPECT_THROW(deserializeTrace("/tmp/definitely_missing_tp.bin"),
                 SimError);
}

} // namespace
} // namespace tp::trace
