/**
 * @file
 * Micro-benchmarks of the simulator substrate (google-benchmark):
 * cache lookups, synthetic instruction-stream generation, detailed
 * core throughput, the cost of an inactive fault-injection site, the
 * costs of a sample boundary (fast-forward aging, checkpoint framing
 * and the state block codec), and end-to-end engine runs in both
 * modes.
 */

#include <benchmark/benchmark.h>

#include <istream>
#include <sstream>

#include "common/binary_io.hh"
#include "common/fault_injection.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"
#include "cpu/rob_core.hh"
#include "harness/experiment.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "sim/checkpoint.hh"
#include "sim/event_queue.hh"
#include "trace/instr_stream.hh"
#include "trace/trace_builder.hh"
#include "workloads/workloads.hh"

using namespace tp;

namespace {

void
BM_CacheAccessHit(benchmark::State &state)
{
    mem::Cache c("bm", mem::CacheConfig{32 * 1024, 8, 64, 4, 0});
    c.access(0x1000, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(c.access(0x1000, false).hit);
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessStream(benchmark::State &state)
{
    mem::Cache c("bm", mem::CacheConfig{32 * 1024, 8, 64, 4, 0});
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a, false).hit);
        a += 64;
    }
}
BENCHMARK(BM_CacheAccessStream);

void
BM_HierarchyAccess(benchmark::State &state)
{
    mem::Hierarchy h(cpu::highPerformanceConfig().memory, 4);
    Rng rng(1);
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access(0, rng.nextBounded(1 << 20), false, now));
        now += 4;
    }
}
BENCHMARK(BM_HierarchyAccess);

void
BM_InstrStreamGeneration(benchmark::State &state)
{
    trace::TraceBuilder b("bm", 1);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    b.createTask(ty, 1u << 30);
    const trace::TaskTrace t = b.build();
    trace::InstrStream s(t.type(0), t.instance(0));
    trace::Instr in;
    for (auto _ : state) {
        s.next(in);
        benchmark::DoNotOptimize(in.addr);
    }
}
BENCHMARK(BM_InstrStreamGeneration);

void
BM_InstrStreamFillBlock(benchmark::State &state)
{
    trace::TraceBuilder b("bm", 1);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    b.createTask(ty, 1u << 30);
    const trace::TaskTrace t = b.build();
    trace::InstrStream s(t.type(0), t.instance(0));
    trace::Instr buf[256];
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.fillBlock(buf, 256));
        benchmark::DoNotOptimize(buf[0].addr);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_InstrStreamFillBlock);

void
BM_RngZipf(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.zipf(16384, 0.8));
}
BENCHMARK(BM_RngZipf);

void
BM_ZipfSampler(benchmark::State &state)
{
    Rng rng(7);
    const Rng::ZipfSampler zipf(16384, 0.8);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSampler);

void
BM_BernoulliSampler(benchmark::State &state)
{
    Rng rng(7);
    const Rng::BernoulliSampler coin(0.35);
    for (auto _ : state)
        benchmark::DoNotOptimize(coin.sample(rng));
}
BENCHMARK(BM_BernoulliSampler);

/** The sharers-directory access pattern of Hierarchy::access. */
void
BM_FlatMapCoherenceLookup(benchmark::State &state)
{
    FlatMap64<std::uint64_t> sharers;
    Rng rng(11);
    // Populate like a shared region: 16k hot lines above 2^34.
    constexpr std::uint64_t kBase = 1ULL << 34;
    for (std::uint64_t i = 0; i < 16384; ++i)
        sharers[kBase + i] = 1;
    for (auto _ : state) {
        std::uint64_t &mask =
            sharers[kBase + rng.nextBounded(16384)];
        mask |= 2;
        benchmark::DoNotOptimize(mask);
    }
}
BENCHMARK(BM_FlatMapCoherenceLookup);

/** The engine's pick-lagging-core pattern at 64 cores. */
void
BM_EngineEventQueue(benchmark::State &state)
{
    sim::CoreEventQueue q(64);
    Rng rng(13);
    for (ThreadId c = 0; c < 64; ++c)
        q.update(c, rng.nextBounded(1000));
    Cycles now = 1000;
    for (auto _ : state) {
        const ThreadId c = q.top();
        q.update(c, now + rng.nextBounded(256));
        ++now;
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_EngineEventQueue);

/**
 * One out-of-line call per iteration, so the benchmark times the
 * FAULT_POINT macro as instrumented sites use it, not a hoisted
 * remnant of it.
 */
#if defined(__GNUC__)
__attribute__((noinline))
#endif
std::uint64_t
faultPointOnce(std::uint64_t i)
{
    FAULT_POINT("bench.fault.probe");
    return i;
}

/**
 * Per-call cost of a FAULT_POINT with no fault plan installed: the
 * fault hooks' zero-overhead-when-off contract (one relaxed atomic
 * load per site).
 */
void
BM_FaultPointInactive(benchmark::State &state)
{
    fault::clearFaultPlan();
    std::uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(faultPointOnce(i++));
}
BENCHMARK(BM_FaultPointInactive);

void
BM_DetailedCoreThroughput(benchmark::State &state)
{
    const cpu::ArchConfig arch = cpu::highPerformanceConfig();
    mem::Hierarchy h(arch.memory, 1);
    cpu::RobCore core(arch.core, h, 0);

    trace::TraceBuilder b("bm", 1);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    b.createTask(ty, 1u << 30);
    const trace::TaskTrace t = b.build();
    core.beginTask(t.type(0), t.instance(0), 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(core.step(1024));
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DetailedCoreThroughput);

/**
 * Leaving fast-forward after a long skip: aging that replaces every
 * way of every cache of the 8-core high-performance hierarchy.
 */
void
BM_FastForwardAging(benchmark::State &state)
{
    mem::Hierarchy h(cpu::highPerformanceConfig().memory, 8);
    for (auto _ : state) {
        h.applyFastForwardAging(1ULL << 30);
        benchmark::DoNotOptimize(&h);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_FastForwardAging)->Unit(benchmark::kMillisecond);

/**
 * Framing one checkpoint and parsing it back: serializeCheckpoint
 * then deserializeCheckpoint of a 10 MB payload, about what one
 * boundary of the 8-core high-performance hierarchy records.
 */
void
BM_CheckpointFrame(benchmark::State &state)
{
    sim::Checkpoint cp;
    cp.boundary = 1;
    cp.state.resize(10u << 20);
    Rng rng(17);
    for (std::size_t i = 0; i + 8 <= cp.state.size(); i += 8) {
        const std::uint64_t word = rng.next();
        cp.state.replace(i, 8, reinterpret_cast<const char *>(&word),
                         8);
    }
    for (auto _ : state) {
        const std::string blob = sim::serializeCheckpoint(cp);
        const sim::Checkpoint back =
            sim::deserializeCheckpoint(blob, "bench");
        benchmark::DoNotOptimize(blob.data());
        benchmark::DoNotOptimize(back.state.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>(cp.state.size()));
}
BENCHMARK(BM_CheckpointFrame)->Unit(benchmark::kMillisecond);

/**
 * Encoding and decoding the checkpoint state of an aged 8-core
 * high-performance hierarchy: the run-length block codec over the
 * tag, stamp and sharers arrays that make up most of every boundary's
 * payload. Resident lines from random traffic sit between the junk
 * and empty ways a partial fast-forward aging leaves behind.
 */
void
BM_StateBlockCodec(benchmark::State &state)
{
    const mem::MemoryConfig cfg = cpu::highPerformanceConfig().memory;
    mem::Hierarchy h(cfg, 8);
    Rng rng(5);
    Cycles now = 0;
    const auto traffic = [&](int accesses) {
        for (int i = 0; i < accesses; ++i, now += 4)
            h.access(static_cast<ThreadId>(rng.nextBounded(8)),
                     rng.nextBounded(1ULL << 26) & ~Addr{63},
                     rng.bernoulli(0.3), now);
    };
    traffic(200000);
    h.applyFastForwardAging(1ULL << 21);
    traffic(50000);

    mem::Hierarchy back(cfg, 8);
    std::size_t bytes = 0;
    for (auto _ : state) {
        std::ostringstream os(std::ios::binary);
        BinaryWriter w(os);
        StateIo save(w);
        h.state(save);
        const std::string payload = std::move(os).str();
        ByteViewBuf view(payload.data(), payload.size());
        std::istream is(&view);
        BinaryReader r(is, "bench");
        StateIo load(r);
        back.state(load);
        bytes = payload.size();
        benchmark::DoNotOptimize(&back);
        benchmark::ClobberMemory();
    }
    state.counters["payload_MB"] = static_cast<double>(bytes) / 1e6;
}
BENCHMARK(BM_StateBlockCodec)->Unit(benchmark::kMillisecond);

void
BM_EngineDetailedRun(benchmark::State &state)
{
    work::WorkloadParams wp;
    wp.scale = 0.015; // ~250 tasks: keep iterations short
    const trace::TaskTrace t =
        work::generateWorkload("histogram", wp);
    for (auto _ : state) {
        harness::RunSpec spec;
        spec.arch = cpu::highPerformanceConfig();
        spec.threads = 8;
        benchmark::DoNotOptimize(
            harness::runDetailed(t, spec).totalCycles);
    }
}
BENCHMARK(BM_EngineDetailedRun)->Unit(benchmark::kMillisecond);

void
BM_EngineSampledRun(benchmark::State &state)
{
    work::WorkloadParams wp;
    wp.scale = 0.015;
    const trace::TaskTrace t =
        work::generateWorkload("histogram", wp);
    for (auto _ : state) {
        harness::RunSpec spec;
        spec.arch = cpu::highPerformanceConfig();
        spec.threads = 8;
        benchmark::DoNotOptimize(
            harness::runSampled(t, spec,
                                sampling::SamplingParams::lazy())
                .result.totalCycles);
    }
}
BENCHMARK(BM_EngineSampledRun)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
