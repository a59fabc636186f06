/**
 * @file
 * Cross-module integration tests: engine x scheduler x sampling
 * interactions, quantum insensitivity, dispatch overhead accounting,
 * state aging in sampled runs, and low-power end-to-end behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "common/statistics.hh"
#include "harness/experiment.hh"
#include "trace/trace_builder.hh"

namespace tp {
namespace {

work::WorkloadParams
smallScale()
{
    work::WorkloadParams p;
    p.scale = 0.04;
    p.seed = 7;
    return p;
}

harness::RunSpec
spec(std::uint32_t threads,
     const std::string &arch = "highperf")
{
    harness::RunSpec s;
    s.arch = cpu::archConfigByName(arch);
    s.threads = threads;
    return s;
}

TEST(Integration, QuantumSizeBarelyChangesResults)
{
    // The quantum must stay well below the task size (see RunSpec)
    // so cores interleave within tasks. The interleaving is
    // approximate, so granularity shifts contention ordering by a
    // bounded amount — well under the 50%+ swing whole-task quanta
    // produce. Both reference and sampled runs always share one
    // quantum, so error metrics are internally consistent.
    const trace::TaskTrace t =
        work::generateWorkload("histogram", smallScale());
    harness::RunSpec a = spec(4);
    a.quantum = 256;
    harness::RunSpec b = spec(4);
    b.quantum = 1024;
    const Cycles ca = harness::runDetailed(t, a).totalCycles;
    const Cycles cb = harness::runDetailed(t, b).totalCycles;
    EXPECT_NEAR(double(ca), double(cb), 0.25 * double(ca));
}

TEST(Integration, DispatchOverheadLengthensRuns)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", smallScale());
    harness::RunSpec cheap = spec(4);
    cheap.runtime.dispatchOverhead = 0;
    harness::RunSpec costly = spec(4);
    costly.runtime.dispatchOverhead = 20000;
    EXPECT_GT(harness::runDetailed(t, costly).totalCycles,
              harness::runDetailed(t, cheap).totalCycles);
}

TEST(Integration, SchedulersAllCompleteAndDiffer)
{
    const trace::TaskTrace t =
        work::generateWorkload("cholesky", smallScale());
    std::vector<Cycles> totals;
    for (const rt::SchedulerKind kind :
         {rt::SchedulerKind::Fifo, rt::SchedulerKind::WorkStealing,
          rt::SchedulerKind::Locality}) {
        harness::RunSpec s = spec(4);
        s.runtime.scheduler = kind;
        const sim::SimResult r = harness::runDetailed(t, s);
        EXPECT_GT(r.totalCycles, 0u) << rt::toString(kind);
        EXPECT_EQ(r.detailedTasks, t.size()) << rt::toString(kind);
        totals.push_back(r.totalCycles);
    }
    // Dynamic scheduling decisions must actually differ.
    EXPECT_FALSE(totals[0] == totals[1] && totals[1] == totals[2]);
}

TEST(Integration, SamplingWorksUnderWorkStealing)
{
    const trace::TaskTrace t =
        work::generateWorkload("swaptions", smallScale());
    harness::RunSpec s = spec(4);
    s.runtime.scheduler = rt::SchedulerKind::WorkStealing;
    const sim::SimResult ref = harness::runDetailed(t, s);
    const harness::SampledOutcome sam = harness::runSampled(
        t, s, sampling::SamplingParams::lazy());
    EXPECT_LT(harness::compare(ref, sam.result).errorPct, 10.0);
}

TEST(Integration, LowPowerSlowerThanHighPerf)
{
    const trace::TaskTrace t =
        work::generateWorkload("blackscholes", smallScale());
    const Cycles hp =
        harness::runDetailed(t, spec(4, "highperf")).totalCycles;
    const Cycles lp =
        harness::runDetailed(t, spec(4, "lowpower")).totalCycles;
    EXPECT_GT(lp, hp);
}

TEST(Integration, SampledRunsAreDeterministic)
{
    const trace::TaskTrace t =
        work::generateWorkload("kmeans", smallScale());
    const harness::SampledOutcome a = harness::runSampled(
        t, spec(4), sampling::SamplingParams::lazy());
    const harness::SampledOutcome b = harness::runSampled(
        t, spec(4), sampling::SamplingParams::lazy());
    EXPECT_EQ(a.result.totalCycles, b.result.totalCycles);
    EXPECT_EQ(a.stats.resamples, b.stats.resamples);
    EXPECT_EQ(a.stats.fastTasks, b.stats.fastTasks);
}

TEST(Integration, PeriodGradientMatchesFigSixC)
{
    // Larger P => fewer detailed instructions and (weakly) more
    // error risk; the detail fraction must be monotonically
    // non-increasing in P (paper Fig. 6c's speedup trend).
    const trace::TaskTrace t =
        work::generateWorkload("vector-operation", smallScale());
    double prev_detail = 1.0;
    for (std::uint64_t p : {10, 50, 250}) {
        const harness::SampledOutcome out = harness::runSampled(
            t, spec(4), sampling::SamplingParams::periodic(p));
        const double detail = out.result.detailFraction();
        EXPECT_LE(detail, prev_detail + 0.02) << "P=" << p;
        prev_detail = detail;
    }
}

TEST(Integration, WarmupGradientMatchesFigSixA)
{
    // More warmup instances => more detailed work.
    const trace::TaskTrace t =
        work::generateWorkload("canneal", smallScale());
    sampling::SamplingParams p0 = sampling::SamplingParams::lazy();
    p0.warmup = 0;
    sampling::SamplingParams p8 = sampling::SamplingParams::lazy();
    p8.warmup = 8;
    const auto low = harness::runSampled(t, spec(4), p0);
    const auto high = harness::runSampled(t, spec(4), p8);
    EXPECT_GT(high.stats.warmupTasks, low.stats.warmupTasks);
    EXPECT_GE(high.result.detailFraction(),
              low.result.detailFraction());
}

TEST(Integration, TotalCyclesConsistentWithTaskRecords)
{
    const trace::TaskTrace t =
        work::generateWorkload("histogram", smallScale());
    harness::RunSpec s = spec(4);
    s.recordTasks = true;
    const sim::SimResult r = harness::runDetailed(t, s);
    Cycles max_end = 0;
    for (const sim::TaskRecord &rec : r.tasks) {
        EXPECT_LT(rec.start, rec.end);
        max_end = std::max(max_end, rec.end);
    }
    EXPECT_EQ(max_end, r.totalCycles);
}

TEST(Integration, NoTwoTasksOverlapOnOneCore)
{
    const trace::TaskTrace t =
        work::generateWorkload("kmeans", smallScale());
    harness::RunSpec s = spec(3);
    s.recordTasks = true;
    const sim::SimResult r = harness::runDetailed(t, s);
    std::map<ThreadId, std::vector<std::pair<Cycles, Cycles>>> spans;
    for (const sim::TaskRecord &rec : r.tasks)
        spans[rec.thread].emplace_back(rec.start, rec.end);
    for (auto &[thr, v] : spans) {
        std::sort(v.begin(), v.end());
        for (std::size_t i = 1; i < v.size(); ++i) {
            EXPECT_GE(v[i].first, v[i - 1].second)
                << "core " << thr << " ran overlapping tasks";
        }
    }
}

TEST(Integration, SampledMakespanRespectsDependencies)
{
    // Even with fast-forwarding, a serialized chain cannot finish
    // faster than the sum of its predicted durations.
    trace::TraceBuilder b("chain", 23);
    const auto ty = b.addTaskType("t", trace::KernelProfile{});
    TaskInstanceId prev = b.createTask(ty, 5000);
    for (int i = 0; i < 80; ++i) {
        const TaskInstanceId cur = b.createTask(ty, 5000);
        b.addDependency(prev, cur);
        prev = cur;
    }
    const trace::TaskTrace t = b.build();
    harness::RunSpec s = spec(4);
    s.recordTasks = true;
    const harness::SampledOutcome sam = harness::runSampled(
        t, s, sampling::SamplingParams::lazy());
    std::vector<sim::TaskRecord> recs = sam.result.tasks;
    std::sort(recs.begin(), recs.end(),
              [](const sim::TaskRecord &a, const sim::TaskRecord &b2) {
                  return a.id < b2.id;
              });
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].start, recs[i - 1].end);
}

} // namespace
} // namespace tp
