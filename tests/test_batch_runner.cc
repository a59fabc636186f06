/**
 * @file
 * Tests of the plan-driven experiment runner: ordered streaming
 * delivery to sinks, per-job deterministic seeding, trace
 * memoization across jobs and trace sources (and which traces a run
 * retains), exception propagation, sink composition, and — the
 * contract the whole design rests on — bit-identical reported
 * statistics for any worker count.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>

#include "common/binary_io.hh"
#include "common/logging.hh"
#include "harness/batch_runner.hh"
#include "harness/result_cache.hh"
#include "trace/trace_io.hh"

namespace tp::harness {
namespace {

namespace fs = std::filesystem;

work::WorkloadParams
tinyScale()
{
    work::WorkloadParams p;
    p.scale = 0.02; // a handful of tasks per type: fast
    p.seed = 42;
    return p;
}

/** A small mixed plan over two workloads and two policies. */
ExperimentPlan
smallPlan()
{
    ExperimentPlan plan;
    for (const char *name : {"histogram", "vector-operation"}) {
        for (bool lazy : {true, false}) {
            JobSpec j;
            j.label = std::string(name) + (lazy ? " lazy" : " p100");
            j.workload = name;
            j.workloadParams = tinyScale();
            j.spec.arch = cpu::highPerformanceConfig();
            j.spec.threads = 8;
            j.sampling = lazy
                             ? sampling::SamplingParams::lazy()
                             : sampling::SamplingParams::periodic(100);
            j.mode = BatchMode::Both;
            plan.jobs.push_back(j);
        }
    }
    return plan;
}

/** The deterministic (host-timing-free) fields of a SimResult. */
struct Fingerprint
{
    Cycles totalCycles;
    std::uint64_t detailedTasks;
    std::uint64_t fastTasks;
    InstCount detailedInsts;
    InstCount fastInsts;
    std::size_t taskRecords;

    bool
    operator==(const Fingerprint &o) const
    {
        return totalCycles == o.totalCycles &&
               detailedTasks == o.detailedTasks &&
               fastTasks == o.fastTasks &&
               detailedInsts == o.detailedInsts &&
               fastInsts == o.fastInsts &&
               taskRecords == o.taskRecords;
    }
};

Fingerprint
fingerprint(const sim::SimResult &r)
{
    return Fingerprint{r.totalCycles, r.detailedTasks, r.fastTasks,
                       r.detailedInsts, r.fastInsts, r.tasks.size()};
}

TEST(BatchRunner, JobSeedIsDeterministicAndIndexSensitive)
{
    EXPECT_EQ(BatchRunner::jobSeed(42, 0), BatchRunner::jobSeed(42, 0));
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 64; ++i)
        seeds.insert(BatchRunner::jobSeed(42, i));
    EXPECT_EQ(seeds.size(), 64u) << "per-index seeds must not collide";
    EXPECT_NE(BatchRunner::jobSeed(1, 0), BatchRunner::jobSeed(2, 0));
}

TEST(BatchRunner, ResultsArriveInSubmissionOrder)
{
    BatchOptions opts;
    opts.jobs = 4;
    const ExperimentPlan plan = smallPlan();
    const std::vector<BatchResult> results =
        BatchRunner(opts).run(plan);
    ASSERT_EQ(results.size(), plan.jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].label, plan.jobs[i].label);
        ASSERT_TRUE(results[i].sampled.has_value());
        ASSERT_TRUE(results[i].reference.has_value());
        ASSERT_TRUE(results[i].comparison.has_value());
    }
}

TEST(BatchRunner, SinkSeesOrderedStreamWithBeginAndEnd)
{
    /** Records the call protocol run() promises to sinks. */
    class ProtocolSink final : public ResultSink
    {
      public:
        void
        begin(std::size_t totalJobs) override
        {
            ++begins;
            announced = totalJobs;
        }
        void
        consume(BatchResult &&r) override
        {
            indices.push_back(r.index);
        }
        void end() override { ++ends; }

        int begins = 0;
        int ends = 0;
        std::size_t announced = 0;
        std::vector<std::size_t> indices;
    };

    const ExperimentPlan plan = smallPlan();
    BatchOptions opts;
    opts.jobs = 4;
    ProtocolSink sink;
    BatchRunner(opts).run(plan, sink);

    EXPECT_EQ(sink.begins, 1);
    EXPECT_EQ(sink.ends, 1);
    EXPECT_EQ(sink.announced, plan.jobs.size());
    ASSERT_EQ(sink.indices.size(), plan.jobs.size());
    for (std::size_t i = 0; i < sink.indices.size(); ++i)
        EXPECT_EQ(sink.indices[i], i)
            << "delivery must follow submission order";
}

TEST(BatchRunner, EightJobsBitIdenticalToOneJob)
{
    // The acceptance test of the parallel runner: everything reported
    // except host wall-clock must be bit-identical between a serial
    // and a heavily oversubscribed parallel run.
    const ExperimentPlan plan = smallPlan();

    BatchOptions serial;
    serial.jobs = 1;
    const std::vector<BatchResult> a = BatchRunner(serial).run(plan);

    BatchOptions parallel;
    parallel.jobs = 8;
    const std::vector<BatchResult> b =
        BatchRunner(parallel).run(plan);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].label);
        EXPECT_TRUE(fingerprint(a[i].sampled->result) ==
                    fingerprint(b[i].sampled->result));
        EXPECT_TRUE(fingerprint(*a[i].reference) ==
                    fingerprint(*b[i].reference));
        // Error is a pure function of the two cycle counts.
        EXPECT_EQ(a[i].comparison->errorPct, b[i].comparison->errorPct);
        EXPECT_EQ(a[i].comparison->detailFraction,
                  b[i].comparison->detailFraction);
        // Sampling statistics, phase for phase.
        const sampling::SamplingStats &sa = a[i].sampled->stats;
        const sampling::SamplingStats &sb = b[i].sampled->stats;
        EXPECT_EQ(sa.warmupTasks, sb.warmupTasks);
        EXPECT_EQ(sa.sampleTasks, sb.sampleTasks);
        EXPECT_EQ(sa.fastTasks, sb.fastTasks);
        EXPECT_EQ(sa.resamples, sb.resamples);
        EXPECT_EQ(sa.phaseChanges, sb.phaseChanges);
    }
}

TEST(BatchRunner, TraceFileJobMatchesWorkloadJob)
{
    // A job naming a trace file must equal a job generating the same
    // trace from the registry (same workload, same seed).
    const trace::TaskTrace shared =
        work::generateWorkload("histogram", tinyScale());
    const fs::path file =
        fs::path(testing::TempDir()) / "tp_batch_runner_shared.trace";
    trace::serializeTrace(shared, file.string());

    ExperimentPlan plan;
    plan.deriveSeeds = false; // keep the workloadParams seed
    JobSpec generating;
    generating.label = "own";
    generating.workload = "histogram";
    generating.workloadParams = tinyScale();
    generating.spec.arch = cpu::highPerformanceConfig();
    generating.spec.threads = 8;
    generating.sampling = sampling::SamplingParams::lazy();
    plan.jobs.push_back(generating);

    JobSpec fromFile = generating;
    fromFile.label = "from file";
    fromFile.workload.clear();
    fromFile.traceFile = file.string();
    plan.jobs.push_back(fromFile);

    BatchOptions opts;
    opts.jobs = 2;
    const std::vector<BatchResult> results =
        BatchRunner(opts).run(plan);
    EXPECT_TRUE(fingerprint(results[0].sampled->result) ==
                fingerprint(results[1].sampled->result));
    fs::remove(file);
}

TEST(BatchRunner, ResolveTraceMemoizesPerSource)
{
    JobSpec j;
    j.label = "memo";
    j.workload = "histogram";
    j.workloadParams = tinyScale();

    const BatchRunner runner;
    const std::shared_ptr<const trace::TaskTrace> a =
        runner.resolveTrace(j);
    const std::shared_ptr<const trace::TaskTrace> b =
        runner.resolveTrace(j);
    EXPECT_EQ(a.get(), b.get())
        << "identical sources must share one realized trace";
    EXPECT_EQ(a->size(),
              work::generateWorkload("histogram", tinyScale()).size());

    JobSpec other = j;
    other.workloadParams.seed = 43;
    EXPECT_NE(runner.resolveTrace(other).get(), a.get())
        << "a different seed is a different source";
}

TEST(BatchRunner, RetainsOnlyTracesSeveralJobsOfARunName)
{
    // Trace-file sources make retention observable: once the files
    // are gone, only a retained trace can still be served.
    const trace::TaskTrace t =
        work::generateWorkload("histogram", tinyScale());
    const fs::path dir = testing::TempDir();
    const fs::path shared = dir / "tp_batch_runner_retained.trace";
    const fs::path single = dir / "tp_batch_runner_single.trace";
    trace::serializeTrace(t, shared.string());
    trace::serializeTrace(t, single.string());

    const auto job = [](const fs::path &file) {
        JobSpec j;
        j.label = file.filename().string();
        j.traceFile = file.string();
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.sampling = sampling::SamplingParams::lazy();
        return j;
    };
    ExperimentPlan plan;
    plan.jobs = {job(shared), job(shared), job(single)};
    BatchOptions opts;
    opts.jobs = 2;
    const BatchRunner runner(opts);
    EXPECT_EQ(runner.run(plan).size(), 3u);
    fs::remove(shared);
    fs::remove(single);

    // Two jobs named it: retained, and reused by a later run even
    // though only one job of that run names it.
    plan.jobs = {job(shared)};
    EXPECT_EQ(runner.run(plan).size(), 1u);
    // One job named it: not retained, so it must be loaded again.
    plan.jobs = {job(single)};
    EXPECT_THROW((void)runner.run(plan), IoError);
}

TEST(BatchRunner, DerivedSeedsChangeWithBaseSeed)
{
    JobSpec j;
    j.label = "seeded";
    j.workload = "histogram";
    j.workloadParams = tinyScale();
    j.spec.arch = cpu::highPerformanceConfig();
    j.spec.threads = 8;
    j.sampling = sampling::SamplingParams::lazy();

    ExperimentPlan p1;
    p1.jobs = {j};
    p1.baseSeed = 1;
    ExperimentPlan p2 = p1;
    p2.baseSeed = 2;
    BatchOptions opts;
    opts.jobs = 2;
    const BatchRunner runner(opts);
    const Cycles c1 = runner.run(p1)[0].sampled->result.totalCycles;
    const Cycles c2 = runner.run(p2)[0].sampled->result.totalCycles;
    EXPECT_NE(c1, c2)
        << "deriveSeeds must reseed workload synthesis per base seed";
}

TEST(BatchRunner, MalformedJobsFailFast)
{
    BatchOptions opts;
    opts.jobs = 2;

    JobSpec bad;
    bad.label = "bad";
    bad.workload = "no-such-workload";
    bad.spec.arch = cpu::highPerformanceConfig();
    ExperimentPlan plan;
    plan.jobs = {bad};
    EXPECT_THROW((void)BatchRunner(opts).run(plan), SimError);

    JobSpec none;
    none.label = "no source";
    plan.jobs = {none};
    EXPECT_THROW((void)BatchRunner(opts).run(plan), SimError);

    JobSpec both;
    both.label = "two sources";
    both.workload = "histogram";
    both.traceFile = "whatever.trace";
    plan.jobs = {both};
    EXPECT_THROW((void)BatchRunner(opts).run(plan), SimError);
}

TEST(BatchRunner, MissingTraceFileRaisesRecoverableIoError)
{
    JobSpec j;
    j.label = "gone";
    j.traceFile = "/nonexistent/tp_no_such.trace";
    ExperimentPlan plan;
    plan.jobs = {j};
    BatchOptions opts;
    opts.jobs = 2;
    EXPECT_THROW((void)BatchRunner(opts).run(plan), IoError);
}

TEST(BatchRunner, ColdAndWarmCacheRunsAreIdentical)
{
    // Determinism regression over the result cache: a serial
    // cold-cache run, a parallel cold-cache run and a parallel
    // warm-cache run must produce identical reports except host
    // wall-clock fields — for the references and, since sampled
    // outcomes are cached too, for the sampled runs.
    const fs::path coldDir =
        fs::path(testing::TempDir()) / "tp_batch_cache_cold";
    const fs::path warmDir =
        fs::path(testing::TempDir()) / "tp_batch_cache_warm";
    fs::remove_all(coldDir);
    fs::remove_all(warmDir);

    const ExperimentPlan plan = smallPlan();

    ResultCacheOptions co;
    co.dir = coldDir.string();
    ResultCache serialCache(co);
    BatchOptions serial;
    serial.jobs = 1;
    serial.cache = &serialCache;
    const std::vector<BatchResult> a = BatchRunner(serial).run(plan);

    ResultCacheOptions wo;
    wo.dir = warmDir.string();
    ResultCache parallelCache(wo);
    BatchOptions parallel;
    parallel.jobs = 4;
    parallel.cache = &parallelCache;
    const std::vector<BatchResult> b =
        BatchRunner(parallel).run(plan); // cold
    const std::vector<BatchResult> c =
        BatchRunner(parallel).run(plan); // warm, same directory

    ASSERT_EQ(a.size(), plan.jobs.size());
    ASSERT_EQ(b.size(), plan.jobs.size());
    ASSERT_EQ(c.size(), plan.jobs.size());
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        SCOPED_TRACE(plan.jobs[i].label);
        // Everything was simulated in the cold runs and replayed in
        // the warm one.
        EXPECT_FALSE(a[i].referenceFromCache);
        EXPECT_FALSE(a[i].sampledFromCache);
        EXPECT_FALSE(b[i].referenceFromCache);
        EXPECT_FALSE(b[i].sampledFromCache);
        EXPECT_TRUE(c[i].referenceFromCache);
        EXPECT_TRUE(c[i].sampledFromCache);

        // Deterministic fields agree across all three runs.
        EXPECT_TRUE(fingerprint(*a[i].reference) ==
                    fingerprint(*b[i].reference));
        EXPECT_TRUE(fingerprint(*b[i].reference) ==
                    fingerprint(*c[i].reference));
        EXPECT_TRUE(fingerprint(a[i].sampled->result) ==
                    fingerprint(c[i].sampled->result));
        EXPECT_EQ(a[i].comparison->errorPct, c[i].comparison->errorPct);
        EXPECT_EQ(b[i].comparison->errorPct, c[i].comparison->errorPct);
        EXPECT_EQ(a[i].comparison->detailFraction,
                  c[i].comparison->detailFraction);

        // The warm run replays even the stored host wall-clock of
        // the cold run, bit for bit — reference and sampled alike.
        EXPECT_EQ(std::memcmp(&b[i].reference->wallSeconds,
                              &c[i].reference->wallSeconds,
                              sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(&b[i].sampled->result.wallSeconds,
                              &c[i].sampled->result.wallSeconds,
                              sizeof(double)),
                  0);
    }
    // One reference and one sampled entry per job.
    EXPECT_EQ(parallelCache.stats().hits, 2 * plan.jobs.size());
    EXPECT_EQ(parallelCache.stats().stores, 2 * plan.jobs.size());

    fs::remove_all(coldDir);
    fs::remove_all(warmDir);
}

TEST(BatchRunner, TeeAndStatsSinksComposeOverOnePass)
{
    const ExperimentPlan plan = smallPlan();
    BatchOptions opts;
    opts.jobs = 4;

    CollectingSink first, second;
    StatsSink stats;
    TeeSink tee({&first, &stats, &second});
    BatchRunner(opts).run(plan, tee);

    ASSERT_EQ(first.results().size(), plan.jobs.size());
    ASSERT_EQ(second.results().size(), plan.jobs.size());
    EXPECT_EQ(stats.jobs(), plan.jobs.size());
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        EXPECT_EQ(first.results()[i].label,
                  second.results()[i].label);
        EXPECT_TRUE(fingerprint(first.results()[i].sampled->result) ==
                    fingerprint(second.results()[i].sampled->result));
    }

    // The streaming stats equal a StatsSink fed the collected vector.
    StatsSink collected;
    for (BatchResult r : first.results())
        collected.consume(std::move(r));
    EXPECT_EQ(stats.errorStats().count(),
              collected.errorStats().count());
    EXPECT_EQ(stats.errorStats().mean(), collected.errorStats().mean());
    EXPECT_EQ(stats.errorStats().max(), collected.errorStats().max());
}

TEST(BatchRunner, SummaryTableAndErrorStats)
{
    BatchOptions opts;
    opts.jobs = 4;
    const ExperimentPlan plan = smallPlan();

    // Streamed table rows must equal a TableSink fed the collected
    // vector.
    TableSink streamed("t", /*printAtEnd=*/false);
    StatsSink stats;
    CollectingSink collected;
    TeeSink tee({&streamed, &stats, &collected});
    BatchRunner(opts).run(plan, tee);

    const RunningStats &err = stats.errorStats();
    EXPECT_EQ(err.count(), plan.jobs.size());
    EXPECT_GE(err.min(), 0.0);

    TableSink replayed("t", /*printAtEnd=*/false);
    for (BatchResult r : collected.results())
        replayed.consume(std::move(r));
    const std::string rendered = replayed.table().render();
    EXPECT_EQ(rendered, streamed.table().render());
    for (const BatchResult &r : collected.results())
        EXPECT_NE(rendered.find(r.label), std::string::npos);
}

} // namespace
} // namespace tp::harness
