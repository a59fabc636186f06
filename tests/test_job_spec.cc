/**
 * @file
 * Round-trip, digest and corruption batteries for the serializable
 * experiment descriptions (harness/job_spec) and for SampledOutcome
 * serialization (sim/result_io) — the prerequisites for shipping
 * whole experiment plans to out-of-process workers and for caching
 * sampled runs.
 *
 * Round trip: serialize → deserialize → re-serialize is
 * byte-identical for plans exercising every field, and a replayed
 * plan simulates to the same results as the in-memory original.
 *
 * Digests: jobSpecDigest/planDigest are stable across recomputation
 * and round trips, and sensitive to every field.
 *
 * Corruption: truncated streams, bad magic/version, corrupt enum
 * bytes and trailing garbage must raise a recoverable IoError,
 * never crash or silently succeed (mirroring test_trace_io).
 *
 * Wire bytes: the WireBytes suite pins the exact bytes of every
 * binary wire format (plans, shards, traces, results, sampled
 * outcomes, batch results with timelines) and the cache-key and
 * digest strings derived from them. Caches, checkpoint stores and
 * saved plans written by one build must keep hitting in the next,
 * so a value here only changes together with a format version, or
 * when its input changes (fullPlan lost the retired settings), and
 * then to the value the parent commit computes for the new input.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "common/binary_io.hh"
#include "common/hash.hh"
#include "harness/batch_runner.hh"
#include "harness/plan_shard.hh"
#include "harness/result_cache.hh"
#include "harness/result_sink.hh"
#include "sim/result_io.hh"
#include "trace/trace_io.hh"

namespace tp::harness {
namespace {

/** A plan exercising every serialized field at non-default values. */
ExperimentPlan
fullPlan()
{
    ExperimentPlan plan;
    plan.baseSeed = 0xdeadbeefULL;
    plan.deriveSeeds = false;

    JobSpec a;
    a.label = "workload job";
    a.workload = "histogram";
    a.workloadParams.scale = 0.75;
    a.workloadParams.instrScale = 1.5;
    a.workloadParams.seed = 7;
    a.spec.arch = cpu::lowPowerConfig();
    a.spec.arch.core.robSize = 97;
    a.spec.threads = 24;
    a.spec.runtime.scheduler = rt::SchedulerKind::Locality;
    a.spec.runtime.dispatchOverhead = 321;
    a.spec.runtime.seed = 99;
    a.spec.quantum = 2048;
    a.spec.recordTasks = true;
    a.spec.noise.enabled = true;
    a.spec.noise.sigma = 0.05;
    a.spec.noise.preemptProb = 0.01;
    a.spec.noise.preemptMeanCycles = 12345.5;
    a.spec.noise.seed = 0xabc;
    a.sampling.warmup = 3;
    a.sampling.historySize = 7;
    a.sampling.period = 250;
    a.sampling.rareCutoff = 9;
    a.sampling.concurrencyHysteresis = 5;
    a.sampling.concurrencyTolerance = 0.375;
    a.mode = BatchMode::Both;
    plan.jobs.push_back(a);

    JobSpec b;
    b.label = "trace-file job";
    b.traceFile = "/some/dir/app.trace";
    b.spec.arch = cpu::highPerformanceConfig();
    b.spec.threads = 64;
    b.mode = BatchMode::Reference;
    plan.jobs.push_back(b);

    JobSpec c;
    c.label = "sampled job";
    c.workload = "cholesky";
    c.mode = BatchMode::Sampled;
    plan.jobs.push_back(c);

    return plan;
}

std::string
planBytes(const ExperimentPlan &plan)
{
    std::ostringstream os(std::ios::binary);
    serializePlan(plan, os);
    return os.str();
}

ExperimentPlan
fromBytes(const std::string &bytes)
{
    std::istringstream is(bytes, std::ios::binary);
    return deserializePlan(is, "<memory>");
}

TEST(JobSpecRoundTrip, PlanReserializesByteIdentical)
{
    const ExperimentPlan plan = fullPlan();
    const std::string bytes = planBytes(plan);
    const ExperimentPlan replay = fromBytes(bytes);
    EXPECT_EQ(planBytes(replay), bytes)
        << "serialize -> deserialize -> serialize must be a fixed "
           "point";
}

TEST(JobSpecRoundTrip, EveryFieldSurvives)
{
    const ExperimentPlan plan = fullPlan();
    const ExperimentPlan replay = fromBytes(planBytes(plan));

    EXPECT_EQ(replay.baseSeed, plan.baseSeed);
    EXPECT_EQ(replay.deriveSeeds, plan.deriveSeeds);
    ASSERT_EQ(replay.jobs.size(), plan.jobs.size());

    const JobSpec &a = plan.jobs[0];
    const JobSpec &r = replay.jobs[0];
    EXPECT_EQ(r.label, a.label);
    EXPECT_EQ(r.workload, a.workload);
    EXPECT_EQ(r.traceFile, a.traceFile);
    EXPECT_EQ(r.workloadParams.scale, a.workloadParams.scale);
    EXPECT_EQ(r.workloadParams.instrScale,
              a.workloadParams.instrScale);
    EXPECT_EQ(r.workloadParams.seed, a.workloadParams.seed);
    EXPECT_EQ(r.spec.arch.name, a.spec.arch.name);
    EXPECT_EQ(r.spec.arch.core.robSize, a.spec.arch.core.robSize);
    EXPECT_EQ(r.spec.arch.memory.l2Shared,
              a.spec.arch.memory.l2Shared);
    EXPECT_EQ(r.spec.arch.memory.hasL3, a.spec.arch.memory.hasL3);
    EXPECT_EQ(r.spec.arch.memory.dram.channels,
              a.spec.arch.memory.dram.channels);
    EXPECT_EQ(r.spec.threads, a.spec.threads);
    EXPECT_EQ(r.spec.runtime.scheduler, a.spec.runtime.scheduler);
    EXPECT_EQ(r.spec.runtime.dispatchOverhead,
              a.spec.runtime.dispatchOverhead);
    EXPECT_EQ(r.spec.runtime.seed, a.spec.runtime.seed);
    EXPECT_EQ(r.spec.quantum, a.spec.quantum);
    EXPECT_EQ(r.spec.recordTasks, a.spec.recordTasks);
    EXPECT_EQ(r.spec.noise.enabled, a.spec.noise.enabled);
    EXPECT_EQ(r.spec.noise.sigma, a.spec.noise.sigma);
    EXPECT_EQ(r.spec.noise.preemptProb, a.spec.noise.preemptProb);
    EXPECT_EQ(r.spec.noise.preemptMeanCycles,
              a.spec.noise.preemptMeanCycles);
    EXPECT_EQ(r.spec.noise.seed, a.spec.noise.seed);
    EXPECT_EQ(r.sampling.warmup, a.sampling.warmup);
    EXPECT_EQ(r.sampling.historySize, a.sampling.historySize);
    EXPECT_EQ(r.sampling.period, a.sampling.period);
    EXPECT_EQ(r.sampling.rareCutoff, a.sampling.rareCutoff);
    EXPECT_EQ(r.sampling.concurrencyHysteresis,
              a.sampling.concurrencyHysteresis);
    EXPECT_EQ(r.sampling.concurrencyTolerance,
              a.sampling.concurrencyTolerance);
    EXPECT_EQ(r.mode, a.mode);

    EXPECT_EQ(replay.jobs[1].traceFile, plan.jobs[1].traceFile);
    EXPECT_TRUE(replay.jobs[1].workload.empty());
    EXPECT_EQ(replay.jobs[2].mode, BatchMode::Sampled);
}

TEST(JobSpecRoundTrip, FileAndStreamFormatsAgree)
{
    const ExperimentPlan plan = fullPlan();
    const std::string path =
        testing::TempDir() + "tp_job_spec_plan.tpplan";
    serializePlan(plan, path);
    const ExperimentPlan fromFile = deserializePlan(path);
    EXPECT_EQ(planBytes(fromFile), planBytes(plan));
    std::remove(path.c_str());
}

TEST(JobSpecRoundTrip, ReplayedPlanSimulatesIdentically)
{
    // The whole point of plans: a plan that went through disk drives
    // the same simulations as the in-memory original.
    ExperimentPlan plan;
    JobSpec j;
    j.label = "replayed";
    j.workload = "histogram";
    j.workloadParams.scale = 0.02;
    j.spec.arch = cpu::highPerformanceConfig();
    j.spec.threads = 8;
    j.sampling = sampling::SamplingParams::lazy();
    j.mode = BatchMode::Both;
    plan.jobs.push_back(j);

    const ExperimentPlan replayed = fromBytes(planBytes(plan));
    BatchOptions opts;
    opts.jobs = 2;
    const BatchRunner runner(opts);
    const BatchResult a = runner.run(plan).front();
    const BatchResult b = runner.run(replayed).front();
    EXPECT_EQ(a.sampled->result.totalCycles,
              b.sampled->result.totalCycles);
    EXPECT_EQ(a.reference->totalCycles, b.reference->totalCycles);
    EXPECT_EQ(a.comparison->errorPct, b.comparison->errorPct);
}

TEST(JobSpecDigest, StableAcrossRecomputationAndRoundTrip)
{
    const ExperimentPlan plan = fullPlan();
    EXPECT_EQ(planDigest(plan), planDigest(plan));
    EXPECT_EQ(planDigest(fromBytes(planBytes(plan))),
              planDigest(plan));
    EXPECT_EQ(planDigest(plan).size(), 32u)
        << "digests are 32 hex chars (128 bits)";

    const JobSpec &job = plan.jobs[0];
    EXPECT_EQ(jobSpecDigest(job), jobSpecDigest(job));
    EXPECT_EQ(jobSpecDigest(job).size(), 32u);
}

TEST(JobSpecDigest, SensitiveToEveryFieldClass)
{
    const JobSpec base = fullPlan().jobs[0];
    const std::string d0 = jobSpecDigest(base);

    JobSpec j = base;
    j.label += "x";
    EXPECT_NE(jobSpecDigest(j), d0) << "label";
    j = base;
    j.workload = "cholesky";
    EXPECT_NE(jobSpecDigest(j), d0) << "workload";
    j = base;
    j.workloadParams.seed += 1;
    EXPECT_NE(jobSpecDigest(j), d0) << "workload seed";
    j = base;
    j.traceFile = "other.trace";
    EXPECT_NE(jobSpecDigest(j), d0) << "traceFile";
    j = base;
    j.spec.threads += 1;
    EXPECT_NE(jobSpecDigest(j), d0) << "threads";
    j = base;
    j.spec.arch.memory.l1.latency += 1;
    EXPECT_NE(jobSpecDigest(j), d0) << "arch";
    j = base;
    j.sampling.period = 100;
    EXPECT_NE(jobSpecDigest(j), d0) << "sampling";
    j = base;
    j.mode = BatchMode::Sampled;
    EXPECT_NE(jobSpecDigest(j), d0) << "mode";

    ExperimentPlan p1 = fullPlan();
    ExperimentPlan p2 = p1;
    p2.jobs.push_back(p2.jobs.front());
    EXPECT_NE(planDigest(p1), planDigest(p2)) << "job count";
    p2 = p1;
    p2.baseSeed += 1;
    EXPECT_NE(planDigest(p1), planDigest(p2)) << "baseSeed";
}

TEST(JobSpecCorruption, EveryPrefixFailsCleanlyOrRoundTrips)
{
    const std::string bytes = planBytes(fullPlan());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        try {
            (void)fromBytes(bytes.substr(0, len));
            FAIL() << "truncation at " << len << " must not decode";
        } catch (const IoError &) {
            // expected: recoverable, typed error
        }
    }
    EXPECT_NO_THROW((void)fromBytes(bytes));
}

TEST(JobSpecCorruption, BadMagicAndVersionThrowIoError)
{
    std::string bytes = planBytes(fullPlan());
    std::string badMagic = bytes;
    badMagic[0] = static_cast<char>(badMagic[0] ^ 0xff);
    EXPECT_THROW((void)fromBytes(badMagic), IoError);

    std::string badVersion = bytes;
    badVersion[8] = static_cast<char>(badVersion[8] ^ 0xff);
    EXPECT_THROW((void)fromBytes(badVersion), IoError);
}

TEST(JobSpecCorruption, TrailingBytesThrowIoError)
{
    EXPECT_THROW((void)fromBytes(planBytes(fullPlan()) + "x"),
                 IoError);
}

TEST(JobSpecCorruption, CorruptEnumBytesThrowIoError)
{
    // The mode byte sits right before the 24 bytes of v3 slice
    // coordinates (2x u32 + 2x u64) that end each serialized job;
    // the last job's fields end the plan payload.
    std::string bytes = planBytes(fullPlan());
    bytes[bytes.size() - 25] = static_cast<char>(0x7f);
    EXPECT_THROW((void)fromBytes(bytes), IoError);
}

TEST(JobSpecCorruption, CorruptSliceCoordinatesThrowIoError)
{
    // sliceIndex >= sliceCount (with sliceCount nonzero) is never
    // produced by expansion and must be rejected, not executed.
    std::string bytes = planBytes(fullPlan());
    bytes[bytes.size() - 24] = 1; // sliceCount = 1 (little endian)
    bytes[bytes.size() - 20] = 2; // sliceIndex = 2
    EXPECT_THROW((void)fromBytes(bytes), IoError);
}

TEST(JobSpecCorruption, MissingFileThrowsIoError)
{
    EXPECT_THROW(
        (void)deserializePlan("/nonexistent/tp_no_plan.tpplan"),
        IoError);
}

TEST(SampledOutcomeIo, RoundTripsBitIdentical)
{
    work::WorkloadParams wp;
    wp.scale = 0.02;
    const trace::TaskTrace t =
        work::generateWorkload("histogram", wp);
    RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 8;
    spec.recordTasks = true;
    const SampledOutcome fresh =
        runSampled(t, spec, sampling::SamplingParams::lazy());

    std::ostringstream os(std::ios::binary);
    sim::serializeSampledOutcome(fresh, os);
    const std::string bytes = os.str();

    std::istringstream is(bytes, std::ios::binary);
    const SampledOutcome replay =
        sim::deserializeSampledOutcome(is, "<memory>");

    // Re-serialization is a fixed point (covers doubles bit for
    // bit, wallSeconds included).
    std::ostringstream os2(std::ios::binary);
    sim::serializeSampledOutcome(replay, os2);
    EXPECT_EQ(os2.str(), bytes);

    EXPECT_EQ(replay.result.totalCycles, fresh.result.totalCycles);
    EXPECT_EQ(std::memcmp(&replay.result.wallSeconds,
                          &fresh.result.wallSeconds, sizeof(double)),
              0);
    EXPECT_EQ(replay.result.tasks.size(), fresh.result.tasks.size());
    EXPECT_EQ(replay.stats.fastTasks, fresh.stats.fastTasks);
    EXPECT_EQ(replay.phaseLog.size(), fresh.phaseLog.size());
    EXPECT_EQ(replay.validHistSizes, fresh.validHistSizes);
}

TEST(SampledOutcomeIo, TruncationThrowsIoError)
{
    work::WorkloadParams wp;
    wp.scale = 0.02;
    const trace::TaskTrace t =
        work::generateWorkload("histogram", wp);
    RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 4;
    const SampledOutcome fresh =
        runSampled(t, spec, sampling::SamplingParams::lazy());

    std::ostringstream os(std::ios::binary);
    sim::serializeSampledOutcome(fresh, os);
    const std::string bytes = os.str();

    for (double frac : {0.0, 0.25, 0.5, 0.9}) {
        SCOPED_TRACE(frac);
        std::istringstream is(
            bytes.substr(0, static_cast<std::size_t>(
                                double(bytes.size()) * frac)),
            std::ios::binary);
        EXPECT_THROW(
            (void)sim::deserializeSampledOutcome(is, "<memory>"),
            IoError);
    }
}

// ---------------------------------------------------------------
// Wire bytes: the byte contract of every binary format.
// ---------------------------------------------------------------

std::uint64_t
checksumOf(const std::string &bytes)
{
    return checksum64(bytes.data(), bytes.size());
}

ExperimentPlan
goldenPlan()
{
    return deserializePlan(std::string(TP_GOLDEN_DIR) +
                           "/fig07_histogram_spmv.tpplan");
}

/**
 * A retired setting keeps its bytes in a plan at the one value every
 * run used (harness/job_spec.cc). Flipping the low bit of each byte
 * of a golden plan in turn must, for every retired setting, reach
 * one of its bytes and be rejected with an IoError naming it; every
 * other flip either loads or fails with IoError.
 */
TEST(JobSpecCorruption, RetiredSettingsAreRejected)
{
    const std::string bytes = planBytes(goldenPlan());
    const char *const settings[] = {
        "scan-resistant insertion", "coherence window base",
        "coherence window end", "stream prefetch switch",
        "dispatch jitter"};
    std::map<std::string, int> rejected;
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::string bad = bytes;
        bad[pos] = static_cast<char>(bad[pos] ^ 1);
        try {
            (void)fromBytes(bad);
        } catch (const IoError &e) {
            for (const char *setting : settings) {
                if (std::strstr(e.what(), setting) != nullptr)
                    ++rejected[setting];
            }
        }
    }
    for (const char *setting : settings)
        EXPECT_GT(rejected[setting], 0) << setting;
}

/** A SimResult with every field, task records included, set. */
sim::SimResult
handBuiltResult()
{
    sim::SimResult r;
    r.totalCycles = 123456789;
    r.detailedTasks = 11;
    r.fastTasks = 22;
    r.detailedInsts = 3333;
    r.fastInsts = 44444;
    r.wallSeconds = 0.125;
    r.avgActiveCores = 5.75;
    std::uint64_t v = 1;
    for (mem::CacheStats *c :
         {&r.memStats.l1, &r.memStats.l2, &r.memStats.l3}) {
        c->accesses = v++;
        c->hits = v++;
        c->misses = v++;
        c->evictions = v++;
        c->writebacks = v++;
        c->invalidations = v++;
        c->prefetchFills = v++;
    }
    r.memStats.dramRequests = 987;
    r.memStats.dramMeanQueueDelay = 12.5;
    r.memStats.coherenceInvalidations = 654;
    r.tasks.push_back(sim::TaskRecord{3, 1, 2, 100, 900, 4000,
                                      sim::SimMode::Detailed, 1.25});
    r.tasks.push_back(sim::TaskRecord{4, 0, 7, 950, 2000, 8000,
                                      sim::SimMode::Fast, 0.5});
    return r;
}

/** A SampledOutcome with every field set. */
SampledOutcome
handBuiltOutcome()
{
    SampledOutcome o;
    o.result = handBuiltResult();
    o.stats.warmupTasks = 1;
    o.stats.sampleTasks = 2;
    o.stats.fastTasks = 3;
    o.stats.resamples = 4;
    o.stats.resamplesPeriod = 5;
    o.stats.resamplesNewType = 6;
    o.stats.resamplesConcurrency = 7;
    o.stats.phaseChanges = 8;
    o.phaseLog.push_back({10, sampling::Phase::Sampling});
    o.phaseLog.push_back({500, sampling::Phase::Fast});
    o.validHistSizes = {4, 2, 0};
    o.adaptive.enabled = true;
    o.adaptive.targetError = 0.01;
    o.adaptive.finalRelHalfWidth = 0.0075;
    o.adaptive.stopCycle = 4242;
    o.adaptive.allocationRounds = 3;
    o.adaptive.cutoffStopped = true;
    o.adaptive.budgetStopped = false;
    o.adaptive.strataSamples = {9, 8, 7};
    return o;
}

/** A BatchResult with every optional part, a timeline included. */
BatchResult
handBuiltBatchResult()
{
    BatchResult r;
    r.index = 17;
    r.label = "pinned job";
    r.sampled = handBuiltOutcome();
    r.reference = handBuiltResult();
    r.reference->totalCycles = 123000000;
    r.comparison = ErrorSpeedup{0.375, 6.5, 0.0625};
    r.referenceFromCache = true;
    r.sampledFromCache = false;
    r.hostSeconds = 2.25;
    sim::JobTimeline t;
    t.cores = 4;
    t.totalCycles = 123456789;
    t.typeNames = {"init", "accumulate"};
    t.tasks.push_back(
        sim::TimelineTask{3, 1, 2, 90, 100, 900, 4000, 0, 1.25, 6});
    t.tasks.push_back(
        sim::TimelineTask{4, 0, 3, 940, 950, 2000, 8000, 1, 0.5, 0});
    t.phases.push_back({0, sim::kWarmupPhase});
    t.phases.push_back({500, sim::kFastForwardPhase});
    t.samples.push_back({1, 500, 10, 20, 30, 40, 50});
    r.timeline = t;
    return r;
}

TEST(WireBytes, PlanBytesArePinned)
{
    std::ostringstream os(std::ios::binary);
    serializePlan(goldenPlan(), os);
    EXPECT_EQ(checksumOf(os.str()), 0x6361e58cc747ce75ULL);

    // Every v2 and v3 field at a non-default value.
    ExperimentPlan plan = fullPlan();
    JobSpec slice = plan.jobs[0];
    slice.sampling = sampling::SamplingParams::adaptive(0.02);
    slice.sampling.detailBudgetMultiple = 2.5;
    slice.sliceCount = 3;
    slice.sliceIndex = 1;
    slice.startBoundary = 4;
    slice.stopBoundary = 9;
    plan.jobs.push_back(slice);
    EXPECT_EQ(checksumOf(planBytes(plan)), 0xf472eda4b1bf8b2eULL);
}

TEST(WireBytes, ShardBytesArePinned)
{
    std::vector<PlanShard> shards = makeShards(goldenPlan(), 2);
    ASSERT_EQ(shards.size(), 2u);
    shards[1].collectTimelines = true;
    std::ostringstream os(std::ios::binary);
    serializeShard(shards[1], os);
    EXPECT_EQ(checksumOf(os.str()), 0xf8f5cd9941939955ULL);
}

/** The serialized bytes of a registry trace. */
std::string
traceBytes(const std::string &workload, double scale)
{
    work::WorkloadParams wp;
    wp.scale = scale;
    wp.seed = 42;
    std::ostringstream os(std::ios::binary);
    trace::serializeTrace(work::generateWorkload(workload, wp), os);
    return os.str();
}

/**
 * Every registry trace, so the dependency CSR of each generator's
 * edge pattern is pinned too.
 */
TEST(WireBytes, TraceBytesArePinned)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"2d-convolution", 0x6461b3e17098c219ULL},
        {"3d-stencil", 0x3332e7f57633080dULL},
        {"atomic-monte-carlo-dynamics", 0x1bfbb9215f68841bULL},
        {"dense-matrix-multiplication", 0x597f03d1127ae8feULL},
        {"histogram", 0x7ebdca731b7bc3c4ULL},
        {"n-body", 0x10f18920c5a3dabcULL},
        {"reduction", 0x52e8f962a45d35dcULL},
        {"sparse-matrix-vector-multiplication", 0x556a7f3e38d37bd0ULL},
        {"vector-operation", 0x3a8e72652f020876ULL},
        {"checkSparseLU", 0x14605a3a9f90d145ULL},
        {"cholesky", 0x0e0952d145d646ddULL},
        {"kmeans", 0x0d100b919eaa09b5ULL},
        {"knn", 0x6f1b1ff7b77992bfULL},
        {"blackscholes", 0x8a365184bd7bb2e0ULL},
        {"bodytrack", 0xf81a2d80bac3b34eULL},
        {"canneal", 0x7c57f61753e53268ULL},
        {"dedup", 0x8bfc17204a43d701ULL},
        {"freqmine", 0xff9a44690d35c71cULL},
        {"swaptions", 0xb0343ab9f5f21909ULL},
    };
    ASSERT_EQ(pinned.size(), work::allWorkloads().size());
    for (const work::WorkloadInfo &w : work::allWorkloads()) {
        const std::uint64_t got = checksumOf(traceBytes(w.name, 0.02));
        EXPECT_EQ(got, pinned.at(w.name))
            << w.name << ": 0x" << toHex(got);
    }
}

/**
 * traceDigest of two edge-heavy traces that span many of the 16 KiB
 * chunks it hashes at a time (harness/result_cache.cc) and of one
 * that fits in a single chunk. These name result-cache entries.
 */
TEST(WireBytes, TraceDigestsArePinned)
{
    const struct
    {
        const char *workload;
        double scale;
        const char *digest;
    } pinned[] = {
        {"bodytrack", 0.5, "a3cab665f95608b5f4a1fe22f10e86f2"},
        {"cholesky", 0.5, "36af71abe09b56ad7a3a11b05b3da2de"},
        {"dedup", 0.001, "18e2ad404c688e4998383d9e62dce8ac"},
    };
    for (const auto &p : pinned) {
        work::WorkloadParams wp;
        wp.scale = p.scale;
        wp.seed = 42;
        const trace::TaskTrace t = work::generateWorkload(p.workload, wp);
        EXPECT_EQ(traceDigest(t), p.digest) << p.workload;
    }
    EXPECT_GT(traceBytes("cholesky", 0.5).size(), std::size_t{1} << 19);
    EXPECT_LT(traceBytes("dedup", 0.001).size(), std::size_t{16} << 10);
}

TEST(WireBytes, ResultBytesArePinned)
{
    std::ostringstream result(std::ios::binary);
    sim::serializeResult(handBuiltResult(), result);
    EXPECT_EQ(checksumOf(result.str()), 0xb701cbd0463fd184ULL);

    std::ostringstream outcome(std::ios::binary);
    sim::serializeSampledOutcome(handBuiltOutcome(), outcome);
    EXPECT_EQ(checksumOf(outcome.str()), 0x43e35a0636f4624aULL);

    std::ostringstream batch(std::ios::binary);
    serializeBatchResult(handBuiltBatchResult(), batch);
    EXPECT_EQ(checksumOf(batch.str()), 0x2a7323fac29c35bcULL);
}

TEST(WireBytes, KeysAndDigestsArePinned)
{
    const JobSpec job = fullPlan().jobs[0];
    const std::string trace = "00112233445566778899aabbccddeeff";
    EXPECT_EQ(resultCacheKey(trace, job.spec),
              "4f242cca6e34c7b8600fc2a732e62ba5");
    EXPECT_EQ(sampledCacheKey(trace, job.spec, job.sampling),
              "32b014c8133309ad5fa61d21ecd9590c");
    EXPECT_EQ(memoryConfigDigest(job.spec.arch.memory),
              "51bfd210a4eeb4d72c25d33a17e1939e");
    EXPECT_EQ(jobSpecDigest(job),
              "69a2abbdb2303b159bb37741b1d74896");
}

} // namespace
} // namespace tp::harness
