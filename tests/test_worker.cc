/**
 * @file
 * Tests of the multi-process result transport and executor: result
 * envelopes round-trip through the stream reader, BatchResults
 * round-trip bit-identically through the wire format, and a local
 * campaign of spawned runners (`--workers`) delivers the same
 * ordered result stream as in-process execution — including with a
 * runner killed mid-task, for an empty plan, and with a runner
 * binary that can never succeed; executorFromCli() maps the CLI onto
 * it and validates the cache flags for both executors alike, and the
 * executor's trace sinks span all its runs, numbered run-wide.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/binary_io.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "harness/batch_runner.hh"
#include "harness/executor.hh"
#include "harness/result_sink.hh"
#include "sim/result_io.hh"

namespace tp::harness {
namespace {

namespace fs = std::filesystem;

work::WorkloadParams
tinyScale()
{
    work::WorkloadParams p;
    p.scale = 0.02;
    p.seed = 42;
    return p;
}

ExperimentPlan
smallPlan(std::size_t n = 5)
{
    ExperimentPlan plan;
    plan.baseSeed = 11;
    for (std::size_t i = 0; i < n; ++i) {
        JobSpec j;
        j.label = "job " + std::to_string(i);
        j.workload = i % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams = tinyScale();
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.sampling = sampling::SamplingParams::periodic(100);
        j.mode = i % 3 == 0 ? BatchMode::Both : BatchMode::Sampled;
        plan.jobs.push_back(j);
    }
    return plan;
}

std::string
resultBytes(const BatchResult &r)
{
    std::ostringstream out(std::ios::binary);
    serializeBatchResult(r, out);
    return out.str();
}

TEST(ResultEnvelope, RoundTripsArbitraryPayloads)
{
    const std::vector<std::string> payloads = {
        std::string(), std::string("x"), std::string(100000, '\xab'),
        std::string("binary\0bytes\xff", 13)};
    const fs::path path =
        fs::path(testing::TempDir()) / "tp_envelope_roundtrip.tprs";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        for (const std::string &payload : payloads)
            sim::writeEnvelope(out, payload);
    }
    sim::EnvelopeStreamReader reader(path.string());
    std::vector<std::string> back;
    EXPECT_EQ(reader.poll(back), payloads.size());
    EXPECT_EQ(back, payloads);
    fs::remove(path);
}

TEST(WorkerTransport, BatchResultRoundTripsBitIdentically)
{
    // Real results with every optional populated/absent combination.
    ExperimentPlan plan = smallPlan(3);
    plan.jobs[1].mode = BatchMode::Reference;
    const std::vector<BatchResult> results =
        BatchRunner(BatchOptions{}).run(plan);
    for (const BatchResult &r : results) {
        SCOPED_TRACE(r.label);
        const std::string bytes = resultBytes(r);
        std::istringstream in(bytes, std::ios::binary);
        const BatchResult back = deserializeBatchResult(in, "mem");
        EXPECT_EQ(back.index, r.index);
        EXPECT_EQ(back.label, r.label);
        EXPECT_EQ(back.sampled.has_value(), r.sampled.has_value());
        EXPECT_EQ(back.reference.has_value(),
                  r.reference.has_value());
        EXPECT_EQ(back.comparison.has_value(),
                  r.comparison.has_value());
        EXPECT_EQ(resultBytes(back), bytes)
            << "serialize(deserialize(x)) must equal x";
    }

    // Corrupt result payloads are recoverable errors, not crashes.
    const std::string good = resultBytes(results[0]);
    std::istringstream in(good.substr(0, good.size() / 2),
                          std::ios::binary);
    EXPECT_THROW((void)deserializeBatchResult(in, "trunc"),
                 IoError);
}

/**
 * Local campaigns — what `--workers=N` runs — against real spawned
 * taskpoint_dispatch runners (resolved next to this test binary; both
 * live in the build directory).
 */
class LocalCampaignE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!fs::exists(defaultRunnerBinary()))
            GTEST_SKIP()
                << "taskpoint_dispatch not found next to the test "
                   "binary (" << defaultRunnerBinary() << ")";
    }

    static DispatchOptions
    localRunners(std::size_t n)
    {
        DispatchOptions o;
        o.localRunners = n;
        return o;
    }
};

TEST_F(LocalCampaignE2E, MatchesInProcessExecutionOrderedAndExact)
{
    const ExperimentPlan plan = smallPlan();
    const std::vector<BatchResult> reference =
        BatchRunner(BatchOptions{}).run(plan);

    CollectingSink sink;
    Executor(BatchOptions{}, localRunners(3)).run(plan, sink);
    const std::vector<BatchResult> &results = sink.results();

    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(reference[i].label);
        EXPECT_EQ(results[i].index, i)
            << "campaign must deliver in submission order";
        EXPECT_EQ(results[i].label, reference[i].label);
        ASSERT_EQ(results[i].sampled.has_value(),
                  reference[i].sampled.has_value());
        if (results[i].sampled) {
            EXPECT_EQ(results[i].sampled->result.totalCycles,
                      reference[i].sampled->result.totalCycles);
        }
        ASSERT_EQ(results[i].reference.has_value(),
                  reference[i].reference.has_value());
        if (results[i].reference) {
            EXPECT_EQ(results[i].reference->totalCycles,
                      reference[i].reference->totalCycles);
        }
        if (results[i].comparison) {
            EXPECT_EQ(results[i].comparison->errorPct,
                      reference[i].comparison->errorPct);
        }
    }
}

TEST_F(LocalCampaignE2E, EmptyPlanCompletesWithoutRunners)
{
    // Every spawn would fail loudly, so completing proves that none
    // was attempted.
    fault::installFaultPlan(fault::parseFaultPlan(
        "taskpoint-fault-plan v1\n"
        "on subprocess.spawn 1 errno EIO\n",
        "no-spawn"));
    CollectingSink sink;
    EXPECT_NO_THROW(
        runDispatchCampaign(ExperimentPlan{}, localRunners(4), sink));
    fault::clearFaultPlan();
    EXPECT_TRUE(sink.results().empty());
}

TEST_F(LocalCampaignE2E, SurvivesRunnerKilledMidTask)
{
    // A fault plan, inherited by the spawned runners, makes exactly
    // one runner SIGKILL itself after its first publish; the
    // coordinator must steal that runner's remaining jobs and still
    // deliver the full, identical, ordered result set.
    const fs::path dir = testing::TempDir();
    const fs::path faultPlan = dir / "tp_campaign_kill_once.plan";
    const fs::path prefix = dir / "tp_campaign_kill_once";
    const fs::path marker =
        prefix.string() + ".worker.stream.append.1";
    fs::remove(marker);
    std::ofstream(faultPlan) << "taskpoint-fault-plan v1\n"
                             << "once " << prefix.string() << "\n"
                             << "on worker.stream.append 1 abort\n";
    ASSERT_EQ(setenv(fault::kFaultPlanEnvVar, faultPlan.c_str(), 1),
              0);

    const ExperimentPlan plan = smallPlan(6);
    DispatchOptions o = localRunners(2);
    o.shards = 2; // 3 jobs per task: the death leaves work undone
    CollectingSink sink;
    runDispatchCampaign(plan, o, sink);

    unsetenv(fault::kFaultPlanEnvVar);
    EXPECT_TRUE(fs::exists(marker))
        << "the kill must actually have fired";
    fs::remove(marker);
    fs::remove(faultPlan);

    const std::vector<BatchResult> reference =
        BatchRunner(BatchOptions{}).run(plan);
    ASSERT_EQ(sink.results().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(sink.results()[i].index, i);
        EXPECT_EQ(sink.results()[i].sampled->result.totalCycles,
                  reference[i].sampled->result.totalCycles);
    }
}

TEST_F(LocalCampaignE2E, HopelessRunnerBinaryFailsNamingTheCause)
{
    DispatchOptions o = localRunners(1);
    o.maxRetries = 2;
    o.runnerBinary = "/bin/false";
    // A failed campaign keeps its spool for post-mortems; use one
    // this test cleans up.
    const fs::path spool =
        fs::path(testing::TempDir()) / "tp_campaign_hopeless";
    fs::remove_all(spool);
    o.spoolDir = spool.string();
    CollectingSink sink;
    try {
        runDispatchCampaign(smallPlan(2), o, sink);
        ADD_FAILURE() << "a runner that always exits 1 must fail";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("keep dying"), std::string::npos) << what;
        EXPECT_NE(what.find("exit 1"), std::string::npos) << what;
    }
    fs::remove_all(spool);
}

TEST(ExecutorCli, SelectsCampaignFromFlags)
{
    const std::vector<CliOption> options = {
        workersCliOption(), jobsCliOption(), maxRetriesCliOption(),
        cacheDirCliOption(), cacheModeCliOption(),
        checkpointDirCliOption()};

    const char *argv[] = {"prog",
                          "--workers=3",
                          "--jobs=2",
                          "--max-retries=5",
                          "--cache-dir=/tmp/c",
                          "--cache=ro",
                          "--checkpoint-dir=/tmp/k"};
    const auto exec = executorFromCli(CliArgs(7, argv, options));
    ASSERT_TRUE(exec->campaign().has_value());
    const DispatchOptions &d = *exec->campaign();
    EXPECT_EQ(d.localRunners, 3u);
    EXPECT_TRUE(d.spoolDir.empty()) << "--workers owns a temp spool";
    EXPECT_EQ(d.jobsPerRunner, 2u);
    EXPECT_EQ(d.maxRetries, 5u);
    EXPECT_EQ(d.cacheDir, "/tmp/c");
    EXPECT_EQ(d.cacheMode, "ro");
    EXPECT_EQ(d.checkpointDir, "/tmp/k");
    EXPECT_EQ(d.shards, 0u) << "dispatch default: 2 tasks per runner";
    EXPECT_TRUE(d.runnerBinary.empty());

    const char *off[] = {"prog", "--workers=0"};
    EXPECT_FALSE(
        executorFromCli(CliArgs(2, off, options))->campaign())
        << "--workers=0 must mean in-process";
}

TEST(ExecutorCli, BadCacheFlagsFailAtOnceForBothExecutors)
{
    const std::vector<CliOption> options = {
        workersCliOption(), cacheDirCliOption(), cacheModeCliOption()};
    // @return the usage error executorFromCli raised, or "" if none.
    const auto usageError = [&](std::vector<const char *> argv) {
        try {
            (void)executorFromCli(CliArgs(
                static_cast<int>(argv.size()), argv.data(), options));
        } catch (const SimError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    for (const char *workers : {"--workers=0", "--workers=2"}) {
        SCOPED_TRACE(workers);
        EXPECT_NE(usageError({"prog", workers, "--cache=ro"})
                      .find("needs --cache-dir=DIR"),
                  std::string::npos);
        EXPECT_NE(usageError({"prog", workers, "--cache-dir=/tmp/c",
                              "--cache=bogus"})
                      .find("expects off, ro or rw"),
                  std::string::npos);
    }
}

/** Logs what an executor feeds one of its trace sinks. */
class LoggingTraceSink final : public ResultSink
{
  public:
    explicit LoggingTraceSink(std::vector<std::string> &log) : log_(log)
    {}

    void begin(std::size_t) override { log_.push_back("begin"); }

    void
    consume(BatchResult &&r) override
    {
        log_.push_back(strprintf("%zu %s%s", r.index, r.label.c_str(),
                                 r.timeline ? "" : " (no timeline)"));
    }

    void end() override { log_.push_back("end"); }

  private:
    std::vector<std::string> &log_;
};

TEST(ExecutorTap, TraceSinksSpanEveryRunNumberedRunWide)
{
    std::vector<std::string> log;
    std::vector<std::unique_ptr<ResultSink>> traceSinks;
    traceSinks.push_back(std::make_unique<LoggingTraceSink>(log));
    std::vector<std::size_t> indices;
    {
        Executor executor(BatchOptions{}, std::nullopt, nullptr,
                          nullptr, std::move(traceSinks));
        EXPECT_EQ(log, std::vector<std::string>{"begin"});
        for (const std::size_t jobs : {2, 3}) {
            for (const BatchResult &r : executor.run(smallPlan(jobs)))
                indices.push_back(r.index);
        }
        EXPECT_EQ(log.back(), "4 job 2")
            << "the documents stay open while the executor lives";
    }
    EXPECT_EQ(log, (std::vector<std::string>{"begin", "0 job 0",
                                             "1 job 1", "2 job 0",
                                             "3 job 1", "4 job 2",
                                             "end"}))
        << "timelines recorded, jobs numbered across both runs";
    EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 0, 1, 2}))
        << "the runs' own sinks keep per-plan numbering";
}

} // namespace
} // namespace tp::harness
