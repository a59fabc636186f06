/**
 * @file
 * Tests of the multi-process result transport and executor: the
 * checksummed result envelope rejects truncated and bit-flipped
 * bytes with recoverable IoError, BatchResults round-trip
 * bit-identically through the wire format, and a local campaign of
 * spawned runners (`--workers`) delivers the same ordered result
 * stream as in-process execution — including with a runner killed
 * mid-task, for an empty plan, and with a runner binary that can
 * never succeed; executorFromCli() maps the CLI onto it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "common/binary_io.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "corruption_battery.hh"
#include "harness/batch_runner.hh"
#include "harness/executor.hh"
#include "harness/worker.hh"
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
    for (const std::string &payload :
         {std::string(), std::string("x"),
          std::string(100000, '\xab'),
          std::string("binary\0bytes\xff", 13)}) {
        std::ostringstream out(std::ios::binary);
        sim::writeEnvelope(out, payload);
        std::istringstream in(out.str(), std::ios::binary);
        EXPECT_EQ(sim::readEnvelope(in, "mem"), payload);
    }
}

TEST(ResultEnvelope, TruncationRaisesRecoverableIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "the payload under test");
    test::expectTruncationsThrow<IoError>(
        out.str(), [](const std::string &bad) {
            std::istringstream in(bad, std::ios::binary);
            (void)sim::readEnvelope(in, "trunc");
        });
}

TEST(ResultEnvelope, BitFlipsAnywhereRaiseIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "checksummed payload bytes here");
    test::expectBitFlipsThrow<IoError>(
        out.str(), [](const std::string &bad) {
            std::istringstream in(bad, std::ios::binary);
            (void)sim::readEnvelope(in, "flip");
        });
}

TEST(ResultEnvelope, TrailingBytesRaiseIoError)
{
    std::ostringstream out(std::ios::binary);
    sim::writeEnvelope(out, "payload");
    std::istringstream in(out.str() + "x", std::ios::binary);
    EXPECT_THROW((void)sim::readEnvelope(in, "trail"), IoError);
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
    // The kill-once hook makes exactly one runner SIGKILL itself
    // after its first publish; the coordinator must steal that
    // runner's remaining jobs and still deliver the full, identical,
    // ordered result set.
    const fs::path marker =
        fs::path(testing::TempDir()) / "tp_campaign_kill_once";
    fs::remove(marker);
    ASSERT_EQ(setenv(kKillOnceEnvVar, marker.c_str(), 1), 0);

    const ExperimentPlan plan = smallPlan(6);
    DispatchOptions o = localRunners(2);
    o.shards = 2; // 3 jobs per task: the death leaves work undone
    CollectingSink sink;
    runDispatchCampaign(plan, o, sink);

    unsetenv(kKillOnceEnvVar);
    EXPECT_TRUE(fs::exists(marker))
        << "the kill hook must actually have fired";
    fs::remove(marker);

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

} // namespace
} // namespace tp::harness
