/**
 * @file
 * Tests of the distributed dispatch subsystem: spool task naming,
 * the live-tailed envelope stream reader (incomplete tails withheld,
 * corruption recoverable), duplicate-idempotent ordered merging,
 * poll backoff, the scheduling cost model, bit-identical steal
 * re-splits, and an in-process coordinator/runner campaign — with
 * and without a dead runner whose work must be stolen, and with a
 * finished task whose final envelope tore.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.hh"
#include "common/cli.hh"
#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "harness/result_sink.hh"
#include "sim/result_io.hh"

namespace tp::harness {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

work::WorkloadParams
tinyScale()
{
    work::WorkloadParams p;
    p.scale = 0.02;
    p.seed = 42;
    return p;
}

ExperimentPlan
smallPlan(std::size_t n = 4)
{
    ExperimentPlan plan;
    plan.baseSeed = 17;
    for (std::size_t i = 0; i < n; ++i) {
        JobSpec j;
        j.label = "job " + std::to_string(i);
        j.workload = i % 2 == 0 ? "histogram" : "vector-operation";
        j.workloadParams = tinyScale();
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.sampling = sampling::SamplingParams::periodic(100);
        j.mode = BatchMode::Sampled;
        plan.jobs.push_back(j);
    }
    return plan;
}

/** Unique fresh directory under the test temp dir. */
fs::path
freshDir(const std::string &tag)
{
    const fs::path dir =
        fs::path(testing::TempDir()) /
        ("tp_dispatch_" + tag + "_" +
         std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(DispatchTaskName, RoundTripsAndSortsBySchedule)
{
    const DispatchTaskName name{7, 2, 41};
    const std::string s = formatTaskName(name);
    EXPECT_EQ(s, "task-p0007-g02-s0041");
    const auto back = parseTaskName(s);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->priority, 7u);
    EXPECT_EQ(back->generation, 2u);
    EXPECT_EQ(back->shardId, 41u);

    // Lexicographic order of names == schedule order of priorities.
    EXPECT_LT(formatTaskName({3, 9, 99}), formatTaskName({10, 0, 0}));

    EXPECT_FALSE(parseTaskName("task-p0007-g02"));
    EXPECT_FALSE(parseTaskName("worker.err"));
    EXPECT_FALSE(parseTaskName("task-p0007-g02-s0041x"));
}

TEST(EnvelopeStream, MissingFileIsSimplyNotReadyYet)
{
    const fs::path dir = freshDir("absent");
    sim::EnvelopeStreamReader reader((dir / "none.tprs").string());
    std::vector<std::string> out;
    EXPECT_EQ(reader.poll(out), 0u);
    EXPECT_TRUE(out.empty());
}

TEST(EnvelopeStream, ConsumesAppendsAndWithholdsIncompleteTail)
{
    const fs::path dir = freshDir("stream");
    const std::string path = (dir / "s.tprs").string();
    sim::EnvelopeStreamReader reader(path);

    const auto append = [&](const std::string &payload) {
        std::ostringstream framed(std::ios::binary);
        sim::writeEnvelope(framed, payload);
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << framed.str();
        return framed.str();
    };

    append("first");
    std::vector<std::string> out;
    EXPECT_EQ(reader.poll(out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "first");

    // Two more envelopes, the second published byte by byte: the
    // incomplete tail must be withheld — never data, never an error.
    append("second");
    std::ostringstream framed(std::ios::binary);
    sim::writeEnvelope(framed, "third payload bytes");
    const std::string bytes = framed.str();
    for (std::size_t cut = 1; cut < bytes.size(); cut += 7) {
        std::ofstream partial(path, std::ios::binary);
        // Rewrite whole prefix each time to model arbitrary flush
        // points without append bookkeeping.
        std::ostringstream full(std::ios::binary);
        sim::writeEnvelope(full, "first");
        sim::writeEnvelope(full, "second");
        partial << full.str() << bytes.substr(0, cut);
    }
    out.clear();
    reader.poll(out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "second");

    {
        std::ofstream full(path, std::ios::binary);
        std::ostringstream all(std::ios::binary);
        sim::writeEnvelope(all, "first");
        sim::writeEnvelope(all, "second");
        sim::writeEnvelope(all, "third payload bytes");
        full << all.str();
    }
    out.clear();
    EXPECT_EQ(reader.poll(out), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "third payload bytes");
}

TEST(EnvelopeStream, CorruptionAndShrinkRaiseIoError)
{
    const fs::path dir = freshDir("corrupt");
    const std::string path = (dir / "s.tprs").string();
    std::ostringstream framed(std::ios::binary);
    sim::writeEnvelope(framed, "checksummed payload bytes");
    const std::string good = framed.str();

    {
        // Flip one payload byte of a *complete* envelope.
        std::string bad = good;
        bad[bad.size() / 2] ^= 0x20;
        std::ofstream(path, std::ios::binary) << bad;
        sim::EnvelopeStreamReader reader(path);
        std::vector<std::string> out;
        EXPECT_THROW((void)reader.poll(out), IoError);
    }
    {
        // A stream that shrinks below the read offset means the
        // writer restarted — also definite corruption.
        std::ofstream(path, std::ios::binary) << good << good;
        sim::EnvelopeStreamReader reader(path);
        std::vector<std::string> out;
        EXPECT_EQ(reader.poll(out), 2u);
        std::ofstream(path, std::ios::binary) << good;
        out.clear();
        EXPECT_THROW((void)reader.poll(out), IoError);
    }
}

TEST(ResultMergerTest, OrdersAndDropsDuplicates)
{
    CollectingSink sink;
    ResultMerger merger(sink, 3);

    const auto result = [](std::size_t index) {
        BatchResult r;
        r.index = index;
        r.label = "r" + std::to_string(index);
        return r;
    };

    EXPECT_TRUE(merger.offer(result(2)));
    EXPECT_EQ(merger.delivered(), 0u) << "2 must wait for 0 and 1";
    EXPECT_TRUE(merger.offer(result(0)));
    EXPECT_EQ(merger.delivered(), 1u);
    EXPECT_FALSE(merger.offer(result(0))) << "duplicate dropped";
    EXPECT_FALSE(merger.offer(result(2))) << "parked is seen too";
    EXPECT_TRUE(merger.collected(0));
    EXPECT_TRUE(merger.collected(2));
    EXPECT_FALSE(merger.collected(1));
    EXPECT_FALSE(merger.complete());
    EXPECT_THROW(merger.finish(), SimError)
        << "finish() before completion is a coordinator bug";
    EXPECT_TRUE(merger.offer(result(1)));
    EXPECT_TRUE(merger.complete());
    merger.finish();

    ASSERT_EQ(sink.results().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(sink.results()[i].index, i);
}

TEST(PollBackoffTest, DoublesToCapAndResets)
{
    PollBackoff b(milliseconds(2), milliseconds(10));
    EXPECT_EQ(b.current(), milliseconds(2));
    EXPECT_EQ(b.next(), milliseconds(2));
    EXPECT_EQ(b.next(), milliseconds(4));
    EXPECT_EQ(b.next(), milliseconds(8));
    EXPECT_EQ(b.next(), milliseconds(10)) << "bounded by max";
    EXPECT_EQ(b.next(), milliseconds(10));
    b.reset();
    EXPECT_EQ(b.current(), milliseconds(2));
}

TEST(DispatchCostModel, RanksModesAndSizesSensibly)
{
    JobSpec sampled;
    sampled.workload = "histogram";
    sampled.workloadParams = tinyScale();
    sampled.mode = BatchMode::Sampled;
    JobSpec reference = sampled;
    reference.mode = BatchMode::Reference;
    JobSpec both = sampled;
    both.mode = BatchMode::Both;

    EXPECT_LT(expectedJobCost(sampled), expectedJobCost(reference));
    EXPECT_LT(expectedJobCost(reference), expectedJobCost(both));

    JobSpec bigger = sampled;
    bigger.workloadParams.scale *= 4;
    EXPECT_LT(expectedJobCost(sampled), expectedJobCost(bigger));

    PlanShard shard;
    shard.jobs.push_back({0, sampled});
    shard.jobs.push_back({1, reference});
    EXPECT_DOUBLE_EQ(expectedShardCost(shard),
                     expectedJobCost(sampled) +
                         expectedJobCost(reference));
}

TEST(DispatchSteal, ResplitResolvesIdenticalSeeds)
{
    // A stolen re-split must execute with exactly the seeds of the
    // original run: shardPlan derives per *parent* index from the
    // copied seed policy, regardless of shard geometry.
    const ExperimentPlan plan = smallPlan(6);
    const std::vector<PlanShard> shards = makeShards(plan, 1);
    ASSERT_EQ(shards.size(), 1u);
    const ExperimentPlan original = shardPlan(shards[0]);

    // Steal jobs {1, 3, 4} (a non-contiguous survivor set).
    PlanShard stolen;
    stolen.planDigest = shards[0].planDigest;
    stolen.baseSeed = shards[0].baseSeed;
    stolen.deriveSeeds = shards[0].deriveSeeds;
    stolen.shardIndex = 7;
    stolen.shardCount = 8;
    for (std::size_t idx : {1u, 3u, 4u})
        stolen.jobs.push_back(shards[0].jobs[idx]);

    const ExperimentPlan replay = shardPlan(stolen);
    ASSERT_EQ(replay.jobs.size(), 3u);
    EXPECT_FALSE(replay.deriveSeeds);
    std::size_t at = 0;
    for (std::size_t idx : {1u, 3u, 4u}) {
        EXPECT_EQ(replay.jobs[at].workloadParams.seed,
                  original.jobs[idx].workloadParams.seed)
            << "job " << idx;
        EXPECT_EQ(jobSpecDigest(replay.jobs[at]),
                  jobSpecDigest(original.jobs[idx]));
        ++at;
    }
}

TEST(DispatchCli, MaxRetriesFlagParsesAndDefaults)
{
    const char *argv[] = {"prog", "--max-retries=7"};
    const CliArgs args(2, argv, {maxRetriesCliOption()});
    EXPECT_EQ(maxRetriesFlag(args), 7u);
    const char *none[] = {"prog"};
    const CliArgs noneArgs(1, none, {maxRetriesCliOption()});
    EXPECT_EQ(maxRetriesFlag(noneArgs), 3u);
    EXPECT_EQ(maxRetriesFlag(noneArgs, 5), 5u);
}

TEST(DispatchRunner, ExitsOnStopFile)
{
    const fs::path spoolDir = freshDir("stopped");
    SpoolPaths spool(spoolDir.string());
    createSpool(spool);
    std::ofstream(spool.stopFile) << "stop\n";

    DispatchRunnerOptions ro;
    ro.spoolDir = spoolDir.string();
    ro.runnerId = "r0";
    ro.heartbeatInterval = milliseconds(20);
    EXPECT_EQ(runDispatchRunner(ro), 0u);
    fs::remove_all(spoolDir);
}

/**
 * In-process campaigns: coordinator and runners as plain threads
 * over one spool directory — the full protocol without spawning a
 * single binary.
 */
class DispatchE2E : public ::testing::Test
{
  protected:
    /** Run the campaign on this thread, runners on `n` threads. */
    std::vector<BatchResult>
    campaign(const ExperimentPlan &plan, DispatchOptions options,
             std::size_t n)
    {
        std::vector<std::thread> runners;
        for (std::size_t i = 0; i < n; ++i) {
            DispatchRunnerOptions ro;
            ro.spoolDir = options.spoolDir;
            ro.runnerId = "thread-" + std::to_string(i);
            ro.heartbeatInterval = milliseconds(20);
            runners.emplace_back(
                [ro] { (void)runDispatchRunner(ro); });
        }
        CollectingSink sink;
        std::exception_ptr failure;
        try {
            runDispatchCampaign(plan, options, sink);
        } catch (...) {
            failure = std::current_exception();
            // The campaign wrote the stop file on failure, so the
            // runner threads are already unwinding.
        }
        for (std::thread &t : runners)
            t.join();
        if (failure)
            std::rethrow_exception(failure);
        return sink.take();
    }

    void
    expectMatchesInProcess(const ExperimentPlan &plan,
                           const std::vector<BatchResult> &results)
    {
        const std::vector<BatchResult> reference =
            BatchRunner(BatchOptions{}).run(plan);
        ASSERT_EQ(results.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            SCOPED_TRACE(reference[i].label);
            EXPECT_EQ(results[i].index, i)
                << "campaign must deliver in submission order";
            EXPECT_EQ(results[i].label, reference[i].label);
            ASSERT_TRUE(results[i].sampled.has_value());
            EXPECT_EQ(results[i].sampled->result.totalCycles,
                      reference[i].sampled->result.totalCycles);
        }
    }
};

TEST_F(DispatchE2E, MatchesInProcessExecutionOrderedAndExact)
{
    const fs::path spoolDir = freshDir("e2e");
    const ExperimentPlan plan = smallPlan(5);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 3;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(2000);

    expectMatchesInProcess(plan, campaign(plan, options, 2));
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, StealsFromDeadRunnerBitIdentically)
{
    const fs::path spoolDir = freshDir("steal");
    const ExperimentPlan plan = smallPlan(6);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 3;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(250);
    options.keepSpool = true;

    SpoolPaths spool(spoolDir.string());

    // A zombie claims the schedule-first task and then never
    // heartbeats again: the coordinator must declare it dead and
    // re-split the claimed jobs — all of them, since the zombie
    // never publishes a single result.
    std::thread saboteur([&] {
        std::error_code ec;
        for (int tries = 0; tries < 2000; ++tries) {
            std::vector<std::string> queued;
            for (const auto &entry :
                 fs::directory_iterator(spool.queue, ec))
                if (parseTaskName(entry.path().stem().string()))
                    queued.push_back(entry.path().stem().string());
            if (!queued.empty()) {
                std::sort(queued.begin(), queued.end());
                fs::create_directories(spool.claimedDir("zombie"),
                                       ec);
                fs::rename(
                    spool.queueFile(queued.front()),
                    spool.claimedFile("zombie", queued.front()),
                    ec);
                if (!ec) {
                    std::ofstream(spool.heartbeatFile("zombie"))
                        << "0";
                    return;
                }
            }
            std::this_thread::sleep_for(milliseconds(1));
        }
    });

    const std::vector<BatchResult> results =
        campaign(plan, options, 2);
    saboteur.join();
    expectMatchesInProcess(plan, results);

    // The steal must actually have happened: some generation-1 task
    // produced a result stream.
    bool sawSteal = false;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(spool.results, ec)) {
        const auto name =
            parseTaskName(entry.path().stem().string());
        if (name && name->generation > 0)
            sawSteal = true;
    }
    EXPECT_TRUE(sawSteal)
        << "no generation-1 result stream: nothing was stolen";
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, TornFinalEnvelopeIsStolenAtOnce)
{
    // A runner whose last append tore still moves its task to done/.
    // The short stream can never complete, so the coordinator must
    // steal the missing job right away instead of waiting out the
    // stalled-stream watchdog.
    const fs::path spoolDir = freshDir("torn");
    const ExperimentPlan plan = smallPlan(4);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 2;
    options.heartbeatInterval = milliseconds(20);
    options.stalledAfter = milliseconds(30000);
    options.keepSpool = true;
    SpoolPaths spool(spoolDir.string());

    CollectingSink sink;
    std::exception_ptr failure;
    std::thread coordinator([&] {
        try {
            runDispatchCampaign(plan, options, sink);
        } catch (...) {
            failure = std::current_exception();
        }
    });

    // Play the torn runner on this thread, before any real runner
    // exists: claim the schedule-first task and run it privately.
    std::string task;
    std::error_code ec;
    for (int tries = 0; tries < 2000 && task.empty(); ++tries) {
        std::vector<std::string> queued;
        for (const auto &entry :
             fs::directory_iterator(spool.queue, ec))
            if (parseTaskName(entry.path().stem().string()))
                queued.push_back(entry.path().stem().string());
        std::sort(queued.begin(), queued.end());
        if (!queued.empty()) {
            fs::create_directories(spool.claimedDir("torn"), ec);
            fs::rename(spool.queueFile(queued.front()),
                       spool.claimedFile("torn", queued.front()), ec);
            if (!ec)
                task = queued.front();
        }
        if (task.empty())
            std::this_thread::sleep_for(milliseconds(1));
    }
    std::size_t published = 0;
    auto tornAt = std::chrono::steady_clock::now();
    if (!task.empty()) {
        // Run the shard as a runner does, appending one envelope per
        // result (under its plan index) to a private stream.
        const std::string claim = spool.claimedFile("torn", task);
        const PlanShard shard = deserializeShard(claim);
        const fs::path stream = spoolDir / "private.tprs";
        {
            std::ofstream out(stream, std::ios::binary);
            for (BatchResult &r : BatchRunner().run(shardPlan(shard))) {
                r.index = static_cast<std::size_t>(
                    shard.jobs[r.index].planIndex);
                std::ostringstream payload(std::ios::binary);
                serializeBatchResult(r, payload);
                sim::writeEnvelope(out, payload.str());
                ++published;
            }
        }
        // Cut the final envelope short, publish the stream whole (so
        // the coordinator never sees it intact), then report done.
        fs::resize_file(stream, fs::file_size(stream) - 5);
        fs::rename(stream, spool.streamFile(task));
        fs::rename(claim, spool.doneFile(task));
        tornAt = std::chrono::steady_clock::now();
    }

    std::thread runner([&] {
        DispatchRunnerOptions ro;
        ro.spoolDir = options.spoolDir;
        ro.runnerId = "thread-0";
        ro.heartbeatInterval = milliseconds(20);
        (void)runDispatchRunner(ro);
    });
    coordinator.join();
    runner.join();
    if (failure)
        std::rethrow_exception(failure);

    ASSERT_FALSE(task.empty()) << "never claimed a task to tear";
    EXPECT_EQ(published, 2u);
    EXPECT_LT(std::chrono::steady_clock::now() - tornAt,
              options.stalledAfter / 3)
        << "the torn task waited for the stalled-stream watchdog";
    expectMatchesInProcess(plan, sink.take());

    // The missing job ran again in a generation-1 task.
    bool sawSteal = false;
    for (const auto &entry :
         fs::directory_iterator(spool.results, ec)) {
        const auto name =
            parseTaskName(entry.path().stem().string());
        if (name && name->generation > 0)
            sawSteal = true;
    }
    EXPECT_TRUE(sawSteal) << "the torn task was never stolen";
    fs::remove_all(spoolDir);
}

TEST_F(DispatchE2E, ExhaustedLineageFailsTheCampaign)
{
    // Nobody ever executes anything; a permanently zombie-claimed
    // task must fail the campaign once its lineage runs out of
    // steal generations (maxRetries=1 → no re-split allowed).
    const fs::path spoolDir = freshDir("exhaust");
    const ExperimentPlan plan = smallPlan(2);
    DispatchOptions options;
    options.spoolDir = spoolDir.string();
    options.shards = 1;
    options.maxRetries = 1;
    options.heartbeatInterval = milliseconds(20);
    options.deadAfter = milliseconds(150);

    SpoolPaths spool(spoolDir.string());
    std::thread saboteur([&] {
        std::error_code ec;
        for (int tries = 0; tries < 2000; ++tries) {
            std::vector<std::string> queued;
            for (const auto &entry :
                 fs::directory_iterator(spool.queue, ec))
                if (parseTaskName(entry.path().stem().string()))
                    queued.push_back(entry.path().stem().string());
            if (!queued.empty()) {
                fs::create_directories(spool.claimedDir("zombie"),
                                       ec);
                fs::rename(
                    spool.queueFile(queued.front()),
                    spool.claimedFile("zombie", queued.front()),
                    ec);
                if (!ec) {
                    std::ofstream(spool.heartbeatFile("zombie"))
                        << "0";
                    return;
                }
            }
            std::this_thread::sleep_for(milliseconds(1));
        }
    });

    EXPECT_THROW(campaign(plan, options, 0), SimError);
    saboteur.join();
    fs::remove_all(spoolDir);
}

} // namespace
} // namespace tp::harness
