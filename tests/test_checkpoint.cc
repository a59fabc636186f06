/**
 * @file
 * Tests of the warm-state checkpoint subsystem (live-points): the
 * envelope format's corruption battery (truncation, bit flips,
 * version skew), damaged block tokens inside a real payload, the
 * manifest framing, slice expansion/merge
 * bookkeeping, and the end-to-end guarantee — a checkpoint-parallel
 * run is bit-identical to the serial replay for every workload in
 * the registry, and a damaged store degrades to cold replay, never
 * to a different answer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.hh"
#include "common/hash.hh"
#include "corruption_battery.hh"
#include "cpu/arch_config.hh"
#include "harness/batch_runner.hh"
#include "harness/experiment.hh"
#include "harness/plan_shard.hh"
#include "harness/result_cache.hh"
#include "harness/result_sink.hh"
#include "memory/cache.hh"
#include "sampling/taskpoint.hh"
#include "sim/checkpoint.hh"
#include "sim/engine.hh"
#include "sim/result_io.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;

namespace tp::harness {
namespace {

// ---------------------------------------------------------------
// Envelope format.
// ---------------------------------------------------------------

sim::Checkpoint
sampleCheckpoint()
{
    sim::Checkpoint cp;
    cp.boundary = 7;
    cp.state = std::string("warm-state payload \x00\x01\xff bytes", 29);
    return cp;
}

TEST(CheckpointEnvelope, RoundTripPreservesBoundaryAndState)
{
    const sim::Checkpoint cp = sampleCheckpoint();
    const std::string blob = sim::serializeCheckpoint(cp);
    const sim::Checkpoint back =
        sim::deserializeCheckpoint(blob, "test");
    EXPECT_EQ(back.boundary, cp.boundary);
    EXPECT_EQ(back.state, cp.state);
}

TEST(CheckpointEnvelope, EveryTruncationIsRecoverable)
{
    test::expectTruncationsThrow<IoError>(
        sim::serializeCheckpoint(sampleCheckpoint()),
        [](const std::string &bad) {
            sim::deserializeCheckpoint(bad, "trunc");
        });
}

TEST(CheckpointEnvelope, EveryBitFlipIsRecoverable)
{
    test::expectBitFlipsThrow<IoError>(
        sim::serializeCheckpoint(sampleCheckpoint()),
        [](const std::string &bad) {
            sim::deserializeCheckpoint(bad, "flip");
        });
}

/** Rewrite `blob`'s trailing checksum so only the named field is
 *  wrong — the corruption battery above trips the checksum first. */
std::string
resealed(std::string blob)
{
    const std::size_t body = blob.size() - sizeof(std::uint64_t);
    const std::uint64_t sum = checksum64(blob.data(), body);
    blob.replace(body, sizeof(sum),
                 reinterpret_cast<const char *>(&sum), sizeof(sum));
    return blob;
}

/** @return `blob` with its u32 format version (after the u64 magic)
 *  set to `version`; `seal` also rewrites the trailing checksum. */
std::string
withVersion(std::string blob, std::uint32_t version, bool seal)
{
    blob.replace(sizeof(std::uint64_t), sizeof(version),
                 reinterpret_cast<const char *>(&version),
                 sizeof(version));
    return seal ? resealed(std::move(blob)) : blob;
}

TEST(CheckpointEnvelope, VersionSkewIsRecoverable)
{
    // A newer build's blob, one from before the unvaried settings
    // were retired, one from before each simulated fact was stored
    // once, one from before 8-bit recency stamps, one from before
    // run-length encoded blocks and one from before anonymous junk
    // lines.
    for (const std::uint32_t skewed :
         {sim::kCheckpointFormatVersion + 1, 5u, 4u, 3u, 2u, 1u}) {
        try {
            sim::deserializeCheckpoint(
                withVersion(sim::serializeCheckpoint(sampleCheckpoint()),
                            skewed, true),
                "skew");
            FAIL() << "version " << skewed << " must be an IoError";
        } catch (const IoError &e) {
            EXPECT_NE(std::string(e.what()).find("format"),
                      std::string::npos)
                << "error must name the version mismatch, got: "
                << e.what();
        }
    }
}

TEST(CheckpointEnvelope, BadMagicIsRecoverable)
{
    std::string blob = sim::serializeCheckpoint(sampleCheckpoint());
    blob[0] = static_cast<char>(blob[0] ^ 0xff);
    EXPECT_THROW(
        sim::deserializeCheckpoint(resealed(std::move(blob)), "mag"),
        IoError);
}

/** A small warm cache (8 ways in all) and its saved state. */
struct SavedCache
{
    const mem::CacheConfig cfg{512, 2, 64, 3, 0};
    std::string bytes;

    SavedCache()
    {
        mem::Cache warm("l1", cfg);
        warm.access(0x0, false);
        warm.access(0x40, true);
        warm.ageLines(3);
        std::ostringstream os(std::ios::binary);
        BinaryWriter w(os);
        StateIo save(w);
        warm.state(save);
        bytes = os.str();
    }

    mem::Cache
    load(const std::string &state) const
    {
        std::istringstream is(state, std::ios::binary);
        BinaryReader r(is, "cache");
        StateIo io(r);
        mem::Cache c("l1", cfg);
        c.state(io);
        r.expectEof();
        return c;
    }

    /**
     * @return the saved state re-encoded after `edit` changed its
     *         stamps or clocks. Cache::state stores the way count,
     *         the tag block, the stamp block, the clock block, then
     *         the rest.
     */
    std::string
    edited(const std::function<void(std::vector<std::uint8_t> &,
                                    std::vector<std::uint8_t> &)> &edit)
        const
    {
        std::istringstream is(bytes, std::ios::binary);
        BinaryReader r(is, "cache");
        StateIo in(r);
        std::vector<std::uint64_t> tags(8);
        std::vector<std::uint8_t> stamps(8), clocks(4);
        in.count(8, "way count");
        in.block(tags);
        in.block(stamps);
        in.block(clocks);
        const std::string rest(std::istreambuf_iterator<char>(is), {});
        edit(stamps, clocks);

        std::ostringstream os(std::ios::binary);
        BinaryWriter w(os);
        StateIo out(w);
        out.count(8, "way count");
        out.block(tags);
        out.block(stamps);
        out.block(clocks);
        w.bytes(rest.data(), rest.size());
        return os.str();
    }
};

void
expectCorrupt(const SavedCache &saved, const std::string &bad,
              const char *needle)
{
    try {
        saved.load(bad);
        FAIL() << "expected an IoError naming " << needle;
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

/**
 * A new stamp (`++clock` of its set) must be newer than every line of
 * the set: a payload holding a stamp past its set's clock is corrupt,
 * while one equal to the clock loads.
 */
TEST(CheckpointState, CacheStampNewerThanClockIsRecoverable)
{
    const SavedCache saved;
    EXPECT_TRUE(saved.load(saved.bytes).contains(0x40));
    // One miss and one aging call in set 0 (ways 0 and 1): clock 2.
    const auto stamp_way1 = [&saved](int past_clock) {
        return saved.edited([past_clock](std::vector<std::uint8_t> &stamps,
                                         std::vector<std::uint8_t> &clocks) {
            ASSERT_EQ(clocks[0], 2u);
            stamps[1] = static_cast<std::uint8_t>(clocks[0] + past_clock);
        });
    };
    EXPECT_NO_THROW(saved.load(stamp_way1(0)));
    expectCorrupt(saved, stamp_way1(1), "corrupt LRU stamp");
}

// ---------------------------------------------------------------
// Manifest framing.
// ---------------------------------------------------------------

TEST(CheckpointManifest, RoundTrip)
{
    for (std::uint64_t count : {0ULL, 1ULL, 17ULL, 1ULL << 40}) {
        const std::optional<std::uint64_t> back =
            parseCheckpointManifest(
                serializeCheckpointManifest(count));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, count);
    }
}

TEST(CheckpointManifest, GarbageParsesToNothing)
{
    EXPECT_FALSE(parseCheckpointManifest(""));
    EXPECT_FALSE(parseCheckpointManifest("not a manifest"));
    // A checkpoint blob is not a manifest.
    EXPECT_FALSE(parseCheckpointManifest(
        sim::serializeCheckpoint(sampleCheckpoint())));
    // Truncated and extended manifests are rejected, not misread.
    const std::string good = serializeCheckpointManifest(5);
    EXPECT_FALSE(
        parseCheckpointManifest(good.substr(0, good.size() - 1)));
    EXPECT_FALSE(parseCheckpointManifest(good + "x"));
}

// ---------------------------------------------------------------
// Slice expansion.
// ---------------------------------------------------------------

JobSpec
sampledJob(const std::string &workload, BatchMode mode,
           bool record_tasks = false)
{
    JobSpec j;
    j.label = workload;
    j.workload = workload;
    j.workloadParams.scale = 0.02;
    j.workloadParams.seed = 42;
    j.spec.arch = cpu::highPerformanceConfig();
    j.spec.threads = 8;
    j.spec.recordTasks = record_tasks;
    j.mode = mode;
    return j;
}

/** A fresh store under the gtest temp dir. */
std::unique_ptr<ResultCache>
tempStore(const std::string &tag)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / ("tp_ckpt_" + tag);
    fs::remove_all(dir);
    return openCheckpointDir(dir.string());
}

TEST(CheckpointExpand, PassThroughWithoutManifest)
{
    const std::unique_ptr<ResultCache> store = tempStore("empty");
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    plan.jobs.push_back(sampledJob("histogram", BatchMode::Sampled));
    const CheckpointExpansion ex =
        expandCheckpointSlices(plan, *store, 4);
    EXPECT_FALSE(ex.expanded);
    ASSERT_EQ(ex.plan.jobs.size(), 1u);
    ASSERT_EQ(ex.groups.size(), 1u);
    EXPECT_FALSE(ex.groups[0].sliced);
    EXPECT_EQ(ex.groups[0].count, 1u);
}

TEST(CheckpointExpand, SlicesTileTheRecordedRun)
{
    const std::unique_ptr<ResultCache> store = tempStore("tile");
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    plan.jobs.push_back(sampledJob("histogram", BatchMode::Sampled));
    // Pretend a record run published 5 boundaries (= 6 intervals).
    store->storeBlob(
        checkpointManifestKey(
            memoryConfigDigest(plan.jobs[0].spec.arch.memory),
            checkpointJobDigest(plan.jobs[0])),
        serializeCheckpointManifest(5));

    // maxSlices = 1 must never expand.
    EXPECT_FALSE(expandCheckpointSlices(plan, *store, 1).expanded);

    const CheckpointExpansion ex =
        expandCheckpointSlices(plan, *store, 3);
    ASSERT_TRUE(ex.expanded);
    ASSERT_EQ(ex.plan.jobs.size(), 3u);
    ASSERT_EQ(ex.groups.size(), 1u);
    EXPECT_TRUE(ex.groups[0].sliced);
    EXPECT_EQ(ex.groups[0].count, 3u);
    // The 6 intervals tile as [0,2) [2,4) [4,end): each slice
    // restores its start boundary, the last runs to completion.
    const std::uint64_t starts[] = {0, 2, 4};
    const std::uint64_t stops[] = {2, 4, 0};
    for (std::size_t s = 0; s < 3; ++s) {
        const JobSpec &j = ex.plan.jobs[s];
        EXPECT_TRUE(j.isSlice());
        EXPECT_EQ(j.sliceCount, 3u);
        EXPECT_EQ(j.sliceIndex, s);
        EXPECT_EQ(j.startBoundary, starts[s]);
        EXPECT_EQ(j.stopBoundary, stops[s]);
        EXPECT_EQ(j.mode, BatchMode::Sampled);
    }
}

TEST(CheckpointExpand, BothModeSplitsIntoReferencePlusSlices)
{
    const std::unique_ptr<ResultCache> store = tempStore("both");
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    plan.jobs.push_back(sampledJob("histogram", BatchMode::Both));
    store->storeBlob(
        checkpointManifestKey(
            memoryConfigDigest(plan.jobs[0].spec.arch.memory),
            checkpointJobDigest(plan.jobs[0])),
        serializeCheckpointManifest(3));
    const CheckpointExpansion ex =
        expandCheckpointSlices(plan, *store, 2);
    ASSERT_TRUE(ex.expanded);
    ASSERT_EQ(ex.plan.jobs.size(), 3u); // 1 reference + 2 slices
    ASSERT_EQ(ex.groups.size(), 1u);
    EXPECT_TRUE(ex.groups[0].hasRef);
    EXPECT_EQ(ex.groups[0].count, 3u);
    EXPECT_EQ(ex.plan.jobs[0].mode, BatchMode::Reference);
    EXPECT_FALSE(ex.plan.jobs[0].isSlice());
    EXPECT_EQ(ex.plan.jobs[1].mode, BatchMode::Sampled);
    EXPECT_TRUE(ex.plan.jobs[1].isSlice());
}

// ---------------------------------------------------------------
// End to end: record, then slice-parallel, bit-identical.
// ---------------------------------------------------------------

std::string
outcomeBytes(const BatchResult &r)
{
    // wallSeconds is host timing — the only field allowed to differ
    // between byte-identical runs.
    SampledOutcome out = *r.sampled;
    out.result.wallSeconds = 0.0;
    std::ostringstream bytes(std::ios::binary);
    sim::serializeSampledOutcome(out, bytes);
    return bytes.str();
}

void
runPlan(const ExperimentPlan &plan, const BatchOptions &opts,
        CollectingSink &sink)
{
    BatchRunner(opts).run(plan, sink);
    ASSERT_EQ(sink.results().size(), plan.jobs.size());
}

/** @return boundaries the recording run published for `job`. */
std::uint64_t
recordedBoundaries(ResultCache &store, const JobSpec &job)
{
    const std::optional<std::string> manifest =
        store.loadBlob(checkpointManifestKey(
            memoryConfigDigest(job.spec.arch.memory),
            checkpointJobDigest(job)));
    if (!manifest)
        return 0;
    return parseCheckpointManifest(*manifest).value_or(0);
}

/**
 * A serial run, a recording run and a checkpoint-parallel (sliced)
 * run of every job in `plan` must produce byte-identical sampled
 * outcomes. Jobs recording fewer than `min_boundaries` sample
 * boundaries fail: they would not really slice.
 */
void
expectSlicedRunsMatchSerial(const ExperimentPlan &plan,
                            const std::string &tag,
                            std::uint64_t min_boundaries = 0)
{
    // Serial baseline, no checkpoints involved.
    CollectingSink serial;
    runPlan(plan, BatchOptions{}, serial);

    const std::unique_ptr<ResultCache> store = tempStore(tag);

    // Recording run: serial, publishes checkpoints + manifests.
    BatchOptions record;
    record.checkpoints = store.get();
    CollectingSink recorded;
    runPlan(plan, record, recorded);
    for (const JobSpec &j : plan.jobs) {
        EXPECT_GE(recordedBoundaries(*store, j), min_boundaries)
            << j.label << " records too few boundaries to slice";
    }

    // Sliced run: every job expands into slices that restore the
    // recorded warm state; the merge must reassemble the original
    // result stream.
    BatchOptions sliced;
    sliced.checkpoints = store.get();
    sliced.jobs = 4;
    CollectingSink merged;
    runPlan(plan, sliced, merged);

    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        ASSERT_TRUE(serial.results()[i].sampled.has_value());
        ASSERT_TRUE(merged.results()[i].sampled.has_value());
        EXPECT_EQ(merged.results()[i].index, i);
        const std::string want = outcomeBytes(serial.results()[i]);
        EXPECT_EQ(outcomeBytes(recorded.results()[i]), want)
            << plan.jobs[i].label << " (recording run)";
        EXPECT_EQ(outcomeBytes(merged.results()[i]), want)
            << plan.jobs[i].label << " (sliced run)";
    }
}

/**
 * The checkpoint guarantee, per workload: a serial run, a recording
 * run and a checkpoint-parallel (sliced) run of the same job all
 * produce byte-identical sampled outcomes.
 */
TEST(CheckpointRoundTrip, EveryRegistryWorkloadRestoresBitIdentical)
{
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    for (const work::WorkloadInfo &w : work::allWorkloads())
        plan.jobs.push_back(sampledJob(w.name, BatchMode::Sampled,
                                       /*record_tasks=*/true));
    expectSlicedRunsMatchSerial(plan, "registry");
}

/**
 * Restore paths the default configuration above never takes: the
 * WorkStealing (queues + steal RNG) and Locality scheduler queues,
 * the low-power hierarchy (no L3, shared L2) and the adaptive
 * policy's StratifiedEstimator.
 *
 * On these workloads the lazy and adaptive policies close exactly one
 * sampling regime, so their jobs record one boundary: two slices, the
 * second restoring it. Periodic resampling records several, so its
 * middle slices both restore and stop at a boundary.
 */
struct RestoreConfig
{
    const char *name;
    bool lowPower;
    rt::SchedulerKind scheduler;
    sampling::SamplingParams sampling;
    std::uint64_t minBoundaries;
};

class CheckpointRestoreConfigs
    : public testing::TestWithParam<RestoreConfig>
{};

TEST_P(CheckpointRestoreConfigs, SlicedRunsMatchSerial)
{
    const RestoreConfig &c = GetParam();
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    // One dependency-heavy and one coherence-heavy workload.
    for (const char *w : {"cholesky", "histogram"}) {
        JobSpec j = sampledJob(w, BatchMode::Sampled,
                               /*record_tasks=*/true);
        // Enough histogram tasks for two periodic regimes.
        j.workloadParams.scale = 0.05;
        if (c.lowPower)
            j.spec.arch = cpu::lowPowerConfig();
        j.spec.runtime.scheduler = c.scheduler;
        j.sampling = c.sampling;
        plan.jobs.push_back(j);
    }
    expectSlicedRunsMatchSerial(plan, std::string("cfg_") + c.name,
                                c.minBoundaries);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersHierarchiesPolicies, CheckpointRestoreConfigs,
    testing::Values(
        RestoreConfig{"highperf_steal_lazy", false,
                      rt::SchedulerKind::WorkStealing,
                      sampling::SamplingParams::lazy(), 1},
        RestoreConfig{"highperf_locality_periodic50", false,
                      rt::SchedulerKind::Locality,
                      sampling::SamplingParams::periodic(50), 2},
        RestoreConfig{"lowpower_fifo_lazy", true,
                      rt::SchedulerKind::Fifo,
                      sampling::SamplingParams::lazy(), 1},
        RestoreConfig{"lowpower_steal_adaptive2", true,
                      rt::SchedulerKind::WorkStealing,
                      sampling::SamplingParams::adaptive(0.02), 1}),
    [](const testing::TestParamInfo<RestoreConfig> &info) {
        return std::string(info.param.name);
    });

/**
 * Pins the checkpoint payload layout: the checksum64 of every
 * boundary two fixed jobs record. Any change to a component's
 * state(StateIo &) that moves a payload byte trips this test, and
 * a store recorded by an older build would then be misread.
 * Re-pin these constants only together with a
 * kCheckpointFormatVersion bump (sim/checkpoint.hh).
 */
TEST(CheckpointFormat, PayloadDigestsArePinned)
{
    struct Pinned
    {
        JobSpec job;
        std::vector<std::uint64_t> digests;
    };
    JobSpec histogram = sampledJob("histogram", BatchMode::Sampled);
    JobSpec cholesky = sampledJob("cholesky", BatchMode::Sampled);
    cholesky.spec.arch = cpu::lowPowerConfig();
    cholesky.spec.runtime.scheduler = rt::SchedulerKind::WorkStealing;
    cholesky.sampling = sampling::SamplingParams::adaptive(0.02);
    const Pinned pinned[] = {
        {histogram, {0x21f5c24296eeb92fULL}},
        {cholesky, {0x466d623d06716ba4ULL}},
    };

    for (const Pinned &p : pinned) {
        const trace::TaskTrace trace = work::generateWorkload(
            p.job.workload, p.job.workloadParams);
        std::vector<std::uint64_t> digests;
        sim::CheckpointHooks hooks;
        hooks.record = [&digests](sim::Checkpoint &&cp) {
            digests.push_back(
                checksum64(cp.state.data(), cp.state.size()));
        };
        runSampled(trace, p.job.spec, p.job.sampling, &hooks);
        std::string got;
        for (const std::uint64_t d : digests)
            got += "0x" + toHex(d) + "ULL, ";
        EXPECT_EQ(digests, p.digests)
            << p.job.label << " payload digests: " << got;
    }
}

/** A ByteViewBuf logging every read as (offset, bytes). */
class ReadLog : public ByteViewBuf
{
  public:
    using ByteViewBuf::ByteViewBuf;

    std::vector<std::pair<std::size_t, std::size_t>> reads;

  protected:
    std::streamsize
    xsgetn(char *s, std::streamsize n) override
    {
        reads.emplace_back(static_cast<std::size_t>(gptr() - eback()),
                           static_cast<std::size_t>(n));
        return ByteViewBuf::xsgetn(s, n);
    }
};

/**
 * @return the payload offsets of the token headers of every block
 *         span in `cp` (StateIo::block), found by loading it into a
 *         fresh engine and controller through a ReadLog. A span is
 *         a u64 read of L followed by a read of L bytes that parse as
 *         whole tokens of 4-, 8-, 16- or 1-byte elements.
 */
std::vector<std::size_t>
blockTokenHeaders(const sim::Checkpoint &cp, const JobSpec &job,
                  const trace::TaskTrace &trace)
{
    RunSpec cfg = job.spec;
    cfg.noise.enabled = false;
    sim::Engine engine(cfg, trace);
    sampling::TaskPointController controller(trace, job.sampling);
    ReadLog log(cp.state.data(), cp.state.size());
    std::istream is(&log);
    BinaryReader r(is, "walk");
    StateIo io(r);
    controller.state(io);
    engine.state(io);
    r.expectEof();

    const auto *bytes =
        reinterpret_cast<const unsigned char *>(cp.state.data());
    std::vector<std::size_t> headers;
    for (std::size_t i = 0; i + 1 < log.reads.size(); ++i) {
        const auto [at, size] = log.reads[i];
        std::uint64_t len = 0;
        if (size != sizeof(len))
            continue;
        std::memcpy(&len, bytes + at, sizeof(len));
        const auto [span, span_len] = log.reads[i + 1];
        if (len == 0 || span_len != len)
            continue;
        for (const std::size_t elem : {4, 8, 16, 1}) {
            std::vector<std::size_t> found;
            std::size_t pos = 0;
            while (span_len - pos >= 4) {
                std::uint32_t h;
                std::memcpy(&h, bytes + span + pos, sizeof(h));
                const std::size_t count = h >> 1;
                const std::size_t body = (h & 1) ? elem : count * elem;
                if (count == 0 || span_len - pos - 4 < body)
                    break;
                found.push_back(span + pos);
                pos += 4 + body;
            }
            if (pos == span_len) {
                headers.insert(headers.end(), found.begin(), found.end());
                break;
            }
        }
    }
    return headers;
}

/**
 * The checksum guards the envelope, so a damaged token reaches the
 * decoder only when the checksum is resealed over it. Then a flipped
 * header bit must still either restore or throw IoError: the decoder
 * bounds every count by the array and the span, so it never writes
 * out of bounds (ASan covers this in the sanitized CI entry).
 */
TEST(CheckpointFormat, TokenHeaderFlipsRestoreOrThrow)
{
    JobSpec job = sampledJob("histogram", BatchMode::Sampled);
    job.sampling = sampling::SamplingParams::periodic(50);
    const trace::TaskTrace trace =
        work::generateWorkload(job.workload, job.workloadParams);
    std::optional<sim::Checkpoint> first;
    sim::CheckpointHooks record;
    record.record = [&first](sim::Checkpoint &&cp) {
        if (!first)
            first = std::move(cp);
    };
    runSampled(trace, job.spec, job.sampling, &record);
    ASSERT_TRUE(first.has_value());

    const std::vector<std::size_t> headers =
        blockTokenHeaders(*first, job, trace);
    ASSERT_GT(headers.size(), 100u);
    const std::string blob = sim::serializeCheckpoint(*first);
    const std::size_t payload_at = blob.size() - sizeof(std::uint64_t) -
                                   first->state.size();

    Rng rng(2024);
    int restored = 0;
    int rejected = 0;
    for (int i = 0; i < 48; ++i) {
        const std::size_t header =
            headers[rng.nextBounded(headers.size())];
        const std::uint64_t bit = rng.nextBounded(32);
        std::string bad = blob;
        bad[payload_at + header + bit / 8] ^=
            static_cast<char>(1u << (bit % 8));
        const sim::Checkpoint cp =
            sim::deserializeCheckpoint(resealed(std::move(bad)), "flip");
        sim::CheckpointHooks hooks;
        hooks.restore = &cp;
        hooks.stopBoundary = cp.boundary + 1;
        try {
            runSampled(trace, job.spec, job.sampling, &hooks);
            ++restored;
        } catch (const IoError &) {
            ++rejected;
        }
    }
    EXPECT_EQ(restored + rejected, 48);
    EXPECT_GT(rejected, 0);
}

TEST(CheckpointRoundTrip, BothModeRecomputesComparisonExactly)
{
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    plan.jobs.push_back(sampledJob("histogram", BatchMode::Both));

    CollectingSink serial;
    runPlan(plan, BatchOptions{}, serial);

    const std::unique_ptr<ResultCache> store = tempStore("bothe2e");
    BatchOptions record;
    record.checkpoints = store.get();
    CollectingSink recorded;
    runPlan(plan, record, recorded);

    BatchOptions sliced;
    sliced.checkpoints = store.get();
    sliced.jobs = 3;
    CollectingSink merged;
    runPlan(plan, sliced, merged);

    const BatchResult &a = serial.results()[0];
    const BatchResult &b = merged.results()[0];
    ASSERT_TRUE(a.comparison.has_value());
    ASSERT_TRUE(b.comparison.has_value());
    EXPECT_EQ(outcomeBytes(a), outcomeBytes(b));
    EXPECT_DOUBLE_EQ(a.comparison->errorPct, b.comparison->errorPct);
    EXPECT_DOUBLE_EQ(a.comparison->detailFraction,
                     b.comparison->detailFraction);
    ASSERT_TRUE(b.reference.has_value());
    EXPECT_EQ(a.reference->totalCycles, b.reference->totalCycles);
}

/**
 * Checkpoints are an accelerator, never a correctness dependency: a
 * store whose blobs are all damaged (manifest intact) must yield the
 * same answer through cold replay of every slice.
 */
TEST(CheckpointRoundTrip, DamagedStoreDegradesToColdReplay)
{
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    plan.jobs.push_back(sampledJob("histogram", BatchMode::Sampled));

    CollectingSink serial;
    runPlan(plan, BatchOptions{}, serial);

    const std::unique_ptr<ResultCache> store = tempStore("damaged");
    BatchOptions record;
    record.checkpoints = store.get();
    CollectingSink recorded;
    runPlan(plan, record, recorded);

    const std::string mem =
        memoryConfigDigest(plan.jobs[0].spec.arch.memory);
    const std::string jd = checkpointJobDigest(plan.jobs[0]);
    const std::optional<std::string> manifest =
        store->loadBlob(checkpointManifestKey(mem, jd));
    ASSERT_TRUE(manifest.has_value());
    const std::optional<std::uint64_t> boundaries =
        parseCheckpointManifest(*manifest);
    ASSERT_TRUE(boundaries.has_value());
    ASSERT_GT(*boundaries, 0u);
    for (std::uint64_t b = 1; b <= *boundaries; ++b)
        store->storeBlob(checkpointBlobKey(mem, jd, b),
                         "damaged beyond recognition");

    BatchOptions sliced;
    sliced.checkpoints = store.get();
    sliced.jobs = 3;
    CollectingSink merged;
    runPlan(plan, sliced, merged);
    EXPECT_EQ(outcomeBytes(merged.results()[0]),
              outcomeBytes(serial.results()[0]));
}

/**
 * A store recorded by an older build — manifest and checkpoints of
 * format v2 — is version skew: the next run does not slice, replays
 * serially to the same answer and records afresh, so the run after
 * it slices again.
 */
TEST(CheckpointRoundTrip, OlderFormatStoreIsReRecordedOnce)
{
    ExperimentPlan plan;
    plan.deriveSeeds = false;
    plan.jobs.push_back(sampledJob("histogram", BatchMode::Sampled));

    CollectingSink serial;
    runPlan(plan, BatchOptions{}, serial);

    const std::unique_ptr<ResultCache> store = tempStore("older");
    BatchOptions record;
    record.checkpoints = store.get();
    CollectingSink recorded;
    runPlan(plan, record, recorded);

    const std::string mem =
        memoryConfigDigest(plan.jobs[0].spec.arch.memory);
    const std::string jd = checkpointJobDigest(plan.jobs[0]);
    const std::string mkey = checkpointManifestKey(mem, jd);
    const std::optional<std::string> manifest = store->loadBlob(mkey);
    ASSERT_TRUE(manifest.has_value());
    const std::uint64_t boundaries =
        parseCheckpointManifest(*manifest).value_or(0);
    ASSERT_GT(boundaries, 0u);
    for (std::uint64_t b = 1; b <= boundaries; ++b) {
        const std::string bkey = checkpointBlobKey(mem, jd, b);
        const std::optional<std::string> blob = store->loadBlob(bkey);
        ASSERT_TRUE(blob.has_value());
        store->storeBlob(bkey, withVersion(*blob, 2, true));
    }
    // The manifest carries no checksum of its own.
    store->storeBlob(mkey, withVersion(*manifest, 2, false));
    ASSERT_FALSE(expandCheckpointSlices(plan, *store, 3).expanded);

    BatchOptions sliced;
    sliced.checkpoints = store.get();
    sliced.jobs = 3;
    CollectingSink skewed;
    runPlan(plan, sliced, skewed);
    EXPECT_EQ(outcomeBytes(skewed.results()[0]),
              outcomeBytes(serial.results()[0]));

    EXPECT_TRUE(expandCheckpointSlices(plan, *store, 3).expanded)
        << "the version-skewed store must be recorded afresh";
    CollectingSink merged;
    runPlan(plan, sliced, merged);
    EXPECT_EQ(outcomeBytes(merged.results()[0]),
              outcomeBytes(serial.results()[0]));
}

} // namespace
} // namespace tp::harness
