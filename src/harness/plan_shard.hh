/**
 * @file
 * Slicing ExperimentPlans into worker shards.
 *
 * A PlanShard is a contiguous slice of a parent plan, carrying the
 * parent's digest, the shard's position (index/count), the parent's
 * seed policy, and — crucially — each job's index *in the parent
 * plan*. Seeds derive from (baseSeed, parent index), never from the
 * shard-local position, so a worker executing shard k of n produces
 * bit-identical results to the same jobs run in-process
 * (see BatchRunner::applyDerivedSeed).
 *
 * The partition is contiguous and balanced: shard i of k over n jobs
 * covers [i*n/k, (i+1)*n/k), sizes differing by at most one. A
 * contiguous slice keeps the jobs of one workload — which figure
 * drivers emit consecutively — in one shard, so per-source trace
 * memoization keeps paying off inside each worker.
 *
 * Shard files use the common/binary_io layer with the same
 * magic/version/digest discipline as plan files: a worker fed a
 * shard from a different build or a torn file raises recoverable
 * IoError instead of decoding garbage.
 *
 * Checkpoint-slice expansion (live-points). Sharding splits a plan
 * *between* jobs; expandCheckpointSlices() additionally splits
 * *within* a job. A previous run of the same sampled job recorded a
 * warm-state checkpoint at every sample-phase boundary (see
 * sim/checkpoint.hh) plus a manifest naming how many boundaries
 * there were; expansion consults the checkpoint store and replaces
 * the job with per-interval slice jobs, each restoring the
 * checkpoint at its start boundary instead of replaying the prefix.
 * A SliceMergingSink reassembles the slice results into exactly the
 * BatchResult stream of the unexpanded plan, so downstream reports
 * are byte-identical (host wall-clock aside) to a serial run.
 * Checkpoints are purely an accelerator: a job with no manifest
 * passes through unchanged and records on this run.
 */

#ifndef TP_HARNESS_PLAN_SHARD_HH
#define TP_HARNESS_PLAN_SHARD_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "harness/job_spec.hh"
#include "harness/result_sink.hh"

namespace tp::harness {

class ResultCache;

/** One job of a shard, tagged with its index in the parent plan. */
struct ShardJob
{
    /** The job's submission index in the parent plan. */
    std::uint64_t planIndex = 0;
    JobSpec job;
};

/** See file comment. */
struct PlanShard
{
    /** planDigest() of the parent plan (provenance check). */
    std::string planDigest;
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    /** Seed policy copied from the parent plan. */
    std::uint64_t baseSeed = 42;
    bool deriveSeeds = true;
    /**
     * Record per-job execution timelines on the worker and ship them
     * back inside each BatchResult (BatchOptions::collectTimelines).
     * Set by coordinators after makeShards(); not part of the parent
     * plan (tracing is an execution-environment choice, so it never
     * changes the plan digest).
     */
    bool collectTimelines = false;
    std::vector<ShardJob> jobs;
};

/** Version of the shard file encoding (see kPlanFormatVersion). */
inline constexpr std::uint32_t kShardFormatVersion = 2;

/**
 * @return the half-open range [first, last) of parent-plan indices
 *         shard `shardIndex` of `shardCount` covers over `numJobs`
 *         jobs. Every index lands in exactly one shard; sizes differ
 *         by at most one.
 */
std::pair<std::size_t, std::size_t>
shardRange(std::size_t numJobs, std::uint32_t shardIndex,
           std::uint32_t shardCount);

/**
 * Slice `plan` into at most `shardCount` shards, skipping empty ones
 * (a plan smaller than the shard count yields fewer shards).
 * shardIndex/shardCount in each returned shard still name the
 * position in the full partition.
 */
std::vector<PlanShard> makeShards(const ExperimentPlan &plan,
                                  std::uint32_t shardCount);

/**
 * @return the executable plan of one shard: the shard's jobs with
 *         the parent's seed policy already applied per *parent*
 *         index, and deriveSeeds disabled — so running it through
 *         BatchRunner yields results bit-identical to the same jobs
 *         of an in-process run of the parent plan.
 */
ExperimentPlan shardPlan(const PlanShard &shard);

/** Write a shard (magic, version, provenance, jobs) to a stream. */
void serializeShard(const PlanShard &shard, std::ostream &out);

/** Write a shard to `path`; fatal when the file cannot be written. */
void serializeShard(const PlanShard &shard, const std::string &path);

/**
 * Read a shard back; exact inverse of serializeShard.
 *
 * @param name label for error messages (the path when reading a file)
 * @throws IoError on truncation, bad magic/version or corrupt fields
 */
PlanShard deserializeShard(std::istream &in, const std::string &name);

/** Read a shard from `path`; throws IoError on corruption. */
PlanShard deserializeShard(const std::string &path);

/**
 * @return the serialized checkpoint manifest of one recorded run —
 *         the number of sample-phase boundaries the recording
 *         crossed (and hence how many checkpoints exist, keyed
 *         1..boundaryCount by harness::checkpointBlobKey).
 */
std::string serializeCheckpointManifest(std::uint64_t boundaryCount);

/**
 * @return the boundary count of a manifest blob, or std::nullopt
 *         when the blob is damaged or from a different format
 *         version (the job then passes through unexpanded and
 *         re-records — a stale manifest can never corrupt results).
 */
std::optional<std::uint64_t>
parseCheckpointManifest(const std::string &blob);

/**
 * How one job of the original plan maps onto the expanded plan: the
 * next `count` results of the expanded stream belong to original job
 * `origIndex`. Groups appear in original submission order, so the
 * SliceMergingSink needs no random access.
 */
struct SliceGroup
{
    /** The job's submission index in the original plan. */
    std::uint64_t origIndex = 0;
    /** Expanded jobs in this group (1 when passed through). */
    std::uint32_t count = 1;
    /** The group's jobs are checkpoint slices (plus optional ref). */
    bool sliced = false;
    /** First job of the group is the split-off Reference half. */
    bool hasRef = false;
};

/** Result of expandCheckpointSlices(). */
struct CheckpointExpansion
{
    /**
     * The executable expanded plan: seeds already applied per
     * *original* index (deriveSeeds disabled), jobs in original
     * order with sliced jobs replaced by their slices.
     */
    ExperimentPlan plan;
    /** One group per original job, in order. */
    std::vector<SliceGroup> groups;
    /** At least one job was actually sliced. */
    bool expanded = false;
};

/**
 * Split every sampled job of `plan` that has a recorded checkpoint
 * manifest in `checkpoints` into at most `maxSlices` contiguous
 * boundary-interval slices (Both-mode jobs additionally split off
 * their Reference half as its own job, so the detailed reference
 * runs concurrently with the slices). Jobs with no manifest, slice
 * jobs, and Reference-only jobs pass through unchanged. Seeds are
 * resolved per original index exactly as BatchRunner::run would, so
 * slice results are bit-identical to the unexpanded run.
 */
CheckpointExpansion
expandCheckpointSlices(const ExperimentPlan &plan,
                       ResultCache &checkpoints,
                       std::uint32_t maxSlices);

/**
 * Run `plan` through `run`, expanding it first when `checkpoints` is
 * set: sampled jobs with recorded checkpoints split into at most
 * `maxSlices` slices each, `run` executes the expanded plan, and a
 * SliceMergingSink hands `sink` the original plan's result stream.
 * BatchRunner::run expands through here, and so does the dispatch
 * coordinator, before sharding, so one job's slices spread across
 * the fleet. A runner's BatchRunner passes those slices through
 * unexpanded and merges any job it does expand back into one result,
 * so each task still publishes exactly one result per job.
 *
 * @param announce emit a progress() line when jobs were sliced
 */
void runWithCheckpointSlices(
    const ExperimentPlan &plan, ResultCache *checkpoints,
    std::uint32_t maxSlices, bool announce, ResultSink &sink,
    const std::function<void(const ExperimentPlan &, ResultSink &)>
        &run);

/**
 * Reassembles the result stream of an expanded plan into the stream
 * of the original plan and forwards it to `inner` (not owned; must
 * outlive the sink): per group, task records are concatenated across
 * slices, cumulative aggregates (cycle count, instruction counters,
 * sampling statistics, phase log) are taken from the last slice —
 * they rode the checkpoints — and host timings are summed; Both-mode
 * groups recompute the error/speedup comparison against the rejoined
 * reference. `inner` observes exactly one begin/consume/end sequence
 * over original indices and labels.
 */
class SliceMergingSink final : public ResultSink
{
  public:
    SliceMergingSink(ResultSink &inner,
                     std::vector<SliceGroup> groups);

    void begin(std::size_t totalJobs) override;
    void consume(BatchResult &&result) override;
    void end() override;

  private:
    void flushGroup();

    ResultSink &inner_;
    std::vector<SliceGroup> groups_;
    std::size_t group_ = 0;
    std::vector<BatchResult> pending_;
};

} // namespace tp::harness

#endif // TP_HARNESS_PLAN_SHARD_HH
