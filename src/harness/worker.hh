/**
 * @file
 * Runner-side execution of plan shards, and the BatchResult wire
 * format shared with the dispatch coordinator (harness/dispatch).
 *
 * The transport is one appendable result stream per shard task: the
 * runner executes the task's shard through the ordinary BatchRunner
 * and appends each finished BatchResult — the serialized result
 * wrapped in sim/result_io's checksummed envelope — to the task's
 * stream, flushing after every append. The envelope framing
 * concatenates cleanly, so a tailing coordinator
 * (sim::EnvelopeStreamReader) consumes complete, checksum-verified
 * results as the stream grows; a runner that dies mid-append leaves
 * at most an incomplete tail, which the reader treats as
 * not-yet-published, never as data. One stream per task means a
 * million-job sweep creates O(tasks) result files, not O(jobs).
 *
 * Result indices are parent-plan indices (ShardJob::planIndex), so
 * the driver reassembles global submission order without knowing the
 * shard geometry.
 */

#ifndef TP_HARNESS_WORKER_HH
#define TP_HARNESS_WORKER_HH

#include <iosfwd>
#include <string>

#include "harness/batch_runner.hh"
#include "harness/plan_shard.hh"
#include "harness/result_sink.hh"

namespace tp::harness {

/**
 * Write one BatchResult (payload only, no framing). Every field —
 * including the optional reference, sampled outcome and comparison —
 * round-trips bit-identically, so a result shipped from a runner is
 * indistinguishable from one computed in-process.
 */
void serializeBatchResult(const BatchResult &r, std::ostream &out);

/**
 * Read a BatchResult back; exact inverse of serializeBatchResult.
 *
 * @param name label for error messages
 * @throws IoError on truncation or corrupt fields
 */
BatchResult deserializeBatchResult(std::istream &in,
                                   const std::string &name);

/**
 * Name of a test-only environment variable: when set to a path, the
 * first runner process that publishes a result then manages to
 * create that file (O_EXCL, so exactly one across a fleet) kills
 * itself with SIGKILL. Lets the executor tests and smoke tests
 * provoke a deterministic mid-task runner death; unset in normal
 * operation.
 */
inline constexpr const char *kKillOnceEnvVar =
    "TASKPOINT_WORKER_KILL_ONCE";

/** Execution options of one shard task. */
struct WorkerOptions
{
    /** Serialized PlanShard to execute. */
    std::string shardPath;
    /** Directory the result stream is appended into (created). */
    std::string outDir;
    /**
     * File name of the result stream under outDir: the dispatch
     * task name, which also encodes the steal generation (see
     * harness/dispatch).
     */
    std::string streamName;
    /** Execution environment (threads, progress, cache). */
    BatchOptions batch;
};

/**
 * Execute one shard task: load the shard, resolve its seeds (see
 * shardPlan), run it, and append one envelope per finished job to
 * the task's result stream.
 *
 * @return the number of results published
 * @throws IoError when the shard file is damaged; SimError on
 *         invalid jobs (both end the runner process, whose claimed
 *         work the coordinator then steals)
 */
std::size_t runWorkerShard(const WorkerOptions &options);

} // namespace tp::harness

#endif // TP_HARNESS_WORKER_HH
