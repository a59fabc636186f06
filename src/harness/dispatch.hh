/**
 * @file
 * Distributed campaign coordination over a shared spool directory.
 *
 * The dispatch subsystem runs one ExperimentPlan across a fleet of
 * *runner* processes that need not be children of the driver — they
 * only have to see the same spool directory (a local path for
 * same-machine fleets, a shared filesystem for clusters). The
 * coordinator splits the plan into shard tasks, orders them with a
 * cost model, and publishes them into the spool; runners claim tasks
 * by atomic rename, run each task's shard through an ordinary
 * BatchRunner, and append results to one envelope stream per task;
 * the coordinator live-tails every stream and merges the results
 * through a ResultMerger into any existing ResultSink in plan
 * submission order — the same sink contract BatchRunner honours, so
 * a distributed campaign's deterministic report is byte-identical to
 * `--jobs=1`.
 *
 * This is the only out-of-process executor: a driver's
 * `--workers=N` is a campaign with N local runners on a temp spool
 * the coordinator owns (see harness/executor). The coordinator also
 * owns checkpoint-slice expansion: with a checkpoint store it splits
 * sampled jobs into slices *before* sharding, so one job's slices
 * spread across the fleet, and runners restore from the same store.
 *
 * Spool layout (all under one root):
 *
 *   queue/<task>.tpshard      tasks awaiting a runner (serialized
 *                             PlanShard, published by atomic rename)
 *   claimed/<runner>/<task>.tpshard
 *                             tasks a runner owns (claim = rename
 *                             out of queue/, atomic on one fs)
 *   done/<task>.tpshard       tasks a runner finished (completion
 *                             marker; the task's stream must then
 *                             hold all its results)
 *   results/<task>.tprs       the task's result stream, appended by
 *                             exactly one runner ever (task names are
 *                             generation-unique, see below)
 *   runners/<runner>.hb       heartbeat file, rewritten with a
 *                             counter every heartbeat interval
 *   stop                      created by the coordinator when the
 *                             campaign is over; runners exit on it
 *
 * Task names are `task-pPPPP-gGG-sSSSS` (priority, steal generation,
 * shard id), so a lexicographic scan of queue/ *is* the schedule:
 * the cost model assigns low priorities to the tasks of longest
 * expected cost, so stragglers start early.
 *
 * Fault handling. Every runner heartbeats; the coordinator tracks
 * heartbeat *change* against its own monotonic clock (no cross-host
 * clock comparison). A runner whose heartbeat stalls for deadAfter —
 * or whose locally spawned process exits early — is declared dead,
 * and the uncollected jobs of its claimed tasks are *stolen*:
 * re-split into fresh tasks of the next steal generation and
 * re-enqueued. Stolen shards copy the parent plan's baseSeed and
 * seed policy and keep each job's original plan index, so
 * shardPlan() resolves exactly the seeds of the original run —
 * stolen work stays bit-identical. The dead runner's stream keeps
 * being tailed (a straggler mistaken for dead still contributes);
 * when thief and original both finish a job, the duplicates are
 * bit-identical by determinism and the ResultMerger keeps the first
 * arrival. A lineage that dies maxRetries times fails the campaign.
 * Orthogonally, a *stalled-stream watchdog* steals claimed tasks
 * whose result stream stops growing (stalledAfter) — the case of a
 * runner that wedges while its heartbeat thread keeps beating,
 * which heartbeat liveness can never catch. A task that reaches
 * done/ with fewer results on its stream than it has jobs (a torn
 * final envelope) can never complete, so it is stolen at once.
 */

#ifndef TP_HARNESS_DISPATCH_HH
#define TP_HARNESS_DISPATCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>

#include "harness/batch_runner.hh"
#include "harness/plan_shard.hh"
#include "harness/result_sink.hh"

namespace tp::harness {

/** Parsed form of a spool task name (see file comment). */
struct DispatchTaskName
{
    /** Schedule rank; lower runs first. */
    std::uint32_t priority = 0;
    /** Steal generation: 0 = original, +1 per re-split. */
    std::uint32_t generation = 0;
    /** Campaign-unique shard id (fresh per steal split). */
    std::uint32_t shardId = 0;
};

/** @return "task-pPPPP-gGG-sSSSS" (fields zero-padded, sortable). */
std::string formatTaskName(const DispatchTaskName &name);

/** @return the parsed task name, or std::nullopt for foreign files. */
std::optional<DispatchTaskName> parseTaskName(const std::string &s);

/** Canonical paths inside one spool directory. */
struct SpoolPaths
{
    explicit SpoolPaths(std::string root_dir);

    std::string root;
    std::string queue;
    std::string claimed;
    std::string done;
    std::string results;
    std::string runners;
    std::string stopFile;

    std::string queueFile(const std::string &task) const;
    std::string claimedDir(const std::string &runner) const;
    std::string claimedFile(const std::string &runner,
                            const std::string &task) const;
    std::string doneFile(const std::string &task) const;
    std::string streamFile(const std::string &task) const;
    std::string heartbeatFile(const std::string &runner) const;
};

/** Create every spool subdirectory; fatal when that fails. */
void createSpool(const SpoolPaths &spool);

/**
 * Cost-model estimate of one job's execution cost, in arbitrary
 * units comparable across jobs: expected dynamic work from the
 * self-describing JobSpec (the workload's Table I instance count ×
 * scale × instrScale), weighted by mode (a Reference run simulates
 * everything in detail; a Sampled run only a fraction) and divided
 * across checkpoint slices. Trace-file jobs, whose size the spec
 * does not describe, get a neutral constant.
 */
double expectedJobCost(const JobSpec &job);

/** Sum of expectedJobCost over a shard's jobs. */
double expectedShardCost(const PlanShard &shard);

/** Coordinator-side campaign options. */
struct DispatchOptions
{
    /**
     * Spool directory shared with the runners; empty creates (and
     * afterwards removes) a unique directory under the system temp
     * dir — only useful together with localRunners.
     */
    std::string spoolDir;
    /**
     * Shard tasks to split the plan into; 0 derives
     * max(localRunners, 1) * 2 — enough slack for the cost model
     * and stealing to matter. One result stream exists per task, so
     * a 10k-job sweep stays O(tasks) files.
     */
    std::uint32_t shards = 0;
    /** Steal/re-split rounds per shard lineage (--max-retries). */
    std::size_t maxRetries = 3;
    /** Interval runners rewrite their heartbeat file at. */
    std::chrono::milliseconds heartbeatInterval{200};
    /** Heartbeat-stall span after which a runner is declared dead. */
    std::chrono::milliseconds deadAfter{2000};
    /**
     * Span after which a *claimed* task whose result stream has not
     * grown is declared stalled and its uncollected jobs stolen —
     * the net under a runner that wedges while its heartbeat thread
     * keeps beating, which heartbeat liveness can never catch. The
     * span doubles per steal generation so a genuinely slow lineage
     * does not burn its retry budget; a watchdog steal of a
     * merely-slow task is wasteful but safe (the original stream
     * stays tailed and bit-identical duplicates are dropped).
     * 0 derives max(30 * deadAfter, 60s); long-running jobs want
     * this raised (--stalled-after) rather than disabled.
     */
    std::chrono::milliseconds stalledAfter{0};
    /**
     * Runner processes to spawn on this machine (0 = none; external
     * runners join by pointing `taskpoint_dispatch --runner` at the
     * spool). Spawned runners that die are replaced while work
     * remains, within the lineage retry budget.
     */
    std::size_t localRunners = 0;
    /**
     * Binary spawned as a local runner; empty resolves
     * defaultRunnerBinary().
     */
    std::string runnerBinary;
    /** --jobs forwarded to each local runner (threads per runner). */
    std::size_t jobsPerRunner = 1;
    /** Result-cache CLI forwarded to local runners. */
    std::string cacheDir;
    std::string cacheMode = "rw";
    /**
     * Warm-state checkpoint store; empty = checkpoints off. The
     * coordinator expands the plan into checkpoint slices before
     * sharding (unless collectTimelines), and local runners get
     * the directory to record and restore through.
     */
    std::string checkpointDir;
    /** Emit one progress() line per campaign event. */
    bool progress = false;
    /** Keep a coordinator-created temp spool for post-mortems. */
    bool keepSpool = false;
    /**
     * Ask every shard task (including steal re-splits) to record job
     * timelines and ship them back in its result stream, so a trace
     * sink on the coordinator merges the whole campaign into one
     * Chrome trace (see harness/trace_report.hh).
     */
    bool collectTimelines = false;
};

/**
 * @return the runner binary local campaigns spawn: taskpoint_dispatch
 *         next to the running executable (via /proc/self/exe), or
 *         plain "taskpoint_dispatch" (PATH lookup) when the running
 *         binary's directory cannot be determined.
 */
std::string defaultRunnerBinary();

/**
 * Run `plan` as a distributed campaign (see file comment); blocks
 * until every job's result was merged into `sink` in submission
 * order. Same sink contract as BatchRunner::run; a failed campaign
 * (a lineage exhausting maxRetries, local runners dying faster than
 * they can be replaced) kills every local runner, writes the stop
 * file and raises SimError naming the cause, without sink.end()
 * being called. An empty plan completes without spawning anyone.
 */
void runDispatchCampaign(const ExperimentPlan &plan,
                         const DispatchOptions &options,
                         ResultSink &sink);

/** Runner-side options. */
struct DispatchRunnerOptions
{
    /** Spool directory of the campaign (required). */
    std::string spoolDir;
    /** Fleet-unique identity; empty derives host+pid. */
    std::string runnerId;
    /** Interval the heartbeat file is rewritten at. */
    std::chrono::milliseconds heartbeatInterval{200};
    /** Emit one progress() line per claimed task. */
    bool progress = false;
    /**
     * Execution environment of claimed tasks (threads, cache,
     * checkpoint store); each task says whether to record
     * timelines.
     */
    BatchOptions batch;
};

/**
 * The runner main loop: heartbeat, claim queued tasks in schedule
 * order, run each task's shard through a BatchRunner (shardPlan()
 * resolves the parent plan's seeds), append every result to the
 * task's stream under its parent-plan index, move finished tasks to
 * done/, and exit once the stop file appears. A damaged task file
 * raises IoError, ending the runner; its claimed work is stolen.
 *
 * @return the number of tasks executed
 */
std::size_t runDispatchRunner(const DispatchRunnerOptions &options);

/**
 * Background thread rewriting `path` with a monotonically increasing
 * counter every `interval` — the liveness signal dead-runner
 * detection watches. Stops (and joins) on destruction.
 */
class HeartbeatWriter
{
  public:
    HeartbeatWriter(std::string path,
                    std::chrono::milliseconds interval);
    ~HeartbeatWriter();

    HeartbeatWriter(const HeartbeatWriter &) = delete;
    HeartbeatWriter &operator=(const HeartbeatWriter &) = delete;

  private:
    void loop();

    std::string path_;
    std::chrono::milliseconds interval_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace tp::harness

#endif // TP_HARNESS_DISPATCH_HH
