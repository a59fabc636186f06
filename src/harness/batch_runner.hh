/**
 * @file
 * Parallel execution of ExperimentPlans over the common/thread_pool.
 *
 * Every experiment in bench/ and examples/ reduces to an
 * ExperimentPlan: an ordered list of self-describing JobSpecs
 * (harness/job_spec). BatchRunner fans the plan across a fixed-size
 * worker pool and streams each finished BatchResult to a ResultSink
 * (harness/result_sink) *in submission order*, as soon as it is
 * deliverable — so any report built from the stream is byte-identical
 * no matter how many workers ran the batch, and a plan too large to
 * hold in memory can still be reported incrementally.
 *
 * Trace sharing: jobs describe their trace by value (workload name +
 * params, or a trace-file path). A trace whose source two or more
 * jobs of one run name is realized once and retained, so those jobs
 * share one in-memory TaskTrace and one content digest; a trace only
 * one job names stays local to it (unless an earlier run retained
 * it, which is then reused). Distinct traces still generate/load
 * concurrently on the workers that first need them.
 *
 * Determinism: each job's RNG seeds (workload synthesis and noise
 * injection) are derived from (plan.baseSeed, job index) alone —
 * never from worker identity, scheduling order, or wall-clock time.
 * The only per-run fields that may differ between `--jobs=1` and
 * `--jobs=N` are host wall-clock measurements (SimResult::wallSeconds
 * and BatchResult::hostSeconds).
 */

#ifndef TP_HARNESS_BATCH_RUNNER_HH
#define TP_HARNESS_BATCH_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/job_spec.hh"
#include "harness/result_sink.hh"

namespace tp::harness {

class ResultCache;

/**
 * Fail fast on a malformed plan: every job must name exactly one
 * trace source, and named workloads must exist in the registry.
 * Shared by BatchRunner::run and runDispatchCampaign so a bad plan
 * never starts a simulation or spawns a runner.
 *
 * @throws SimError describing the first offending job
 */
void validatePlanJobs(const ExperimentPlan &plan);

/**
 * Batch-wide *execution environment* options. Everything here may
 * legitimately differ between the process that wrote a plan and the
 * process replaying it; the deterministic simulation semantics
 * (seeds, job list) live in the ExperimentPlan itself.
 */
struct BatchOptions
{
    /** Worker threads; 0 = hardware concurrency (see ThreadPool). */
    std::size_t jobs = 1;
    /** Emit one progress() line per finished job. */
    bool progress = false;
    /**
     * Shared on-disk cache of simulation outcomes (not owned; must
     * outlive run()). When set, Reference/Both-mode jobs consult it
     * for the detailed reference and Sampled/Both-mode jobs for the
     * sampled outcome before simulating, and publish fresh results
     * to it; cached results are bit-identical to simulated ones, so
     * reports differ only in host wall-clock. nullptr = no caching.
     */
    ResultCache *cache = nullptr;
    /**
     * Warm-state checkpoint store (live-points; not owned, must
     * outlive run()). When set, a sampled job with no recorded
     * manifest records a checkpoint at every sample boundary (when
     * the store is read-write), and later runs expand such jobs into
     * per-interval slices — at most one per worker thread, capped by
     * the recorded boundary count — that restore checkpoints instead
     * of replaying the prefix, reassembled bit-identically by a
     * SliceMergingSink (see harness/plan_shard.hh) into one result
     * per job. Slice jobs pass through unexpanded. nullptr =
     * checkpoints off.
     */
    ResultCache *checkpoints = nullptr;
    /**
     * Record each job's execution timeline (a TimelineRecorder on
     * the primary run) into BatchResult::timeline for the trace
     * sinks in harness/trace_report.hh (harness::Executor sets it
     * exactly when it holds them). Purely observational — the
     * deterministic report columns are byte-identical with this on
     * or off. Disables checkpoint-slice expansion (a whole-run
     * timeline cannot be stitched from slices); checkpoint
     * *recording* still works. Cache replays carry no timeline.
     */
    bool collectTimelines = false;
};

/** See file comment. */
class BatchRunner
{
  public:
    explicit BatchRunner(BatchOptions options = {});
    ~BatchRunner();

    /**
     * Run every job of `plan` across the pool, streaming each
     * BatchResult to `sink` in submission order as soon as it is
     * deliverable; blocks until the whole plan finished.
     *
     * The sink is called only from this thread (begin, one consume
     * per job, end). A job that throws rethrows from here after the
     * pool drained, without sink.end() being called. Invalid jobs
     * (unknown workload, zero or two trace sources) fail the batch
     * up front, before any simulation starts.
     */
    void run(const ExperimentPlan &plan, ResultSink &sink) const;

    /** Convenience: run `plan` collecting into a vector. */
    std::vector<BatchResult> run(const ExperimentPlan &plan) const;

    const BatchOptions &options() const { return options_; }

    /**
     * Deterministic per-job seed: a splitmix64-style mix of the base
     * seed and the job index, independent of worker count.
     */
    static std::uint64_t jobSeed(std::uint64_t baseSeed,
                                 std::size_t index);

    /**
     * Apply the derived-seed policy to one job exactly as run() does
     * for a deriveSeeds plan: workload synthesis and noise injection
     * are reseeded from jobSeed(baseSeed, index), where `index` is
     * the job's position in the *whole* plan. Shared with
     * harness/plan_shard so a worker executing a slice of a plan
     * seeds each job identically to in-process execution.
     */
    static void applyDerivedSeed(JobSpec &job,
                                 std::uint64_t baseSeed,
                                 std::size_t index);

    /**
     * Realize (and memoize) the trace `job` describes, exactly as a
     * worker would — from the job's own workloadParams; plan-level
     * seed derivation is *not* applied. Lets report code reach the
     * trace behind a job (e.g. for structure statistics) without a
     * second generation.
     */
    std::shared_ptr<const trace::TaskTrace>
    resolveTrace(const JobSpec &job) const;

  private:
    struct TraceEntry;
    class TraceStore;

    /** run() after validation and optional slice expansion. */
    void runResolved(const ExperimentPlan &plan,
                     ResultSink &sink) const;

    BatchResult runJob(const JobSpec &job, std::size_t index,
                       bool retainTrace) const;

    BatchOptions options_;
    /**
     * Retained traces, shared by every run() of this runner — a
     * driver running several batches over the same workloads (e.g.
     * references, then a sampled sweep) generates each shared trace
     * once. A run retains the traces two or more of its jobs name
     * (see file comment), so a derived-seed plan, whose workload
     * seeds are unique per job, retains none.
     */
    std::unique_ptr<TraceStore> traces_;
};

} // namespace tp::harness

#endif // TP_HARNESS_BATCH_RUNNER_HH
