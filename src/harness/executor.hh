/**
 * @file
 * The plan executor a driver's command line selects: the one owner of
 * a run's execution environment and observational outputs, and the
 * standard streaming report of the generic plan executors.
 *
 * A driver runs its plans one of two ways:
 *
 *  - in-process on `--jobs` threads (BatchRunner), consulting the
 *    result cache and checkpoint store itself;
 *  - as a dispatch campaign (harness/dispatch). `--workers=N` is a
 *    campaign with N local runners on a temp spool the coordinator
 *    owns; `taskpoint_dispatch --runners=N --spool=DIR` names the
 *    same campaign explicitly. The runners consult the cache and
 *    checkpoint store (the coordinator forwards the directories) and
 *    ship timelines back when a trace sink is active.
 *
 * Both honour the same ordered-sink contract, so a report is
 * byte-identical either way; executorFromCli() is the one place the
 * choice is made. Every result of every run also passes the
 * executor's tap: it feeds the `--trace-out`/`--trace-stats`
 * documents, which span all the plans one executor runs, and counts
 * the cache replays a campaign's runners made.
 */

#ifndef TP_HARNESS_EXECUTOR_HH
#define TP_HARNESS_EXECUTOR_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "harness/result_cache.hh"

namespace tp {
class CliArgs;
}

namespace tp::harness {

/**
 * See file comment. One executor serves every plan of a driver: its
 * BatchRunner realizes each shared trace once across runs, and its
 * trace documents number the jobs run-wide — each run's results are
 * teed into them with their index offset by the jobs of the earlier
 * runs, so no two jobs share a trace process or a stats row. The
 * documents begin (one stats-CSV header) when the executor is built
 * and end when it is destroyed.
 */
class Executor
{
  public:
    /**
     * @param batch       the in-process execution environment; its
     *                    collectTimelines (and the campaign's) is on
     *                    exactly when `traceSinks` is non-empty
     * @param campaign    when set, run() dispatches with these options
     * @param cache       owned store behind batch.cache (may be
     *                    null)
     * @param checkpoints owned store behind batch.checkpoints (may be
     *                    null)
     * @param traceSinks  observational sinks spanning every run (see
     *                    harness/trace_report.hh)
     */
    Executor(BatchOptions batch,
             std::optional<DispatchOptions> campaign,
             std::unique_ptr<ResultCache> cache = nullptr,
             std::unique_ptr<ResultCache> checkpoints = nullptr,
             std::vector<std::unique_ptr<ResultSink>> traceSinks = {});

    /** Ends the trace documents. */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * Execute `plan`, streaming each result to `sink` in submission
     * order (the BatchRunner::run contract); the trace sinks get a
     * run-wide numbered copy of each.
     */
    void run(const ExperimentPlan &plan, ResultSink &sink);

    /** Convenience: run `plan` collecting into a vector. */
    std::vector<BatchResult> run(const ExperimentPlan &plan);

    /** See BatchRunner::resolveTrace (works for campaigns too). */
    std::shared_ptr<const trace::TaskTrace>
    resolveTrace(const JobSpec &job) const;

    /**
     * Emit the cache summary when a cache was consulted: this
     * process's ResultCache::statsLine(), or for a campaign, whose
     * runners hold the cache, how many of the references and sampled
     * outcomes its runs delivered were replayed from it.
     */
    void reportCacheStats() const;

    /** The campaign run() dispatches, or nullopt when in-process. */
    const std::optional<DispatchOptions> &
    campaign() const
    {
        return campaign_;
    }

  private:
    class Tap;

    // Declared before runner_: the stores outlive the runner.
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<ResultCache> checkpoints_;
    std::vector<std::unique_ptr<ResultSink>> traceSinks_;
    std::optional<DispatchOptions> campaign_;
    BatchRunner runner_;
    /** Jobs of the runs so far: the next run's trace index offset. */
    std::size_t jobsRun_ = 0;
    /** Delivered references and sampled outcomes, and the replays. */
    std::size_t references_ = 0;
    std::size_t cachedReferences_ = 0;
    std::size_t sampled_ = 0;
    std::size_t cachedSampled_ = 0;
};

/**
 * Build the executor the canonical CLI selects. `--workers=N|auto`
 * (kWorkersOption) or `--runners=N` gives N local runners; either
 * that or `--spool=DIR` selects a campaign, configured from
 * `--shards`, `--max-retries`, `--heartbeat`, `--dead-after`,
 * `--stalled-after`, `--runner-bin` and `--keep-spool`, with
 * `--jobs`, the result-cache options and `--checkpoint-dir`
 * forwarded to the runners. Otherwise the plan runs in-process on
 * `--jobs` threads. Either way the cache options are validated here,
 * by resultCacheOptionsFromCli(), and `--trace-out`/`--trace-stats`
 * open the executor's trace documents (ChromeTraceSink,
 * TimelineStatsSink). Options a binary does not list are simply
 * absent.
 */
std::unique_ptr<Executor> executorFromCli(const CliArgs &args);

/**
 * Run `plan` on `executor` into the standard streaming report of the
 * generic plan executors (replay_plan, taskpoint_dispatch): the batch
 * summary table titled `title` on stdout, plus the files named by
 * `--csv` and `--json`; then the cache summary and, when the plan
 * compared anything, one error statistics line. The trace documents
 * are the executor's own.
 */
void runPlanReport(const std::string &title, const ExperimentPlan &plan,
                   Executor &executor, const CliArgs &args);

} // namespace tp::harness

#endif // TP_HARNESS_EXECUTOR_HH
