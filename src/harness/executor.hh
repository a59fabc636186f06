/**
 * @file
 * The plan executor a driver's command line selects, and the standard
 * streaming report of the generic plan executors.
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
 * choice is made.
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

/** See file comment. */
class Executor
{
  public:
    /**
     * @param batch       the in-process execution environment
     * @param campaign    when set, run() dispatches with these options
     * @param cache       owned store behind batch.cache (may be
     *                    null)
     * @param checkpoints owned store behind batch.checkpoints (may be
     *                    null)
     */
    Executor(BatchOptions batch,
             std::optional<DispatchOptions> campaign,
             std::unique_ptr<ResultCache> cache = nullptr,
             std::unique_ptr<ResultCache> checkpoints = nullptr);

    /**
     * Execute `plan`, streaming each result to `sink` in submission
     * order (the BatchRunner::run contract).
     */
    void run(const ExperimentPlan &plan, ResultSink &sink) const;

    /** See BatchRunner::resolveTrace (works for campaigns too). */
    std::shared_ptr<const trace::TaskTrace>
    resolveTrace(const JobSpec &job) const;

    /** Emit the cache summary when this process consulted a cache. */
    void reportCacheStats() const;

    /** The campaign run() dispatches, or nullopt when in-process. */
    const std::optional<DispatchOptions> &
    campaign() const
    {
        return campaign_;
    }

  private:
    // Declared before runner_: the stores outlive the runner.
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<ResultCache> checkpoints_;
    std::optional<DispatchOptions> campaign_;
    BatchRunner runner_;
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
 * turn timeline collection on. Options a binary does not list are
 * simply absent.
 */
std::unique_ptr<Executor> executorFromCli(const CliArgs &args);

/**
 * Run `plan` on `executor` into the standard streaming report of the
 * generic plan executors (replay_plan, taskpoint_dispatch): the batch
 * summary table titled `title` on stdout, plus the files named by
 * `--csv`, `--json`, `--trace-out` and `--trace-stats`; then the
 * cache summary and, when the plan compared anything, one error
 * statistics line.
 */
void runPlanReport(const std::string &title, const ExperimentPlan &plan,
                   const Executor &executor, const CliArgs &args);

} // namespace tp::harness

#endif // TP_HARNESS_EXECUTOR_HH
