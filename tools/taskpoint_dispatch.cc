/**
 * @file
 * Distributed campaign coordinator and runner (harness/dispatch).
 *
 * Coordinator (default role): split a serialized ExperimentPlan into
 * cost-ordered shard tasks, publish them into a spool directory,
 * optionally spawn local runner processes, live-tail the result
 * streams and print the standard streaming report — byte-identical
 * (host wall-clock aside) to replaying the plan with --jobs=1.
 *
 *   taskpoint_dispatch --plan=FILE [--spool=DIR] [--runners=N]
 *                      [--shards=N] [--jobs=N] [--max-retries=N]
 *                      [--heartbeat=MS] [--dead-after=MS]
 *                      [--stalled-after=MS] [--csv=FILE]
 *                      [--json=FILE] [--trace-out=FILE]
 *                      [--trace-stats=FILE] [--cache-dir=DIR]
 *                      [--cache=off|ro|rw] [--checkpoint-dir=DIR]
 *                      [--fault-plan=FILE] [--keep-spool]
 *
 * Runner: join an existing spool (possibly on another machine via a
 * shared filesystem), claim tasks, execute them, stream results
 * back, and exit when the coordinator publishes the stop file.
 *
 *   taskpoint_dispatch --runner --spool=DIR [--runner-id=NAME]
 *                      [--jobs=N] [--heartbeat=MS] [--quiet]
 *                      [--cache-dir=DIR] [--cache=off|ro|rw]
 *                      [--checkpoint-dir=DIR]
 *
 * Every driver's `--workers=N` spawns this binary's runner role too.
 * See README "Multi-process and distributed campaigns" for the spool
 * contract.
 */

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>

#include "common/cli.hh"
#include "common/logging.hh"
#include "harness/executor.hh"
#include "harness/job_spec.hh"
#include "harness/result_cache.hh"

using namespace tp;

namespace {

int
runnerMain(const CliArgs &args)
{
    harness::DispatchRunnerOptions ro;
    ro.spoolDir = args.getString("spool", "");
    if (ro.spoolDir.empty())
        fatal("--runner needs --spool=DIR (see --help)");
    ro.runnerId = args.getString("runner-id", "");
    ro.heartbeatInterval = std::chrono::milliseconds(
        args.getUintIn("heartbeat", 200, 10, 60000));
    ro.progress = !args.has("quiet");

    const std::unique_ptr<harness::ResultCache> cache =
        harness::resultCacheFromCli(args);
    const std::unique_ptr<harness::ResultCache> checkpoints =
        harness::openCheckpointDir(
            args.getString(kCheckpointDirOption, ""));
    ro.batch.jobs = jobsFlag(args, 1);
    ro.batch.progress = false; // per-job lines drown the heartbeat
    ro.batch.cache = cache.get();
    ro.batch.checkpoints = checkpoints.get();

    const std::size_t executed = harness::runDispatchRunner(ro);
    if (ro.progress)
        harness::progress(
            strprintf("runner: executed %zu tasks", executed));
    if (cache && ro.progress)
        harness::progress(cache->statsLine());
    return 0;
}

int
coordinatorMain(const CliArgs &args)
{
    const std::string path = args.getString("plan", "");
    if (path.empty())
        fatal("--plan=FILE is required (see --help)");
    const harness::ExperimentPlan plan =
        harness::deserializePlan(path);
    std::printf("plan %s: %zu jobs, digest %s\n", path.c_str(),
                plan.jobs.size(),
                harness::planDigest(plan).c_str());

    const std::unique_ptr<harness::Executor> executor =
        harness::executorFromCli(args);
    if (!executor->campaign())
        fatal("a campaign needs --spool=DIR or --runners=N "
              "(see --help)");
    harness::runPlanReport("dispatched plan " + path, plan, *executor,
                           args);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliArgs args(
            argc, argv,
            {{"plan",
              "serialized experiment plan to dispatch (coordinator; "
              "required)"},
             {"spool",
              "spool directory shared with the runners (default: "
              "coordinator creates a temp spool)"},
             {"runners",
              "local runner processes the coordinator spawns "
              "(default 0: external runners join via --runner)"},
             {"shards",
              "shard tasks to split the plan into (default "
              "2x runners; one result stream exists per task)"},
             {"runner", "run as a runner joining --spool"},
             {"runner-id",
              "runner identity in the spool (default host-pid)"},
             {"runner-bin",
              "binary spawned as a local runner (default: "
              "taskpoint_dispatch next to this executable)"},
             {"heartbeat",
              "runner heartbeat interval in ms (default 200)"},
             {"dead-after",
              "heartbeat-stall span in ms after which a runner is "
              "declared dead and its work stolen (default 2000)"},
             {"stalled-after",
              "span in ms after which a claimed task's silent "
              "result stream is declared stalled and its jobs "
              "stolen (default 0 = max(30*dead-after, 60s))"},
             {"keep-spool",
              "keep a coordinator-created temp spool for "
              "post-mortems"},
             {"csv", "also stream results to this file as CSV rows"},
             {"json",
              "also stream results to this file as a JSON array"},
             {"quiet", "suppress runner progress lines"},
             jobsCliOption(), maxRetriesCliOption(),
             cacheDirCliOption(), cacheModeCliOption(),
             checkpointDirCliOption(), traceOutCliOption(),
             traceStatsCliOption(), faultPlanCliOption()});
        if (args.has("runner"))
            return runnerMain(args);
        return coordinatorMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "taskpoint_dispatch: %s\n", e.what());
        return 1;
    }
}
