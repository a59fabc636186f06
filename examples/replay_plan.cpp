/**
 * @file
 * Generic executor for serialized ExperimentPlans — the front door
 * for shipping a batch to another process or machine.
 *
 *   ./replay_plan --plan=FILE [--jobs=N|auto] [--list]
 *                 [--workers=N|auto] [--max-retries=N]
 *                 [--csv=FILE] [--json=FILE]
 *                 [--trace-out=FILE] [--trace-stats=FILE]
 *                 [--cache-dir=DIR] [--cache=off|ro|rw]
 *                 [--checkpoint-dir=DIR]
 *
 * Any driver (or user code) can serialize a plan with
 * harness::serializePlan; this binary loads it, prints its digest,
 * and executes it with a streaming report: the standard batch
 * summary table plus an O(1) error-statistics accumulator, composed
 * through a TeeSink — optionally teeing machine-readable CSV/JSON
 * row streams to files. Deterministic fields of the report are
 * byte-identical to running the plan in the process that built it —
 * only host wall-clock columns differ — and `--workers=N` executes
 * the plan as a local dispatch campaign of N spawned runners with the
 * same guarantee. `--list` inspects the jobs without simulating
 * anything.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness/executor.hh"

using namespace tp;

namespace {

const char *
modeName(harness::BatchMode m)
{
    switch (m) {
      case harness::BatchMode::Sampled:
        return "sampled";
      case harness::BatchMode::Reference:
        return "reference";
      case harness::BatchMode::Both:
        return "both";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(
        argc, argv,
        {{"plan", "serialized experiment plan to execute (required)"},
         {"list", "print the plan's jobs instead of running them"},
         {"csv", "also stream results to this file as CSV rows"},
         {"json", "also stream results to this file as a JSON array"},
         jobsCliOption(), workersCliOption(),
         maxRetriesCliOption(), cacheDirCliOption(),
         cacheModeCliOption(), checkpointDirCliOption(),
         traceOutCliOption(), traceStatsCliOption(),
         faultPlanCliOption()});
    const std::string path = args.getString("plan", "");
    if (path.empty())
        fatal("--plan=FILE is required (see --help)");

    const harness::ExperimentPlan plan =
        harness::deserializePlan(path);
    std::printf("plan %s: %zu jobs, baseSeed %llu, deriveSeeds %s, "
                "digest %s\n",
                path.c_str(), plan.jobs.size(),
                static_cast<unsigned long long>(plan.baseSeed),
                plan.deriveSeeds ? "yes" : "no",
                harness::planDigest(plan).c_str());

    if (args.has("list")) {
        TextTable t("jobs");
        t.setHeader({"#", "label", "source", "mode", "threads",
                     "digest"});
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const harness::JobSpec &j = plan.jobs[i];
            t.addRow({std::to_string(i), j.label,
                      j.traceFile.empty() ? j.workload
                                          : "file:" + j.traceFile,
                      modeName(j.mode),
                      std::to_string(j.spec.threads),
                      harness::jobSpecDigest(j).substr(0, 12)});
        }
        t.print();
        return 0;
    }

    harness::runPlanReport("replayed plan " + path, plan,
                           *harness::executorFromCli(args), args);
    return 0;
}
