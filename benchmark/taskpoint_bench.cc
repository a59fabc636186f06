/**
 * @file
 * The repository benchmark program: one workload per invocation.
 *
 *   taskpoint_bench --workload=NAME [--seed=N] [--seconds=S]
 *                   [--trace=0|1] [--work-dir=DIR] [--trace-out=FILE]
 *
 * Untraced (--trace=0) runs set up several times, repeat the
 * workload's measured pass for about --seconds and report the
 * end-to-end metrics as medians; traced runs (--trace=1) run one
 * traced pass and report the per-layer metrics, optionally writing
 * its spans as Chrome trace-event JSON. Every run checks the
 * simulator's outputs.
 *
 * Progress and per-pass timings go to stderr. The last line of stdout
 * is one JSON object with the keys correct, attempted, failed and
 * metrics. Exit status: 0 when every check passed, 1 when an output
 * was wrong, 2 when the run could not complete (no result printed).
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>

#include "common/cli.hh"
#include "common/logging.hh"
#include "measure.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace tpbench;

namespace {

/** Removes the run's work directory however the run ends. */
class WorkDir
{
  public:
    explicit WorkDir(std::string path) : path_(std::move(path))
    {
        fs::remove_all(path_);
        fs::create_directories(path_ + "/tmp");
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

int
main(int argc, char **argv)
{
    try {
        const tp::CliArgs args(
            argc, argv,
            {{"workload", "workload to run (see README.md)"},
             {"seed", "seed every input is generated from (default 42)"},
             {"seconds", "measured window in seconds (default 20)"},
             {"trace", "1 = traced run reporting per-layer metrics"},
             {"work-dir",
              "parent of the run's work directory (default "
              "build-bench/work)"},
             {"trace-out", "Chrome trace-event file of a traced run"}});
        RunOptions opt;
        opt.workload = args.getString("workload", "");
        if (opt.workload.empty())
            tp::fatal("--workload is required; one of detailed-core, "
                      "sampled-sweep, campaign, paper-figure, "
                      "checkpoint-slices");
        opt.seed = args.getUint("seed", 42);
        opt.seconds = args.getDoubleIn("seconds", 20.0, 1.0, 600.0);
        opt.traced = args.getUintIn("trace", 0, 0, 1) == 1;
        opt.traceOut = args.getString("trace-out", "");
        opt.binDir = TPBENCH_BIN_DIR;

        const WorkDir workDir(
            fs::absolute(args.getString("work-dir", "build-bench/work"))
                .string() +
            "/" + opt.workload + "-" + std::to_string(::getpid()));
        opt.workDir = workDir.path();
        // Executors that make temporary directories (replay_plan
        // --workers) keep them inside the run's work directory.
        ::setenv("TMPDIR", (opt.workDir + "/tmp").c_str(), 1);

        Checker check;
        Metrics metrics;
        runWorkload(opt, check, metrics);
        for (const std::string &p : check.problems())
            std::fprintf(stderr, "FAILED: %s\n", p.c_str());
        const bool correct = check.failed() == 0;
        std::printf("%s\n", resultJson(correct, check.attempted(),
                                       check.failed(), metrics)
                                .c_str());
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "taskpoint_bench: %s\n", e.what());
        return 2;
    }
}
