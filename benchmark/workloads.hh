/**
 * @file
 * The benchmark's five workloads. Each is a fixed plan run to
 * completion (a batch system has no arrival process), generated from
 * the seed alone and loading at most three host threads or runner
 * processes.
 *
 *  - detailed-core: harness::runDetailed on three kernels, one host
 *    thread; the detailed hot path (trace, cpu, memory) does the work.
 *  - sampled-sweep: 57 sampled jobs (19 registry workloads x lazy,
 *    periodic, adaptive) through an in-process BatchRunner.
 *  - campaign: the same plan through the multi-process executors'
 *    command lines, taskpoint_dispatch and replay_plan --workers.
 *  - paper-figure: detailed references and sampled runs of the 19
 *    workloads through a fresh result cache, then a warm rerun.
 *  - checkpoint-slices: five long sampled jobs record warm-state
 *    checkpoints, then rerun as restored per-interval slices.
 */

#ifndef TPBENCH_WORKLOADS_HH
#define TPBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hh"

namespace tpbench {

/** How one benchmark run was invoked. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 42;
    /** Length of the measured window, in seconds. */
    double seconds = 20.0;
    /** Run the traced pass and report per-layer metrics instead. */
    bool traced = false;
    /** Directory holding the replay_plan and taskpoint_dispatch CLIs. */
    std::string binDir;
    /** Private work directory of this run; must exist. */
    std::string workDir;
    /** Chrome trace-event file of a traced run; empty = none. */
    std::string traceOut;
};

/** @return the workload names, in report order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload. Untraced, it sets up several times, repeats its
 * measured pass for about opt.seconds and reports the end-to-end
 * metrics (medians). Traced, it runs one traced pass and reports
 * every per-layer metric. Either way every output is checked into
 * `check`.
 */
void runWorkload(const RunOptions &opt, Checker &check,
                 Metrics &metrics);

} // namespace tpbench

#endif // TPBENCH_WORKLOADS_HH
