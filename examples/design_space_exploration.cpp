/**
 * @file
 * Design-space exploration — the use case the paper recommends lazy
 * sampling for (Section V, Summary): evaluating many architecture
 * variants quickly, then verifying the short-listed ones with the
 * slower periodic policy.
 *
 *   ./design_space_exploration [--workload=cholesky] [--threads=16]
 *                              [--scale=0.0625] [--jobs=N|auto]
 *
 * The exploration sweeps ROB size and L2 capacity around the
 * high-performance configuration, ranks the variants by predicted
 * execution time under lazy sampling, and re-evaluates the best
 * variant with periodic sampling (P=250) as the paper's suggested
 * second phase. All variants are independent jobs of one
 * ExperimentPlan, so phase 1 fans out across a worker pool (--jobs);
 * predicted cycles are bit-identical for any worker count, and with
 * a cache directory both the lazy sweep and the phase-2 reference
 * replay on reruns.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/statistics.hh"
#include "common/table.hh"
#include "harness/executor.hh"
#include "harness/experiment.hh"

using namespace tp;

int
main(int argc, char **argv)
{
    const CliArgs args(
        argc, argv,
        {{"workload", "workload to explore (default cholesky)"},
         {"threads", "simulated thread count (default 16)"},
         {"scale",
          "task-instance count multiplier (default 0.0625)"},
         jobsCliOption(), cacheDirCliOption(),
         cacheModeCliOption()});
    const std::string name = args.getString("workload", "cholesky");
    const auto threads =
        static_cast<std::uint32_t>(args.getUint("threads", 16));
    const std::size_t jobs = jobsFlag(args, 1);

    work::WorkloadParams wp;
    wp.scale = args.getDouble("scale", 0.0625);

    // Phase 1: lazy sampling across the whole space, in parallel.
    // Every variant names the same (workload, params), so the runner
    // generates one trace and shares it across the sweep.
    harness::ExperimentPlan plan;
    // Keep every variant (and phase 2's confirmation rerun) on the
    // workload's own seed rather than per-index derived ones.
    plan.deriveSeeds = false;
    for (std::uint32_t rob : {96u, 168u, 256u}) {
        for (std::uint64_t l2kb : {1024u, 2048u, 4096u}) {
            harness::JobSpec j;
            j.label = strprintf("rob=%u l2=%lluKiB", rob,
                                static_cast<unsigned long long>(
                                    l2kb));
            j.workload = name;
            j.workloadParams = wp;
            j.spec.arch = cpu::highPerformanceConfig();
            j.spec.arch.core.robSize = rob;
            j.spec.arch.memory.l2.sizeBytes = l2kb * 1024;
            j.spec.threads = threads;
            j.sampling = sampling::SamplingParams::lazy();
            plan.jobs.push_back(j);
        }
    }

    std::printf("phase 1: lazy sampling over %zu variants of %s "
                "(%u threads, %zu jobs)\n",
                plan.jobs.size(), name.c_str(), threads, jobs);
    // With a shared cache dir, the lazy sweep itself and any
    // Reference/Both-mode jobs of a campaign reuse prior work.
    const std::unique_ptr<harness::Executor> executor =
        harness::executorFromCli(args);
    const std::vector<harness::BatchResult> results =
        executor->run(plan);

    std::vector<std::size_t> ranked(results.size());
    for (std::size_t i = 0; i < ranked.size(); ++i)
        ranked[i] = i;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&results](std::size_t a, std::size_t b) {
                         return results[a].sampled->result.totalCycles <
                                results[b].sampled->result.totalCycles;
                     });

    TextTable table("predicted execution time (lazy sampling)");
    table.setHeader({"rank", "variant", "cycles", "host [s]"});
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const harness::BatchResult &r = results[ranked[i]];
        table.addRow({std::to_string(i + 1), r.label,
                      fmtCount(r.sampled->result.totalCycles),
                      fmtDouble(r.sampled->result.wallSeconds, 2)});
    }
    table.print();

    // Phase 2: confirm the winner with periodic sampling against
    // the detailed reference. The reference is the expensive part,
    // and exactly what the result cache shares across reruns and
    // other drivers exploring the same design point.
    const harness::BatchResult &best = results[ranked.front()];
    harness::ExperimentPlan confirmPlan;
    confirmPlan.deriveSeeds = false;
    confirmPlan.jobs.push_back(plan.jobs[best.index]);
    harness::JobSpec &confirmJob = confirmPlan.jobs.back();
    confirmJob.label = best.label + " confirmation";
    confirmJob.sampling = sampling::SamplingParams::periodic(250);
    confirmJob.mode = harness::BatchMode::Both;
    const harness::BatchResult confirm =
        executor->run(confirmPlan).front();
    executor->reportCacheStats();

    const Cycles predicted = best.sampled->result.totalCycles;
    const Cycles periodic = confirm.sampled->result.totalCycles;
    std::printf("\nphase 2: periodic confirmation of '%s': %s cycles "
                "(lazy predicted %s, delta %.2f%%)\n",
                best.label.c_str(), fmtCount(periodic).c_str(),
                fmtCount(predicted).c_str(),
                100.0 * (double(periodic) - double(predicted)) /
                    double(periodic));
    std::printf("detailed reference%s: %s cycles; periodic error "
                "%.2f%%, lazy error %.2f%%\n",
                confirm.referenceFromCache ? " (cached)" : "",
                fmtCount(confirm.reference->totalCycles).c_str(),
                confirm.comparison->errorPct,
                absPctError(double(predicted),
                            double(confirm.reference->totalCycles)));
    return 0;
}
