/**
 * @file
 * Paper Table I: the 19 task-based benchmarks — task-type counts,
 * task-instance counts and detailed simulation time with 1 and 64
 * threads.
 *
 * Instance counts are shown at the paper's scale and at this
 * reproduction's default generation scale; simulation times are
 * measured host wall-clock of our detailed simulator at the default
 * scale (the paper reports hours on full-size traces — the *ratios*
 * between benchmarks and between 1 and 64 threads are the comparable
 * shape).
 */

#include <cstdio>

#include "bench/bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tp;
    const bench::FigureOptions opts =
        bench::parseFigureOptions(argc, argv, bench::PlanCli::None);
    const work::WorkloadParams wp = bench::figureWorkloadParams(opts);

    TextTable table(
        "Table I: task-based parallel benchmarks (detailed simulation "
        "at scale " + fmtDouble(opts.scale, 3) + ")");
    table.setHeader({"benchmark", "types", "inst(paper)", "inst(gen)",
                     "sim 1t [s]", "sim 64t [s]", "sim cycles 64t",
                     "properties"});

    // Two detailed runs (1 and 64 threads) per benchmark, fanned
    // over the worker pool; BatchRunner realizes one trace per
    // benchmark and shares it between both runs and the stats
    // column. Note the "sim [s]" columns are the whole point of this
    // table, so a warm cache replays the *original* measured wall
    // seconds rather than re-measuring.
    const std::vector<std::string> names =
        bench::selectedWorkloads(opts);
    harness::ExperimentPlan plan;
    plan.deriveSeeds = false;
    for (const std::string &name : names) {
        for (std::uint32_t threads : {1u, 64u}) {
            harness::JobSpec j;
            j.label = name + " @" + std::to_string(threads) + "t";
            j.workload = name;
            j.workloadParams = wp;
            j.spec.arch = cpu::highPerformanceConfig();
            j.spec.threads = threads;
            j.mode = harness::BatchMode::Reference;
            plan.jobs.push_back(j);
        }
    }
    harness::Executor &executor = *opts.executor;
    const std::vector<harness::BatchResult> results =
        executor.run(plan);
    executor.reportCacheStats();

    std::size_t idx = 0;
    for (const std::string &name : names) {
        const work::WorkloadInfo &info = work::workloadByName(name);
        const sim::SimResult &r1 = *results[idx].reference;
        const sim::SimResult &r64 = *results[idx + 1].reference;
        const trace::TraceStats ts =
            executor.resolveTrace(plan.jobs[idx])->stats();
        idx += 2;
        tp_assert(ts.numTypes == info.paperTaskTypes);

        table.addRow({info.name, std::to_string(ts.numTypes),
                      std::to_string(info.paperInstances),
                      std::to_string(ts.numInstances),
                      fmtDouble(r1.wallSeconds, 2),
                      fmtDouble(r64.wallSeconds, 2),
                      fmtCount(r64.totalCycles), info.properties});
    }
    table.print();
    return 0;
}
