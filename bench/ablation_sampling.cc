/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out beyond
 * the paper's own parameter sweep:
 *
 *  - concurrency-trigger hysteresis K and dead-band tolerance
 *  - rare-type sampling cutoff R
 *  - runtime scheduler policy (FIFO / work stealing / locality)
 *  - sampling-policy frontier: lazy / periodic vs. the adaptive
 *    policy at 2%, 1% and 0.5% confidence targets, reporting each
 *    run's measured error, its own reported CI half-width and the
 *    detail fraction (cost)
 *
 * Evaluated with lazy sampling at 16 threads on four benchmarks
 * covering the main behaviour classes (regular kernel, decreasing
 * parallelism, wavefront factorization, irregular divergence).
 *
 * The twelve detailed references (benchmark x scheduler) run as one
 * plan — shareable through the result cache — and every table row's
 * sampled runs fan into a second plan streamed straight into the
 * table cells, so `--jobs=N` parallelizes the whole ablation and no
 * sampled result is retained in memory.
 */

#include <cstdio>
#include <map>

#include "bench/bench_common.hh"
#include "runtime/scheduler.hh"

using namespace tp;

namespace {

const std::vector<std::string> kBenchmarks = {
    "vector-operation", "reduction", "cholesky", "dedup"};

const std::vector<rt::SchedulerKind> kSchedulers = {
    rt::SchedulerKind::Fifo, rt::SchedulerKind::WorkStealing,
    rt::SchedulerKind::Locality};

const char *
schedName(rt::SchedulerKind s)
{
    switch (s) {
      case rt::SchedulerKind::Fifo:
        return "fifo";
      case rt::SchedulerKind::WorkStealing:
        return "steal";
      case rt::SchedulerKind::Locality:
        return "locality";
    }
    return "?";
}

harness::RunSpec
baseSpec(rt::SchedulerKind sched)
{
    harness::RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 16;
    spec.runtime.scheduler = sched;
    return spec;
}

/** One sampled table row: label + params + scheduler. */
struct RowSpec
{
    std::size_t table = 0;
    std::string label;
    sampling::SamplingParams params;
    rt::SchedulerKind sched = rt::SchedulerKind::Fifo;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::FigureOptions opts =
        bench::parseFigureOptions(argc, argv, bench::PlanCli::None);
    const work::WorkloadParams wp = bench::figureWorkloadParams(opts);

    harness::Executor &executor = *opts.executor;

    // Detailed references per (benchmark, scheduler).
    harness::ExperimentPlan refPlan;
    refPlan.deriveSeeds = false;
    for (const std::string &name : kBenchmarks) {
        for (rt::SchedulerKind sched : kSchedulers) {
            harness::JobSpec j;
            j.label = name + " reference (" +
                      std::string(schedName(sched)) + ")";
            j.workload = name;
            j.workloadParams = wp;
            j.spec = baseSpec(sched);
            j.mode = harness::BatchMode::Reference;
            refPlan.jobs.push_back(j);
        }
    }
    harness::progress("computing detailed references");
    const std::vector<harness::BatchResult> refResults =
        executor.run(refPlan);
    std::map<std::pair<std::string, rt::SchedulerKind>,
             const sim::SimResult *>
        refs;
    {
        std::size_t at = 0;
        for (const std::string &name : kBenchmarks)
            for (rt::SchedulerKind sched : kSchedulers)
                refs[{name, sched}] = &*refResults[at++].reference;
    }

    // The four ablation tables as sampled rows.
    std::vector<RowSpec> rows;
    for (std::uint32_t k : {1, 4, 8, 16}) {
        sampling::SamplingParams p = sampling::SamplingParams::lazy();
        p.concurrencyHysteresis = k;
        rows.push_back({0, "K=" + std::to_string(k), p,
                        rt::SchedulerKind::Fifo});
    }
    for (double tol : {0.0, 0.125, 0.25, 0.5}) {
        sampling::SamplingParams p = sampling::SamplingParams::lazy();
        p.concurrencyTolerance = tol;
        rows.push_back({1, "tol=" + fmtDouble(tol, 3), p,
                        rt::SchedulerKind::Fifo});
    }
    for (std::uint64_t r : {1, 3, 5, 10}) {
        sampling::SamplingParams p = sampling::SamplingParams::lazy();
        p.rareCutoff = r;
        rows.push_back({2, "R=" + std::to_string(r), p,
                        rt::SchedulerKind::Fifo});
    }
    for (rt::SchedulerKind sched : kSchedulers) {
        rows.push_back({3, schedName(sched),
                        sampling::SamplingParams::lazy(), sched});
    }
    // The adaptive frontier: fixed policies vs. the variance-aware
    // adaptive policy at three confidence targets. Cells add the
    // reported CI half-width and the detail fraction, so an adaptive
    // point can be checked against its own target and against the
    // cost of the fixed policies.
    rows.push_back({4, "lazy", sampling::SamplingParams::lazy(),
                    rt::SchedulerKind::Fifo});
    for (std::uint64_t p : {50, 250}) {
        rows.push_back({4, "periodic P=" + std::to_string(p),
                        sampling::SamplingParams::periodic(p),
                        rt::SchedulerKind::Fifo});
    }
    for (double target : {0.02, 0.01, 0.005}) {
        rows.push_back({4,
                        "adaptive " + fmtDouble(100.0 * target, 1) +
                            "%",
                        sampling::SamplingParams::adaptive(target),
                        rt::SchedulerKind::Fifo});
    }

    // All sampled runs of all rows in one plan.
    harness::ExperimentPlan samPlan;
    samPlan.deriveSeeds = false;
    for (const RowSpec &row : rows) {
        for (const std::string &name : kBenchmarks) {
            harness::JobSpec j;
            j.label = name + " " + row.label;
            j.workload = name;
            j.workloadParams = wp;
            j.spec = baseSpec(row.sched);
            j.sampling = row.params;
            j.mode = harness::BatchMode::Sampled;
            samPlan.jobs.push_back(j);
        }
    }
    harness::progress(
        strprintf("running %zu sampled simulations (%zu jobs)",
                  samPlan.jobs.size(), opts.jobs));

    // Stream each sampled run into its table cell against the shared
    // references; only the formatted cells are retained.
    std::vector<std::vector<std::string>> cells(rows.size());
    harness::FunctionSink sink([&](harness::BatchResult &&r) {
        const std::size_t row = r.index / kBenchmarks.size();
        const std::string &name =
            kBenchmarks[r.index % kBenchmarks.size()];
        const harness::ErrorSpeedup es = harness::compare(
            *refs.at({name, rows[row].sched}), r.sampled->result);
        if (rows[row].table == 4) {
            // Frontier cells: measured error, the run's own reported
            // CI half-width (adaptive only), and the detail fraction
            // as the machine-independent cost.
            const sampling::AdaptiveDiagnostics &d =
                r.sampled->adaptive;
            const std::string ci =
                d.enabled ? sampling::reportedCi(d) : "-";
            cells[row].push_back(fmtDouble(es.errorPct, 2) + "% / " +
                                 ci + " / " +
                                 fmtDouble(es.detailFraction, 3));
        } else {
            cells[row].push_back(fmtDouble(es.errorPct, 2) + "% / " +
                                 fmtDouble(es.wallSpeedup, 1) + "x");
        }
    });
    executor.run(samPlan, sink);
    executor.reportCacheStats();

    std::vector<std::string> header = {"configuration"};
    for (const auto &n : kBenchmarks)
        header.push_back(n + " (err/speedup)");

    std::vector<std::string> frontierHeader = {"configuration"};
    for (const auto &n : kBenchmarks)
        frontierHeader.push_back(n + " (err/CI/detail)");

    const char *titles[5] = {
        "Ablation: concurrency-trigger hysteresis K "
        "(lazy, 16 threads)",
        "Ablation: concurrency dead-band tolerance",
        "Ablation: rare-type sampling cutoff R",
        "Ablation: runtime scheduler policy (lazy defaults)",
        "Ablation: adaptive sampling frontier (measured error / "
        "reported CI half-width / detail fraction)"};

    for (std::size_t table = 0; table < 5; ++table) {
        TextTable t(titles[table]);
        t.setHeader(table == 4 ? frontierHeader : header);
        for (std::size_t row = 0; row < rows.size(); ++row) {
            if (rows[row].table != table)
                continue;
            std::vector<std::string> line = {rows[row].label};
            line.insert(line.end(), cells[row].begin(),
                        cells[row].end());
            t.addRow(line);
        }
        t.print();
        if (table != 4)
            std::printf("\n");
    }
    return 0;
}
