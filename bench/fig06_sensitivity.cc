/**
 * @file
 * Paper Fig. 6: sensitivity of TaskPoint to its model parameters,
 * averaged over 32- and 64-thread simulations of the five benchmarks
 * the paper uses for the analysis (2d-convolution, 3d-stencil,
 * atomic-monte-carlo-dynamics, knn, blackscholes):
 *
 *   (a) warmup interval W in [0, 10], with H=10, P=inf
 *   (b) history size H in [1, 10], with W=2, P=inf
 *   (c) sampling period P in [10, 1000], with W=2, H=4
 *
 * The detailed references are computed once as a parallel plan; the
 * 21 sweep points then fan all their sampled runs into one second
 * plan, so `--jobs=N` parallelizes the whole figure (one BatchRunner
 * realizes each benchmark trace once and shares it across both
 * plans). Results are keyed by submission index, so the
 * cycle-derived columns (avg error) are identical for any N; the
 * avg-speedup columns are host wall-clock ratios and vary with
 * worker contention.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace tp;

namespace {

const std::vector<std::string> kSensitiveBenchmarks = {
    "2d-convolution", "3d-stencil", "atomic-monte-carlo-dynamics",
    "knn", "blackscholes"};

const std::vector<std::uint32_t> kThreads = {32, 64};

struct SweepPoint
{
    double errSum = 0.0;
    double spdSum = 0.0;
    std::size_t n = 0;
};

/** One parameter set of one sub-figure sweep. */
struct SweepEntry
{
    std::string label;
    sampling::SamplingParams params;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::FigureOptions opts =
        bench::parseFigureOptions(argc, argv, bench::PlanCli::None);
    const work::WorkloadParams wp = bench::figureWorkloadParams(opts);

    harness::Executor &executor = *opts.executor;

    // Shared detailed references: one Reference-mode job per
    // (benchmark, thread count).
    harness::ExperimentPlan refPlan;
    refPlan.deriveSeeds = false;
    for (const std::string &name : kSensitiveBenchmarks) {
        for (std::uint32_t t : kThreads) {
            harness::JobSpec j;
            j.label = name + " @" + std::to_string(t) + "t reference";
            j.workload = name;
            j.workloadParams = wp;
            j.spec.arch = cpu::highPerformanceConfig();
            j.spec.threads = t;
            j.mode = harness::BatchMode::Reference;
            refPlan.jobs.push_back(j);
        }
    }
    harness::progress("computing detailed references");
    const std::vector<harness::BatchResult> refResults =
        executor.run(refPlan);

    // The three parameter sweeps of Fig. 6.
    std::vector<SweepEntry> sweeps;
    std::size_t sweepCounts[3] = {0, 0, 0};
    for (std::uint64_t w : {0, 1, 2, 4, 6, 8, 10}) {
        sampling::SamplingParams p = sampling::SamplingParams::lazy();
        p.warmup = w;
        p.historySize = 10;
        sweeps.push_back({std::to_string(w), p});
        ++sweepCounts[0];
    }
    for (std::size_t h : {1, 2, 3, 4, 6, 8, 10}) {
        sampling::SamplingParams p = sampling::SamplingParams::lazy();
        p.warmup = 2;
        p.historySize = h;
        sweeps.push_back({std::to_string(h), p});
        ++sweepCounts[1];
    }
    for (std::uint64_t per : {10, 25, 50, 100, 250, 500, 1000}) {
        sweeps.push_back({std::to_string(per),
                          sampling::SamplingParams::periodic(per)});
        ++sweepCounts[2];
    }

    // Fan every (sweep point, benchmark, thread count) sampled run
    // into one plan; job order mirrors the refResults order within
    // each sweep point.
    harness::ExperimentPlan samPlan;
    samPlan.deriveSeeds = false;
    for (const SweepEntry &s : sweeps) {
        for (const harness::JobSpec &ref : refPlan.jobs) {
            harness::JobSpec j = ref;
            j.label = ref.label + " sweep " + s.label;
            j.sampling = s.params;
            j.mode = harness::BatchMode::Sampled;
            samPlan.jobs.push_back(j);
        }
    }
    harness::progress(
        strprintf("running %zu sampled simulations (%zu jobs)",
                  samPlan.jobs.size(), opts.jobs));

    // Stream each sampled run into its sweep point's accumulator
    // against the shared references; no sampled result is retained.
    std::vector<SweepPoint> points(sweeps.size());
    harness::FunctionSink sink([&](harness::BatchResult &&r) {
        const std::size_t ref = r.index % refPlan.jobs.size();
        const harness::ErrorSpeedup es = harness::compare(
            *refResults[ref].reference, r.sampled->result);
        SweepPoint &p = points[r.index / refPlan.jobs.size()];
        p.errSum += es.errorPct;
        p.spdSum += es.wallSpeedup;
        ++p.n;
    });
    executor.run(samPlan, sink);
    executor.reportCacheStats();

    const char *titles[3] = {
        "Fig. 6a: error/speedup vs warmup interval W "
        "(H=10, P=inf; avg of 32 and 64 threads)",
        "Fig. 6b: error/speedup vs history size H "
        "(W=2, P=inf; avg of 32 and 64 threads)",
        "Fig. 6c: error/speedup vs sampling period P "
        "(W=2, H=4; avg of 32 and 64 threads)"};
    const char *columns[3] = {"W", "H", "P"};

    std::size_t at = 0;
    for (int f = 0; f < 3; ++f) {
        TextTable t(titles[f]);
        t.setHeader({columns[f], "avg error [%]", "avg speedup"});
        for (std::size_t i = 0; i < sweepCounts[f]; ++i, ++at) {
            const SweepPoint &p = points[at];
            t.addRow({sweeps[at].label,
                      fmtDouble(p.errSum / double(p.n), 2),
                      fmtDouble(p.spdSum / double(p.n), 1)});
        }
        t.print();
        if (f != 2)
            std::printf("\n");
    }
    return 0;
}
