/**
 * @file
 * Shared driver code for the per-figure bench binaries.
 *
 * Every figure of the paper's evaluation reduces to: build an
 * ExperimentPlan over the 19 workloads — one self-describing JobSpec
 * per (architecture, thread count, policy) — run it on the executor
 * the command line selects (harness::executorFromCli), and stream
 * the results into the figure's report.
 * Single-batch figures can also save their plan to disk
 * (`--save-plan=FILE`) and replay a saved plan in a fresh process
 * (`--plan=FILE`) with byte-identical deterministic output.
 */

#ifndef TP_BENCH_BENCH_COMMON_HH
#define TP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/statistics.hh"
#include "common/table.hh"
#include "harness/batch_runner.hh"
#include "harness/executor.hh"
#include "harness/experiment.hh"
#include "harness/result_cache.hh"

namespace tp::bench {

/** Options common to the figure benches. */
struct FigureOptions
{
    double scale = 0.125;
    double instrScale = 1.0;
    std::uint64_t seed = 42;
    std::vector<std::string> benchmarks; //!< empty = all 19
    std::size_t jobs = 1; //!< simulation worker threads (--jobs)
    /**
     * Where the figure's plans run (harness::executorFromCli):
     * in-process on --jobs threads with the --cache-dir and
     * --checkpoint-dir stores, or with --workers=N as a local
     * dispatch campaign — byte-identical deterministic output
     * either way. It also owns the --trace-out/--trace-stats
     * documents, which span every plan the figure runs.
     */
    std::unique_ptr<harness::Executor> executor;
    /** Replay this serialized plan instead of the built one. */
    std::string planFile;
    /** Serialize the plan about to run to this path. */
    std::string savePlanFile;
    /**
     * Adaptive sampling (--target-error): when > 0, error/speedup
     * figures replace their figure-default sampling policy with
     * SamplingParams::adaptive(targetError) and append a
     * per-run sampling-diagnostics table. 0 = figure default.
     */
    double targetError = 0.0;
};

/** Whether a figure driver supports --plan/--save-plan. */
enum class PlanCli : std::uint8_t { None, Supported };

/**
 * Validate `--benchmarks` names against the workload registry up
 * front, so a typo fails with the list of valid names instead of
 * aborting the batch after minutes of simulation.
 */
inline void
validateBenchmarks(const std::vector<std::string> &names)
{
    std::string unknown;
    for (const std::string &name : names) {
        if (work::findWorkload(name) == nullptr)
            unknown += (unknown.empty() ? "" : ", ") + name;
    }
    if (unknown.empty())
        return;
    std::string valid;
    for (const work::WorkloadInfo &w : work::allWorkloads())
        valid += (valid.empty() ? "" : ", ") + w.name;
    fatal("unknown benchmark(s): %s; valid names: %s",
          unknown.c_str(), valid.c_str());
}

/**
 * Parse the common CLI surface of a figure bench: every figure
 * driver fans its simulations over BatchRunner, so all of them take
 * `--jobs` and the `--cache-dir`/`--cache` result-cache options;
 * single-batch figures additionally take `--plan`/`--save-plan`.
 */
inline FigureOptions
parseFigureOptions(int argc, char **argv,
                   PlanCli plan = PlanCli::Supported)
{
    std::vector<CliOption> options = {
        {"scale", "multiplier on the paper's task-instance counts "
                  "(default 0.125)"},
        {"instr-scale",
         "multiplier on per-task dynamic instruction counts "
         "(default 1.0)"},
        {"seed", "master workload-generation seed (default 42)"},
        {"benchmarks",
         "comma-separated workload names (default: all 19)"},
        jobsCliOption(),
        workersCliOption(),
        maxRetriesCliOption(),
        cacheDirCliOption(),
        cacheModeCliOption(),
        checkpointDirCliOption(),
        targetErrorCliOption(),
        traceOutCliOption(),
        traceStatsCliOption(),
        faultPlanCliOption(),
    };
    if (plan == PlanCli::Supported) {
        options.push_back(
            {"plan", "replay a serialized experiment plan instead "
                     "of building one from the options above"});
        options.push_back(
            {"save-plan",
             "serialize the experiment plan to this file before "
             "running it"});
    }
    const CliArgs args(argc, argv, options);
    FigureOptions o;
    // Range-checked parses: a fat-fingered scale cannot silently
    // run a million-fold workload (or an empty one).
    o.scale = args.getDoubleIn("scale", o.scale, 1e-6, 1e6);
    o.instrScale =
        args.getDoubleIn("instr-scale", o.instrScale, 1e-6, 1e6);
    o.seed = args.getUint("seed", o.seed);
    o.benchmarks = args.getList("benchmarks", {});
    validateBenchmarks(o.benchmarks);
    o.jobs = jobsFlag(args, o.jobs);
    o.executor = harness::executorFromCli(args);
    if (plan == PlanCli::Supported) {
        o.planFile = args.getString("plan", "");
        o.savePlanFile = args.getString("save-plan", "");
    }
    o.targetError = targetErrorFlag(args);
    return o;
}

/** @return the selected workload names (default: all of Table I). */
inline std::vector<std::string>
selectedWorkloads(const FigureOptions &o)
{
    if (!o.benchmarks.empty())
        return o.benchmarks;
    std::vector<std::string> names;
    for (const work::WorkloadInfo &w : work::allWorkloads())
        names.push_back(w.name);
    return names;
}

/** @return WorkloadParams assembled from the figure options. */
inline work::WorkloadParams
figureWorkloadParams(const FigureOptions &opts)
{
    work::WorkloadParams wp;
    wp.scale = opts.scale;
    wp.instrScale = opts.instrScale;
    wp.seed = opts.seed;
    return wp;
}

/**
 * Apply `--plan`/`--save-plan` to the plan a figure driver built:
 * with `--plan`, the serialized plan replaces the built one (its
 * labels must match job for job, because the figure's report code
 * assumes the driver's submission order — pass the same figure
 * options used when saving); with `--save-plan`, the plan about to
 * run is serialized first.
 */
inline harness::ExperimentPlan
applyPlanOptions(const FigureOptions &opts,
                 harness::ExperimentPlan built)
{
    if (!opts.planFile.empty()) {
        harness::ExperimentPlan loaded =
            harness::deserializePlan(opts.planFile);
        if (loaded.jobs.size() != built.jobs.size())
            fatal("plan '%s' has %zu jobs, this figure expects %zu "
                  "(rerun with the options used when saving)",
                  opts.planFile.c_str(), loaded.jobs.size(),
                  built.jobs.size());
        for (std::size_t i = 0; i < loaded.jobs.size(); ++i) {
            if (loaded.jobs[i].label != built.jobs[i].label)
                fatal("plan '%s' job %zu is '%s', this figure "
                      "expects '%s' (rerun with the options used "
                      "when saving)",
                      opts.planFile.c_str(), i,
                      loaded.jobs[i].label.c_str(),
                      built.jobs[i].label.c_str());
        }
        // A figure's report titles and dereferences are only valid
        // for the exact plan this driver builds, and figure pairs
        // differ in fields labels don't show (sampling policy,
        // noise, architecture) — so require full equality, not just
        // matching labels. Plans edited or built elsewhere run
        // through the generic replay_plan instead.
        const std::string loadedDigest = harness::planDigest(loaded);
        const std::string builtDigest = harness::planDigest(built);
        if (loadedDigest != builtDigest)
            fatal("plan '%s' does not match the plan this driver "
                  "builds from its options (digest %s vs %s) — was "
                  "it saved by a different figure or edited? Replay "
                  "modified plans with replay_plan.",
                  opts.planFile.c_str(), loadedDigest.c_str(),
                  builtDigest.c_str());
        harness::progress(strprintf(
            "replaying plan %s (%zu jobs, digest %s)",
            opts.planFile.c_str(), loaded.jobs.size(),
            loadedDigest.c_str()));
        built = std::move(loaded);
    }
    if (!opts.savePlanFile.empty()) {
        harness::serializePlan(built, opts.savePlanFile);
        harness::progress(strprintf(
            "plan written to %s (%zu jobs, digest %s)",
            opts.savePlanFile.c_str(), built.jobs.size(),
            harness::planDigest(built).c_str()));
    }
    return built;
}

/**
 * One IPC-variation boxplot figure (Figs. 1 and 5 of the paper):
 * one detailed run per benchmark with task records, normalized
 * per-type IPC deviations, and the "box in +-5%" classification.
 * Results stream through a FunctionSink — each (potentially huge)
 * task-record vector is reduced to one boxplot row and dropped, so
 * memory stays flat in the benchmark count.
 *
 * @param noise        noise model of the runs (enabled for Fig. 1's
 *                     native emulation, disabled for Fig. 5)
 * @param summarySuffix appended to the "N of M within +-5%" line
 */
inline void
runIpcVariationFigure(const std::string &title,
                      const sim::NoiseConfig &noise,
                      const std::string &summarySuffix,
                      const FigureOptions &opts)
{
    const work::WorkloadParams wp = figureWorkloadParams(opts);

    TextTable table(title);
    table.setHeader({"benchmark", "q1", "median", "q3", "p5", "p95",
                     "box in +-5%"});

    // One detailed run per benchmark; workers generate their traces
    // themselves, and cached references replay bit-identically
    // (task records included).
    harness::ExperimentPlan plan;
    plan.deriveSeeds = false;
    for (const std::string &name : selectedWorkloads(opts)) {
        harness::JobSpec j;
        j.label = name;
        j.workload = name;
        j.workloadParams = wp;
        j.spec.arch = cpu::highPerformanceConfig();
        j.spec.threads = 8;
        j.spec.recordTasks = true;
        j.spec.noise = noise;
        j.mode = harness::BatchMode::Reference;
        plan.jobs.push_back(j);
    }
    plan = applyPlanOptions(opts, std::move(plan));

    int within = 0, total = 0;
    harness::FunctionSink sink([&](harness::BatchResult &&r) {
        const std::vector<double> dev =
            harness::normalizedIpcDeviations(*r.reference);
        const BoxplotStats b = boxplot(dev);
        // The paper's "box in +-5%" claim tracks the solid box
        // (first to third quartile); its own whiskers exceed +-5%
        // for several regular benchmarks.
        const bool in_band = b.q1 >= -5.0 && b.q3 <= 5.0;
        within += in_band ? 1 : 0;
        ++total;
        table.addRow({r.label, fmtDouble(b.q1, 1),
                      fmtDouble(b.median, 1), fmtDouble(b.q3, 1),
                      fmtDouble(b.whiskerLo, 1),
                      fmtDouble(b.whiskerHi, 1),
                      in_band ? "yes" : "NO"});
    });
    opts.executor->run(plan, sink);
    opts.executor->reportCacheStats();

    table.print();
    std::printf("\n%d of %d benchmarks within +-5%%%s\n", within,
                total, summarySuffix.c_str());
}

/**
 * The sampling policy an error/speedup figure actually runs:
 * `--target-error` overrides the figure default with the adaptive
 * policy at that target.
 */
inline sampling::SamplingParams
figureSamplingParams(const FigureOptions &opts,
                     const sampling::SamplingParams &figure_default)
{
    return opts.targetError > 0.0
               ? sampling::SamplingParams::adaptive(opts.targetError)
               : figure_default;
}

/** One error/speedup figure (Figs. 7-10 of the paper). */
inline void
runErrorSpeedupFigure(const std::string &title,
                      const cpu::ArchConfig &arch,
                      const std::vector<std::uint32_t> &thread_counts,
                      const sampling::SamplingParams &figure_params,
                      const FigureOptions &opts)
{
    const work::WorkloadParams wp = figureWorkloadParams(opts);
    const sampling::SamplingParams params =
        figureSamplingParams(opts, figure_params);
    const bool adaptive = params.adaptiveEnabled();

    TextTable errors(title + " — absolute execution-time error [%]");
    TextTable speedups(title + " — simulation speedup (wall clock)");
    std::vector<std::string> header = {"benchmark"};
    for (auto t : thread_counts)
        header.push_back(std::to_string(t) + "t");
    errors.setHeader(header);
    speedups.setHeader(header);

    // One Both-mode job per (workload, thread count). Jobs of one
    // workload name identical (name, params), so BatchRunner
    // realizes each trace once and shares it.
    const std::vector<std::string> names = selectedWorkloads(opts);
    harness::ExperimentPlan plan;
    plan.deriveSeeds = false;
    for (const std::string &name : names) {
        for (std::uint32_t threads : thread_counts) {
            harness::JobSpec j;
            j.label = name + " @" + std::to_string(threads) + "t";
            j.workload = name;
            j.workloadParams = wp;
            j.spec.arch = arch;
            j.spec.threads = threads;
            j.sampling = params;
            j.mode = harness::BatchMode::Both;
            plan.jobs.push_back(j);
        }
    }
    plan = applyPlanOptions(opts, std::move(plan));

    // Stream rows straight into the two figure tables: jobs arrive
    // in (benchmark, thread count) submission order, so each
    // benchmark's row completes after thread_counts.size() results.
    std::map<std::uint32_t, std::vector<double>> all_err, all_spd;
    std::vector<std::string> erow, srow;
    TextTable diag(title + " — adaptive sampling diagnostics");
    diag.setHeader({"run", "target", "reported CI", "meas. err",
                    "stop cycle", "realloc", "det. samples",
                    "detail frac", "stopped by"});
    harness::FunctionSink sink([&](harness::BatchResult &&r) {
        const std::size_t col = r.index % thread_counts.size();
        if (col == 0) {
            erow = {names[r.index / thread_counts.size()]};
            srow = erow;
        }
        const harness::ErrorSpeedup &es = *r.comparison;
        erow.push_back(fmtDouble(es.errorPct, 2));
        srow.push_back(fmtDouble(es.wallSpeedup, 1));
        all_err[thread_counts[col]].push_back(es.errorPct);
        all_spd[thread_counts[col]].push_back(es.wallSpeedup);
        if (col + 1 == thread_counts.size()) {
            errors.addRow(erow);
            speedups.addRow(srow);
        }
        if (adaptive && r.sampled) {
            const sampling::AdaptiveDiagnostics &d =
                r.sampled->adaptive;
            std::uint64_t samples = 0;
            for (std::uint64_t n : d.strataSamples)
                samples += n;
            diag.addRow(
                {r.label, fmtDouble(100.0 * d.targetError, 2) + "%",
                 sampling::reportedCi(d),
                 fmtDouble(es.errorPct, 2) + "%",
                 std::to_string(d.stopCycle),
                 std::to_string(d.allocationRounds),
                 std::to_string(samples),
                 fmtDouble(es.detailFraction, 3),
                 sampling::stopReason(d)});
        }
    });
    opts.executor->run(plan, sink);
    opts.executor->reportCacheStats();

    std::vector<std::string> eavg = {"average"};
    std::vector<std::string> savg = {"average"};
    std::vector<std::string> emax = {"max"};
    for (std::uint32_t threads : thread_counts) {
        eavg.push_back(fmtDouble(mean(all_err[threads]), 2));
        savg.push_back(fmtDouble(mean(all_spd[threads]), 1));
        emax.push_back(fmtDouble(maxOf(all_err[threads]), 2));
    }
    errors.addSeparator();
    errors.addRow(eavg);
    errors.addRow(emax);
    speedups.addSeparator();
    speedups.addRow(savg);

    errors.print();
    std::printf("\n");
    speedups.print();
    if (adaptive) {
        std::printf("\n");
        diag.print();
    }
    if (opts.jobs > 1) {
        std::printf("note: speedups are host wall-clock ratios; with "
                    "--jobs=%zu concurrent simulations contend for "
                    "cores and distort them — rerun with --jobs=1 "
                    "for quotable speedup numbers (error columns are "
                    "unaffected).\n",
                    opts.jobs);
    }
}

} // namespace tp::bench

#endif // TP_BENCH_BENCH_COMMON_HH
