/**
 * @file
 * Experiment harness: reference vs. sampled runs, error/speedup
 * metrics, and the per-type IPC variation statistic of Figs. 1/5.
 *
 * Every bench binary is a thin driver over these helpers, so the
 * metric definitions live in exactly one place:
 *
 *  - error%   = 100 * |T_sampled - T_detailed| / T_detailed
 *               (execution-time error, the paper's primary metric)
 *  - speedup  = host wall-clock of the detailed reference divided by
 *               wall-clock of the sampled simulation
 *  - detail fraction = instructions simulated in detailed mode /
 *               total instructions (machine-independent cost proxy)
 */

#ifndef TP_HARNESS_EXPERIMENT_HH
#define TP_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sampling/taskpoint.hh"
#include "sim/engine.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace tp::harness {

/** Common knobs of one simulation run (sim/engine.hh). */
using sim::RunSpec;

/**
 * Run the full-detailed reference simulation.
 * @param observer optional trace observer (sim/trace_observer.hh);
 *                 read-only, never perturbs the run
 */
sim::SimResult runDetailed(const trace::TaskTrace &trace,
                           const RunSpec &spec,
                           sim::TraceObserver *observer = nullptr);

/** Outcome of one TaskPoint-sampled simulation. */
struct SampledOutcome
{
    sim::SimResult result;
    sampling::SamplingStats stats;
    std::vector<sampling::PhaseChange> phaseLog;
    /** Valid-history fill level per type at simulation end. */
    std::vector<std::size_t> validHistSizes;
    /** Adaptive-policy diagnostics (defaults when disabled). */
    sampling::AdaptiveDiagnostics adaptive;
};

/**
 * Run a TaskPoint-sampled simulation.
 * @param hooks    optional warm-state checkpoint behaviour (record at
 *                 sample boundaries, restore, bounded slice); see
 *                 sim/checkpoint.hh
 * @param observer optional trace observer (sim/trace_observer.hh);
 *                 read-only, never perturbs the run
 */
SampledOutcome runSampled(const trace::TaskTrace &trace,
                          const RunSpec &spec,
                          const sampling::SamplingParams &params,
                          const sim::CheckpointHooks *hooks = nullptr,
                          sim::TraceObserver *observer = nullptr);

/** Error/speedup summary of sampled vs. reference. */
struct ErrorSpeedup
{
    double errorPct = 0.0;
    double wallSpeedup = 1.0;
    double detailFraction = 1.0;
};

/** Compute the summary (see file comment for definitions). */
ErrorSpeedup compare(const sim::SimResult &reference,
                     const sim::SimResult &sampled);

/**
 * Per-type-normalized IPC deviations in percent over all detailed
 * task records — the samples behind one box of Fig. 1 / Fig. 5.
 * Requires a run with recordTasks = true.
 */
std::vector<double>
normalizedIpcDeviations(const sim::SimResult &result);

/** Short progress line to stderr (benches are long-running). */
void progress(const std::string &msg);

} // namespace tp::harness

#endif // TP_HARNESS_EXPERIMENT_HH
