/**
 * @file
 * Per-layer measurements of traced runs, taken from outside the
 * program: an engine observer that stamps the host clock, isolation
 * replays of the detailed hot path, and the metrics derived from
 * simulated results.
 *
 * Every per-layer metric is named by the module it measures. A
 * workload that bypasses a module reports 0 for its metrics, which is
 * also the prediction for that workload when only the module changes.
 */

#ifndef TPBENCH_LAYERS_HH
#define TPBENCH_LAYERS_HH

#include <optional>
#include <string>
#include <vector>

#include "cpu/arch_config.hh"
#include "harness/experiment.hh"
#include "measure.hh"
#include "sim/trace_observer.hh"
#include "trace/trace.hh"

namespace tpbench {

/** Name and unit of one per-layer metric. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric a traced run reports, in report order. */
const std::vector<LayerMetric> &layerMetrics();

/** Set a per-layer metric with its declared unit; panics if undeclared. */
void setLayer(Metrics &m, const std::string &name, double value);

/**
 * Stamps the host clock at the engine's run-level callbacks of one
 * simulation: construction (call to onRunBegin), checkpoint restore
 * (onRunBegin to the first phase, when restoring), each sampling
 * phase, and checkpoint state capture (a sample boundary to the
 * record hook, when capturing). Construct it immediately before the
 * call it observes, inside that call's span.
 */
class PhaseClock final : public tp::sim::TraceObserver
{
  public:
    /**
     * @param restoring the run restores a checkpoint
     * @param capturing the run records checkpoints; the record hook
     *                  must call captured() first
     */
    PhaseClock(SpanLog &log, std::int64_t job, bool restoring = false,
               bool capturing = false);

    PhaseClock(const PhaseClock &) = delete;
    PhaseClock &operator=(const PhaseClock &) = delete;

    void onRunBegin(std::uint32_t cores,
                    const std::vector<std::string> &types) override;
    void onPhaseChange(tp::Cycles at, std::uint8_t phase) override;
    void onSampleBoundary(std::uint64_t boundary, tp::Cycles at,
                          const tp::mem::HierarchyStats &mem) override;
    void onRunEnd(tp::Cycles totalCycles) override;

    /** The record hook was entered: state capture is over. */
    void captured();

  private:
    void closeOpen();

    SpanLog &log_;
    std::int64_t job_;
    bool restoring_;
    bool capturing_;
    /** The open construct, restore or phase span. */
    std::optional<std::size_t> open_;
    std::optional<std::size_t> capture_;
};

/**
 * Replays the leading task instances of `traces` (about `budget`
 * instructions in all, split evenly across traces) through each
 * detailed hot-path layer in isolation, one span per trace and layer:
 * InstrStream::fillBlock; RobCore::beginTask/step(1024) on a fresh
 * one-core Hierarchy; and the Load/Store addresses those streams
 * produce through a fresh Hierarchy::access. The three replays are
 * repeated, interleaved, and their medians set trace.*, cpu.* and
 * memory.access_ns. These are isolation replays, not in-engine self
 * times.
 */
void probeHotPath(const std::vector<tp::trace::TaskTrace> &traces,
                  const tp::cpu::ArchConfig &arch,
                  std::uint64_t budget, SpanLog &log, Metrics &m);

/** One simulated job of a traced pass. */
struct JobOutcome
{
    /** "detailed", "lazy", "periodic" or "adaptive". */
    std::string policy;
    /** The run's result (the reference run for "detailed"). */
    tp::sim::SimResult result;
    /** Sampling diagnostics of sampled jobs. */
    std::optional<tp::harness::SampledOutcome> sampled;
    /** Error and speedup against the job's detailed reference. */
    std::optional<tp::harness::ErrorSpeedup> vsReference;
};

/** @return the policy name of a sampled job's parameters. */
std::string policyName(const tp::sampling::SamplingParams &p);

/**
 * Sets memory.* (miss rates and counts, summed over every run),
 * runtime.avg_active_cores (mean over runs) and sampling.* (detail
 * fraction per policy, resamples, phase changes, budget stops and,
 * where references exist, error, speedup and adaptive CI coverage).
 */
void simulatedLayers(const std::vector<JobOutcome> &jobs, Metrics &m);

/**
 * Sets sim.construct_s, sim.detailed_phase_s, sim.fast_phase_s and
 * the per-instruction host costs from the PhaseClock spans in `log`.
 * `detailedInsts`/`fastInsts` count the instructions those runs
 * simulated; sim.engine_self_ns_per_inst subtracts the isolated
 * cpu.step_ns_per_inst already in `m`.
 */
void engineLayers(const SpanLog &log, double detailedInsts,
                  double fastInsts, Metrics &m);

/**
 * Sets harness.batch.*: job count, utilization (summed job seconds
 * over wall times `lanes`) and the job-time median and 90th
 * percentile.
 */
void batchLayer(const std::vector<double> &jobSeconds, double wall,
                std::size_t lanes, Metrics &m);

/** @return total bytes of the regular files under `dir`. */
double directoryBytes(const std::string &dir);

} // namespace tpbench

#endif // TPBENCH_LAYERS_HH
