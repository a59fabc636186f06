#include "layers.hh"

#include <algorithm>
#include <filesystem>
#include <map>

#include "common/logging.hh"
#include "common/statistics.hh"
#include "cpu/rob_core.hh"
#include "memory/hierarchy.hh"
#include "trace/instr_stream.hh"

namespace tpbench {

namespace fs = std::filesystem;
using namespace tp;

namespace {

/** Interleaved repetitions of each isolation probe. */
constexpr int kProbeRepeats = 3;

} // namespace

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> metrics = {
        {"workloads.generate_s", "s"},
        {"workloads.tasks", "count"},
        {"trace.fill_ns_per_inst", "ns/inst"},
        {"cpu.step_ns_per_inst", "ns/inst"},
        {"cpu.self_ns_per_inst", "ns/inst"},
        {"memory.access_ns", "ns"},
        {"memory.l1_miss_rate", "ratio"},
        {"memory.l2_miss_rate", "ratio"},
        {"memory.l3_miss_rate", "ratio"},
        {"memory.dram_requests", "count"},
        {"memory.coherence_invalidations", "count"},
        {"runtime.avg_active_cores", "cores"},
        {"sim.detailed_ns_per_inst", "ns/inst"},
        {"sim.engine_self_ns_per_inst", "ns/inst"},
        {"sim.construct_s", "s"},
        {"sim.detailed_phase_s", "s"},
        {"sim.fast_phase_s", "s"},
        {"sim.fast_ns_per_inst", "ns/inst"},
        {"sim.checkpoint.serialize_s", "s"},
        {"sim.checkpoint.deserialize_s", "s"},
        {"sim.checkpoint.bytes_per_boundary", "MB"},
        {"sim.observer_overhead_pct", "%"},
        {"sampling.detail_fraction.lazy", "ratio"},
        {"sampling.detail_fraction.periodic", "ratio"},
        {"sampling.detail_fraction.adaptive", "ratio"},
        {"sampling.resamples", "count"},
        {"sampling.phase_changes", "count"},
        {"sampling.budget_stopped", "count"},
        {"sampling.error_pct_mean.lazy", "%"},
        {"sampling.error_pct_mean.adaptive", "%"},
        {"sampling.error_pct_max", "%"},
        {"sampling.speedup_median", "x"},
        {"sampling.ci_cover_frac", "ratio"},
        {"harness.batch.jobs", "count"},
        {"harness.batch.utilization", "ratio"},
        {"harness.batch.job_s_p50", "s"},
        {"harness.batch.job_s_p90", "s"},
        {"harness.cache.digest_s", "s"},
        {"harness.cache.lookup_s", "s"},
        {"harness.cache.store_s", "s"},
        {"harness.cache.bytes", "bytes"},
        {"harness.cache.warm_rerun_s", "s"},
        {"harness.cache.warm_hit_frac", "ratio"},
        {"harness.checkpoint.record_s", "s"},
        {"harness.checkpoint.slice_s", "s"},
        {"harness.checkpoint.store_s", "s"},
        {"harness.checkpoint.load_s", "s"},
        {"harness.checkpoint.slices", "count"},
        {"harness.checkpoint.mb", "MB"},
        {"harness.plan_shard.expand_s", "s"},
        {"harness.dispatch.wall_s", "s"},
        {"harness.dispatch.overhead_s", "s"},
        {"harness.dispatch.tasks", "count"},
        {"harness.dispatch.steal_tasks", "count"},
        {"harness.dispatch.stream_bytes", "bytes"},
        {"harness.workers.wall_s", "s"},
        {"harness.workers.overhead_s", "s"},
    };
    return metrics;
}

void
setLayer(Metrics &m, const std::string &name, double value)
{
    for (const LayerMetric &l : layerMetrics()) {
        if (name == l.name) {
            m.set(name, value, l.unit);
            return;
        }
    }
    panic("undeclared per-layer metric %s", name.c_str());
}

PhaseClock::PhaseClock(SpanLog &log, std::int64_t job, bool restoring,
                       bool capturing)
    : log_(log), job_(job), restoring_(restoring),
      capturing_(capturing)
{
    open_ = log_.open("sim.construct", job_);
}

void
PhaseClock::closeOpen()
{
    if (open_) {
        log_.close(*open_);
        open_.reset();
    }
}

void
PhaseClock::onRunBegin(std::uint32_t, const std::vector<std::string> &)
{
    closeOpen();
    if (restoring_)
        open_ = log_.open("sim.restore", job_);
}

void
PhaseClock::onPhaseChange(Cycles, std::uint8_t phase)
{
    closeOpen();
    open_ = log_.open(std::string("sim.phase.") + sim::phaseName(phase),
                      job_);
}

void
PhaseClock::onSampleBoundary(std::uint64_t, Cycles,
                             const mem::HierarchyStats &)
{
    if (capturing_)
        capture_ = log_.open("sim.checkpoint.capture", job_);
}

void
PhaseClock::captured()
{
    if (capture_) {
        log_.close(*capture_);
        capture_.reset();
    }
}

void
PhaseClock::onRunEnd(Cycles)
{
    closeOpen();
}

void
probeHotPath(const std::vector<trace::TaskTrace> &traces,
             const cpu::ArchConfig &arch, std::uint64_t budget,
             SpanLog &log, Metrics &m)
{
    struct Access
    {
        Addr addr;
        bool write;
    };
    /** One trace's leading instances and their memory operands. */
    struct Sample
    {
        const trace::TaskTrace *trace;
        std::size_t tasks = 0;
        std::vector<Access> accesses;
    };
    const std::uint64_t perTrace =
        std::max<std::uint64_t>(1, budget / std::max<std::size_t>(
                                               traces.size(), 1));
    std::vector<trace::Instr> block(256);
    std::vector<Sample> samples;
    double numAccesses = 0.0;
    for (const trace::TaskTrace &t : traces) {
        Sample s{&t, 0, {}};
        std::uint64_t picked = 0;
        while (s.tasks < t.size() && picked < perTrace)
            picked += t.instance(s.tasks++).instCount;
        for (std::size_t i = 0; i < s.tasks; ++i) {
            const trace::TaskInstance &inst = t.instance(i);
            trace::InstrStream stream(t.type(inst.type), inst);
            while (const InstCount got =
                       stream.fillBlock(block.data(), block.size())) {
                for (InstCount k = 0; k < got; ++k) {
                    const trace::Instr &in = block[k];
                    if (in.cls == trace::InstrClass::Load ||
                        in.cls == trace::InstrClass::Store)
                        s.accesses.push_back(
                            {in.addr,
                             in.cls == trace::InstrClass::Store});
                }
            }
        }
        numAccesses += double(s.accesses.size());
        samples.push_back(std::move(s));
    }

    // Interleaved repeats, so the medians damp bursts of host load.
    std::vector<double> fillNs;
    std::vector<double> stepNs;
    std::vector<double> accessNs;
    double insts = 0.0;
    for (int r = 0; r < kProbeRepeats; ++r) {
        double fill = 0.0;
        double step = 0.0;
        double access = 0.0;
        insts = 0.0;
        for (const Sample &s : samples) {
            const trace::TaskTrace &t = *s.trace;
            {
                SpanScope span(&log, "trace.fillBlock");
                for (std::size_t i = 0; i < s.tasks; ++i) {
                    const trace::TaskInstance &inst = t.instance(i);
                    trace::InstrStream stream(t.type(inst.type), inst);
                    while (const InstCount got = stream.fillBlock(
                               block.data(), block.size()))
                        insts += double(got);
                }
                fill += span.close();
            }
            {
                mem::Hierarchy hierarchy(arch.memory, 1);
                cpu::RobCore core(arch.core, hierarchy, 0);
                Cycles at = 0;
                SpanScope span(&log, "cpu.step");
                for (std::size_t i = 0; i < s.tasks; ++i) {
                    const trace::TaskInstance &inst = t.instance(i);
                    core.beginTask(t.type(inst.type), inst, at);
                    while (!core.step(1024)) {
                    }
                    at = core.finishTime();
                }
                step += span.close();
            }
            {
                mem::Hierarchy hierarchy(arch.memory, 1);
                Cycles at = 0;
                SpanScope span(&log, "memory.access");
                for (const Access &a : s.accesses)
                    at += hierarchy.access(0, a.addr, a.write, at)
                              .latency;
                access += span.close();
            }
        }
        fillNs.push_back(1e9 * ratio(fill, insts));
        stepNs.push_back(1e9 * ratio(step, insts));
        accessNs.push_back(1e9 * ratio(access, numAccesses));
    }
    const double fill = summarize(fillNs).median;
    const double step = summarize(stepNs).median;
    const double access = summarize(accessNs).median;
    setLayer(m, "trace.fill_ns_per_inst", fill);
    setLayer(m, "cpu.step_ns_per_inst", step);
    setLayer(m, "memory.access_ns", access);
    // Approximate: the step replay also pays for instruction
    // generation and memory accesses, measured separately above.
    setLayer(m, "cpu.self_ns_per_inst",
             step - fill - access * ratio(numAccesses, insts));
}

std::string
policyName(const sampling::SamplingParams &p)
{
    if (p.adaptiveEnabled())
        return "adaptive";
    return p.period == kInfinitePeriod ? "lazy" : "periodic";
}

void
simulatedLayers(const std::vector<JobOutcome> &jobs, Metrics &m)
{
    mem::HierarchyStats sum;
    double activeCores = 0.0;
    // Detailed and total instructions per sampling policy.
    std::map<std::string, std::pair<double, double>> detail;
    double resamples = 0.0;
    double phaseChanges = 0.0;
    double budgetStopped = 0.0;
    std::map<std::string, std::vector<double>> errors;
    double maxError = 0.0;
    std::vector<double> speedups;
    double adaptiveCompared = 0.0;
    double adaptiveCovered = 0.0;
    for (const JobOutcome &j : jobs) {
        const mem::HierarchyStats &s = j.result.memStats;
        sum.l1.accesses += s.l1.accesses;
        sum.l1.misses += s.l1.misses;
        sum.l2.accesses += s.l2.accesses;
        sum.l2.misses += s.l2.misses;
        sum.l3.accesses += s.l3.accesses;
        sum.l3.misses += s.l3.misses;
        sum.dramRequests += s.dramRequests;
        sum.coherenceInvalidations += s.coherenceInvalidations;
        activeCores += j.result.avgActiveCores;
        if (j.sampled) {
            std::pair<double, double> &d = detail[j.policy];
            d.first += double(j.result.detailedInsts);
            d.second += double(j.result.detailedInsts) +
                        double(j.result.fastInsts);
            resamples += double(j.sampled->stats.resamples);
            phaseChanges += double(j.sampled->stats.phaseChanges);
            budgetStopped += j.sampled->adaptive.budgetStopped;
        }
        if (j.vsReference) {
            const double err = j.vsReference->errorPct;
            errors[j.policy].push_back(err);
            maxError = std::max(maxError, err);
            speedups.push_back(j.vsReference->wallSpeedup);
            if (j.policy == "adaptive" && j.sampled) {
                adaptiveCompared += 1.0;
                adaptiveCovered +=
                    err <= 100.0 * j.sampled->adaptive.finalRelHalfWidth;
            }
        }
    }
    setLayer(m, "memory.l1_miss_rate",
             ratio(double(sum.l1.misses), double(sum.l1.accesses)));
    setLayer(m, "memory.l2_miss_rate",
             ratio(double(sum.l2.misses), double(sum.l2.accesses)));
    setLayer(m, "memory.l3_miss_rate",
             ratio(double(sum.l3.misses), double(sum.l3.accesses)));
    setLayer(m, "memory.dram_requests", double(sum.dramRequests));
    setLayer(m, "memory.coherence_invalidations",
             double(sum.coherenceInvalidations));
    setLayer(m, "runtime.avg_active_cores",
             ratio(activeCores, double(jobs.size())));
    for (const auto &[policy, d] : detail)
        setLayer(m, "sampling.detail_fraction." + policy,
                 ratio(d.first, d.second));
    setLayer(m, "sampling.resamples", resamples);
    setLayer(m, "sampling.phase_changes", phaseChanges);
    setLayer(m, "sampling.budget_stopped", budgetStopped);
    for (const auto &[policy, errs] : errors) {
        if (policy == "lazy" || policy == "adaptive")
            setLayer(m, "sampling.error_pct_mean." + policy,
                     mean(errs));
    }
    setLayer(m, "sampling.error_pct_max", maxError);
    if (!speedups.empty())
        setLayer(m, "sampling.speedup_median",
                 percentile(speedups, 50.0));
    setLayer(m, "sampling.ci_cover_frac",
             ratio(adaptiveCovered, adaptiveCompared));
}

void
engineLayers(const SpanLog &log, double detailedInsts, double fastInsts,
             Metrics &m)
{
    const double detailed = log.total("sim.phase.warmup") +
                            log.total("sim.phase.sampling") +
                            log.total("sim.phase.detailed");
    const double fast = log.total("sim.phase.fast-forward");
    setLayer(m, "sim.construct_s", log.total("sim.construct"));
    setLayer(m, "sim.detailed_phase_s", detailed);
    setLayer(m, "sim.fast_phase_s", fast);
    const double detailedNs = 1e9 * ratio(detailed, detailedInsts);
    setLayer(m, "sim.detailed_ns_per_inst", detailedNs);
    setLayer(m, "sim.engine_self_ns_per_inst",
             detailedInsts > 0.0
                 ? detailedNs - m.get("cpu.step_ns_per_inst")
                 : 0.0);
    setLayer(m, "sim.fast_ns_per_inst", 1e9 * ratio(fast, fastInsts));
}

void
batchLayer(const std::vector<double> &jobSeconds, double wall,
           std::size_t lanes, Metrics &m)
{
    double busy = 0.0;
    for (double s : jobSeconds)
        busy += s;
    setLayer(m, "harness.batch.jobs", double(jobSeconds.size()));
    setLayer(m, "harness.batch.utilization",
             ratio(busy, wall * double(lanes)));
    if (!jobSeconds.empty()) {
        setLayer(m, "harness.batch.job_s_p50",
                 percentile(jobSeconds, 50.0));
        setLayer(m, "harness.batch.job_s_p90",
                 percentile(jobSeconds, 90.0));
    }
}

double
directoryBytes(const std::string &dir)
{
    double bytes = 0.0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            bytes += double(it->file_size(ec));
    }
    return bytes;
}

} // namespace tpbench
