#include "harness/experiment.hh"

#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "common/statistics.hh"

namespace tp::harness {

sim::SimResult
runDetailed(const trace::TaskTrace &trace, const RunSpec &spec,
            sim::TraceObserver *observer)
{
    sim::Engine engine(spec, trace);
    engine.setObserver(observer);
    return engine.run(nullptr);
}

SampledOutcome
runSampled(const trace::TaskTrace &trace, const RunSpec &spec,
           const sampling::SamplingParams &params,
           const sim::CheckpointHooks *hooks,
           sim::TraceObserver *observer)
{
    RunSpec cfg = spec;
    cfg.noise.enabled = false; // sampling never runs under noise
    sim::Engine engine(cfg, trace);
    engine.setObserver(observer);
    sampling::TaskPointController controller(trace, params);
    SampledOutcome out;
    out.result = engine.run(&controller, hooks);
    out.stats = controller.stats();
    out.phaseLog = controller.phaseLog();
    for (const sampling::TypeProfile &p : controller.profiles())
        out.validHistSizes.push_back(p.valid().size());
    out.adaptive = controller.adaptiveDiagnostics();
    return out;
}

ErrorSpeedup
compare(const sim::SimResult &reference, const sim::SimResult &sampled)
{
    tp_assert(reference.totalCycles > 0);
    ErrorSpeedup es;
    es.errorPct = absPctError(double(sampled.totalCycles),
                              double(reference.totalCycles));
    es.wallSpeedup = sampled.wallSeconds > 0.0
                         ? reference.wallSeconds / sampled.wallSeconds
                         : 1.0;
    es.detailFraction = sampled.detailFraction();
    return es;
}

std::vector<double>
normalizedIpcDeviations(const sim::SimResult &result)
{
    if (result.tasks.empty())
        fatal("normalizedIpcDeviations needs recordTasks = true");

    // Group detailed-task IPCs by type.
    std::map<TaskTypeId, std::vector<double>> by_type;
    for (const sim::TaskRecord &r : result.tasks) {
        if (r.mode == sim::SimMode::Detailed && r.ipc > 0.0)
            by_type[r.type].push_back(r.ipc);
    }

    std::vector<double> deviations;
    for (const auto &[type, ipcs] : by_type) {
        const double m = mean(ipcs);
        if (m <= 0.0)
            continue;
        for (double v : normalizeToMeanPct(ipcs, m))
            deviations.push_back(v);
    }
    return deviations;
}

void
progress(const std::string &msg)
{
    std::fprintf(stderr, "  [bench] %s\n", msg.c_str());
    std::fflush(stderr);
}

} // namespace tp::harness
