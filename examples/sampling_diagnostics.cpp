/**
 * @file
 * Sampling diagnostics: why does TaskPoint's prediction deviate?
 *
 *   ./sampling_diagnostics [--workload=canneal] [--threads=8]
 *                          [--arch=highperf] [--scale=0.125]
 *
 * Runs the detailed reference and a lazy-sampled simulation with
 * per-task records and prints, per task type: the reference mean IPC
 * over all instances, the reference mean over the first instances
 * (what TaskPoint samples), and the IPC the sampled run applied in
 * fast mode. Large gaps between the first-instances mean and the
 * overall mean indicate cold-start (warmup) bias; gaps between the
 * sampled-run prediction and the reference indicate contention or
 * phase effects.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/statistics.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "sampling/taskpoint.hh"

using namespace tp;

namespace {

/**
 * Print each type's mean IPC in 10 buckets of completion order (the
 * order of `series`). A flat row means early samples represent the
 * type's whole run.
 */
void
printIpcTimeline(
    const std::string &title, const trace::TaskTrace &t,
    const std::map<TaskTypeId, std::vector<double>> &series)
{
    TextTable timeline(title);
    std::vector<std::string> hdr = {"type"};
    for (int bkt = 0; bkt < 10; ++bkt)
        hdr.push_back(strprintf("b%d", bkt));
    timeline.setHeader(hdr);
    for (const auto &[type, ipcs] : series) {
        std::vector<std::string> row = {t.type(type).name};
        const std::size_t n = ipcs.size();
        for (int bkt = 0; bkt < 10; ++bkt) {
            const std::size_t lo = n * bkt / 10;
            const std::size_t hi =
                std::max<std::size_t>(n * (bkt + 1) / 10, lo + 1);
            std::vector<double> slice(
                ipcs.begin() + static_cast<long>(lo),
                ipcs.begin() + static_cast<long>(std::min(hi, n)));
            row.push_back(
                slice.empty() ? "-" : fmtDouble(mean(slice), 3));
        }
        timeline.addRow(row);
    }
    timeline.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(
        argc, argv,
        {{"workload", "workload to diagnose (default canneal)"},
         {"threads", "simulated thread count (default 8)"},
         {"arch",
          "architecture: highperf or lowpower (default highperf)"},
         {"scale",
          "task-instance count multiplier (default 0.125)"},
         {"dump",
          "also dump the first N sampled-run task records "
          "(default 48)"},
         targetErrorCliOption()});
    const std::string name = args.getString("workload", "canneal");
    const auto threads =
        static_cast<std::uint32_t>(args.getUint("threads", 8));

    work::WorkloadParams wp;
    wp.scale = args.getDouble("scale", 0.125);
    const trace::TaskTrace t = work::generateWorkload(name, wp);

    harness::RunSpec spec;
    spec.arch =
        cpu::archConfigByName(args.getString("arch", "highperf"));
    spec.threads = threads;
    spec.recordTasks = true;

    const double targetError = targetErrorFlag(args);
    const sampling::SamplingParams params =
        targetError > 0.0
            ? sampling::SamplingParams::adaptive(targetError)
            : sampling::SamplingParams::lazy();

    const sim::SimResult ref = harness::runDetailed(t, spec);
    const harness::SampledOutcome sam =
        harness::runSampled(t, spec, params);
    const harness::ErrorSpeedup es = harness::compare(ref, sam.result);

    // Reference IPC per type: overall and "early" (first 8 detailed
    // completions of that type — roughly what sampling sees).
    std::map<TaskTypeId, std::vector<double>> ref_all, ref_early;
    for (const sim::TaskRecord &r : ref.tasks) {
        ref_all[r.type].push_back(r.ipc);
        if (ref_early[r.type].size() < 8)
            ref_early[r.type].push_back(r.ipc);
    }
    // Sampled-run measurements and applied predictions per type.
    std::map<TaskTypeId, std::vector<double>> sam_detailed, sam_fast;
    for (const sim::TaskRecord &r : sam.result.tasks) {
        if (r.mode == sim::SimMode::Detailed)
            sam_detailed[r.type].push_back(r.ipc);
        else
            sam_fast[r.type].push_back(r.ipc);
    }

    std::printf("%s, %u threads: error %.2f%%, speedup %.1fx\n"
                "tasks: %llu warmup, %llu sample, %llu fast; "
                "resamples: %llu (period %llu, new-type %llu, "
                "concurrency %llu)\n\n",
                t.name().c_str(), threads, es.errorPct, es.wallSpeedup,
                static_cast<unsigned long long>(
                    sam.stats.warmupTasks),
                static_cast<unsigned long long>(
                    sam.stats.sampleTasks),
                static_cast<unsigned long long>(sam.stats.fastTasks),
                static_cast<unsigned long long>(sam.stats.resamples),
                static_cast<unsigned long long>(
                    sam.stats.resamplesPeriod),
                static_cast<unsigned long long>(
                    sam.stats.resamplesNewType),
                static_cast<unsigned long long>(
                    sam.stats.resamplesConcurrency));

    printIpcTimeline("reference IPC timeline (10 buckets, "
                     "completion order)",
                     t, ref_all);

    std::printf("phase log (%llu changes): ",
                static_cast<unsigned long long>(sam.stats.phaseChanges));
    for (std::size_t i = 0;
         i < std::min<std::size_t>(sam.phaseLog.size(), 24); ++i) {
        std::printf("%s@%llu ",
                    sampling::toString(sam.phaseLog[i].to),
                    static_cast<unsigned long long>(
                        sam.phaseLog[i].at));
    }
    if (sam.adaptive.enabled) {
        const sampling::AdaptiveDiagnostics &d = sam.adaptive;
        std::printf("\nadaptive: target %.2f%%, reported CI %s, "
                    "stop cycle %llu, realloc rounds %llu, stopped "
                    "by %s\nper-stratum detailed samples:",
                    100.0 * d.targetError,
                    sampling::reportedCi(d).c_str(),
                    static_cast<unsigned long long>(d.stopCycle),
                    static_cast<unsigned long long>(
                        d.allocationRounds),
                    sampling::stopReason(d));
        for (std::size_t ty = 0; ty < d.strataSamples.size(); ++ty) {
            std::printf(" %s=%llu", t.type(ty).name.c_str(),
                        static_cast<unsigned long long>(
                            d.strataSamples[ty]));
        }
        std::printf("\n");
    }
    std::printf("\nvalid-history fill at end:");
    for (std::size_t ty = 0; ty < sam.validHistSizes.size(); ++ty) {
        std::printf(" %s=%zu", t.type(ty).name.c_str(),
                    sam.validHistSizes[ty]);
    }
    std::printf("\n\n");

    printIpcTimeline("sampled-run applied fast IPC timeline", t,
                     sam_fast);

    if (args.has("dump")) {
        const auto n = static_cast<std::size_t>(
            args.getUint("dump", 48));
        std::printf("first %zu sampled-run task records "
                    "(completion order):\n", n);
        for (std::size_t i = 0;
             i < std::min(n, sam.result.tasks.size()); ++i) {
            const sim::TaskRecord &r = sam.result.tasks[i];
            std::printf("  id=%5llu type=%u(%s) thr=%2u mode=%s "
                        "insts=%7llu start=%9llu dur=%8llu "
                        "ipc=%.3f\n",
                        static_cast<unsigned long long>(r.id), r.type,
                        t.type(r.type).name.c_str(), r.thread,
                        r.mode == sim::SimMode::Detailed ? "det "
                                                         : "fast",
                        static_cast<unsigned long long>(r.insts),
                        static_cast<unsigned long long>(r.start),
                        static_cast<unsigned long long>(
                            r.end - r.start),
                        r.ipc);
        }
        std::printf("\n");
    }

    TextTable table("per-type IPC diagnosis");
    table.setHeader({"type", "#inst", "ref IPC", "ref early",
                     "sampled meas", "applied fast", "#fast"});
    for (const auto &[type, ipcs] : ref_all) {
        const auto &tt = t.type(type);
        const auto &early_v = ref_early[type];
        const auto &meas_v = sam_detailed[type];
        const auto &fast_v = sam_fast[type];
        const auto cell = [](const std::vector<double> &xs) {
            return xs.empty() ? std::string("-")
                              : fmtDouble(mean(xs), 3);
        };
        table.addRow({tt.name, std::to_string(ipcs.size()),
                      cell(ipcs), cell(early_v), cell(meas_v),
                      cell(fast_v),
                      std::to_string(fast_v.size())});
    }
    table.print();
    return 0;
}
