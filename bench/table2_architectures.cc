/**
 * @file
 * Paper Table II: architectural parameters of the high-performance
 * and low-power configurations used for model validation, as realized
 * by this reproduction (plus the DRAM/interconnect parameters the
 * paper leaves unspecified; see DESIGN.md).
 *
 * With `--validate` the driver additionally exercises both
 * configurations: a batch of reference + sampled simulations per
 * (architecture, thread count) runs across the worker pool
 * (`--jobs=N|auto`) and the per-run error/speedup summary is printed
 * below the parameter table.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "cpu/arch_config.hh"
#include "harness/executor.hh"

namespace {

std::string
cacheDesc(const tp::mem::CacheConfig &c, bool shared)
{
    return tp::strprintf("%llu KiB %s, %llu cycles, %u-way",
                         static_cast<unsigned long long>(
                             c.sizeBytes / 1024),
                         shared ? "shared" : "private",
                         static_cast<unsigned long long>(c.latency),
                         c.assoc);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tp;
    const CliArgs args(
        argc, argv,
        {{"validate",
          "additionally run reference + sampled simulations on both "
          "configurations and print the error/speedup summary"},
         {"workload",
          "workload to validate with (default cholesky)"},
         {"scale",
          "task-instance count multiplier for --validate "
          "(default 0.0625)"},
         {"threads",
          "validate a single thread count instead of 16 and 32"},
         jobsCliOption(), cacheDirCliOption(),
         cacheModeCliOption()});
    if (!args.has("validate")) {
        for (const char *opt :
             {"workload", "scale", "threads", kJobsOption,
              kCacheDirOption, kCacheModeOption}) {
            if (args.has(opt))
                fatal("--%s only applies together with --validate",
                      opt);
        }
    }
    const cpu::ArchConfig hp = cpu::highPerformanceConfig();
    const cpu::ArchConfig lp = cpu::lowPowerConfig();

    TextTable t("Table II: architectural parameters");
    t.setHeader({"Parameter", "High-perf.", "Low-power"});
    t.addRow({"Reorder-buffer size",
              std::to_string(hp.core.robSize),
              std::to_string(lp.core.robSize)});
    t.addRow({"Issue width", std::to_string(hp.core.issueWidth),
              std::to_string(lp.core.issueWidth)});
    t.addRow({"Commit rate", std::to_string(hp.core.commitWidth),
              std::to_string(lp.core.commitWidth)});
    t.addRow({"Cache line size",
              std::to_string(hp.memory.l1.lineBytes) + " B",
              std::to_string(lp.memory.l1.lineBytes) + " B"});
    t.addRow({"L1 cache", cacheDesc(hp.memory.l1, false),
              cacheDesc(lp.memory.l1, false)});
    t.addRow({"L2 cache",
              cacheDesc(hp.memory.l2, hp.memory.l2Shared),
              cacheDesc(lp.memory.l2, lp.memory.l2Shared)});
    t.addRow({"L3 cache",
              hp.memory.hasL3 ? cacheDesc(hp.memory.l3, true)
                              : "none",
              lp.memory.hasL3 ? cacheDesc(lp.memory.l3, true)
                              : "none"});
    t.addSeparator();
    t.addRow({"DRAM latency (model)",
              std::to_string(hp.memory.dram.latency) + " cycles",
              std::to_string(lp.memory.dram.latency) + " cycles"});
    t.addRow({"DRAM channels (model)",
              std::to_string(hp.memory.dram.channels),
              std::to_string(lp.memory.dram.channels)});
    t.addRow({"DRAM cycles/line (model)",
              std::to_string(hp.memory.dram.servicePeriod),
              std::to_string(lp.memory.dram.servicePeriod)});
    t.print();

    if (args.has("validate")) {
        const std::string name =
            args.getString("workload", "cholesky");
        work::WorkloadParams wp;
        wp.scale = args.getDouble("scale", 0.0625);

        harness::ExperimentPlan plan;
        plan.deriveSeeds = false;
        const struct
        {
            const char *label;
            const cpu::ArchConfig *arch;
        } archs[] = {{"high-perf", &hp}, {"low-power", &lp}};
        for (const auto &a : archs) {
            for (std::uint32_t threads :
                 args.has("threads")
                     ? std::vector<std::uint32_t>{
                           static_cast<std::uint32_t>(
                               args.getUint("threads", 16))}
                     : std::vector<std::uint32_t>{16, 32}) {
                harness::JobSpec j;
                j.label = strprintf("%s %s @%ut", a.label,
                                    name.c_str(), threads);
                j.workload = name;
                j.workloadParams = wp;
                j.spec.arch = *a.arch;
                j.spec.threads = threads;
                j.sampling = sampling::SamplingParams::lazy();
                j.mode = harness::BatchMode::Both;
                plan.jobs.push_back(j);
            }
        }

        const std::unique_ptr<harness::Executor> executor =
            harness::executorFromCli(args);

        // Stream results through composed sinks: the summary table
        // renders row by row while an O(1) stats sink accumulates
        // the error distribution — no result vector is ever held.
        std::printf("\n");
        harness::TableSink table(
            "model validation (lazy sampling vs detailed reference)",
            /*printAtEnd=*/false);
        harness::StatsSink stats;
        harness::TeeSink tee({&table, &stats});
        executor->run(plan, tee);
        executor->reportCacheStats();

        table.table().print();
        const RunningStats &err = stats.errorStats();
        std::printf("error over %zu runs: mean %.2f%%, max %.2f%%\n",
                    err.count(), err.mean(), err.max());
    }
    return 0;
}
