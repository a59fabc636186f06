#include "harness/executor.hh"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/cli.hh"
#include "common/logging.hh"
#include "harness/trace_report.hh"

namespace tp::harness {

Executor::Executor(BatchOptions batch,
                   std::optional<DispatchOptions> campaign,
                   std::unique_ptr<ResultCache> cache,
                   std::unique_ptr<ResultCache> checkpoints)
    : cache_(std::move(cache)), checkpoints_(std::move(checkpoints)),
      campaign_(std::move(campaign)), runner_(std::move(batch))
{
}

void
Executor::run(const ExperimentPlan &plan, ResultSink &sink) const
{
    if (campaign_)
        runDispatchCampaign(plan, *campaign_, sink);
    else
        runner_.run(plan, sink);
}

std::shared_ptr<const trace::TaskTrace>
Executor::resolveTrace(const JobSpec &job) const
{
    return runner_.resolveTrace(job);
}

void
Executor::reportCacheStats() const
{
    // A campaign's cache lives in its runners, which report it.
    if (cache_)
        progress(cache_->statsLine());
}

std::unique_ptr<Executor>
executorFromCli(const CliArgs &args)
{
    BatchOptions batch;
    batch.jobs = jobsFlag(args, 1);
    batch.progress = true;
    batch.collectTimelines =
        !args.getString(kTraceOutOption, "").empty() ||
        !args.getString(kTraceStatsOption, "").empty();

    const std::size_t runners =
        args.has("runners")
            ? static_cast<std::size_t>(
                  args.getUintIn("runners", 0, 0, 256))
            : workersFlag(args);
    if (runners == 0 && !args.has("spool")) {
        std::unique_ptr<ResultCache> cache = resultCacheFromCli(args);
        std::unique_ptr<ResultCache> checkpoints = openCheckpointDir(
            args.getString(kCheckpointDirOption, ""));
        batch.cache = cache.get();
        batch.checkpoints = checkpoints.get();
        return std::make_unique<Executor>(batch, std::nullopt,
                                          std::move(cache),
                                          std::move(checkpoints));
    }

    using std::chrono::milliseconds;
    DispatchOptions d;
    d.spoolDir = args.getString("spool", "");
    d.shards = static_cast<std::uint32_t>(
        args.getUintIn("shards", d.shards, 1, 9999));
    d.maxRetries = maxRetriesFlag(args, d.maxRetries);
    d.heartbeatInterval = milliseconds(args.getUintIn(
        "heartbeat", d.heartbeatInterval.count(), 10, 60000));
    d.deadAfter = milliseconds(
        args.getUintIn("dead-after", d.deadAfter.count(), 50, 600000));
    d.stalledAfter = milliseconds(args.getUintIn(
        "stalled-after", d.stalledAfter.count(), 0, 3600000));
    d.localRunners = runners;
    d.runnerBinary = args.getString("runner-bin", "");
    d.jobsPerRunner = batch.jobs;
    // Parsed here, not by the runners: a bad flag fails the campaign
    // before any runner spawns.
    if (const std::optional<ResultCacheOptions> cache =
            resultCacheOptionsFromCli(args)) {
        d.cacheDir = cache->dir;
        d.cacheMode = cache->mode == CacheMode::ReadOnly ? "ro" : "rw";
    }
    d.checkpointDir = args.getString(kCheckpointDirOption, "");
    d.progress = true;
    d.keepSpool = args.has("keep-spool");
    // Trace sinks live on the coordinator; the tasks only carry the
    // "record timelines" bit to the runners.
    d.collectTimelines = batch.collectTimelines;
    return std::make_unique<Executor>(batch, std::move(d));
}

void
runPlanReport(const std::string &title, const ExperimentPlan &plan,
              const Executor &executor, const CliArgs &args)
{
    TableSink table(title);
    StatsSink stats;
    std::vector<ResultSink *> sinks = {&table, &stats};
    std::vector<std::unique_ptr<ResultSink>> files;
    const auto tee = [&](std::unique_ptr<ResultSink> sink) {
        sinks.push_back(sink.get());
        files.push_back(std::move(sink));
    };
    if (const std::string f = args.getString("csv", ""); !f.empty())
        tee(std::make_unique<CsvSink>(f));
    if (const std::string f = args.getString("json", ""); !f.empty())
        tee(std::make_unique<JsonSink>(f));
    if (const std::string f = args.getString(kTraceOutOption, "");
        !f.empty())
        tee(std::make_unique<ChromeTraceSink>(f));
    if (const std::string f = args.getString(kTraceStatsOption, "");
        !f.empty())
        tee(std::make_unique<TimelineStatsSink>(f));
    TeeSink all(std::move(sinks));

    executor.run(plan, all);
    executor.reportCacheStats();

    if (stats.errorStats().count() > 0) {
        const RunningStats &err = stats.errorStats();
        std::printf("error over %zu comparisons: mean %.2f%%, "
                    "max %.2f%%\n",
                    err.count(), err.mean(), err.max());
    }
}

} // namespace tp::harness
