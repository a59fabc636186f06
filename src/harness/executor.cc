#include "harness/executor.hh"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/cli.hh"
#include "common/logging.hh"
#include "harness/trace_report.hh"

namespace tp::harness {

namespace {

/** `batch` with timeline recording set to `on`. */
BatchOptions
recordingTimelines(BatchOptions batch, bool on)
{
    batch.collectTimelines = on;
    return batch;
}

/** The trace documents `--trace-out` and `--trace-stats` name. */
std::vector<std::unique_ptr<ResultSink>>
traceSinksFromCli(const CliArgs &args)
{
    std::vector<std::unique_ptr<ResultSink>> sinks;
    if (const std::string f = args.getString(kTraceOutOption, "");
        !f.empty())
        sinks.push_back(std::make_unique<ChromeTraceSink>(f));
    if (const std::string f = args.getString(kTraceStatsOption, "");
        !f.empty())
        sinks.push_back(std::make_unique<TimelineStatsSink>(f));
    return sinks;
}

} // namespace

/**
 * Forwards one run's results to the caller's sink, teeing a copy of
 * each into the executor's trace sinks — numbered run-wide — and
 * counting what was replayed from the cache. The trace sinks'
 * begin()/end() are the executor's, not the run's.
 */
class Executor::Tap final : public ResultSink
{
  public:
    Tap(Executor &executor, ResultSink &inner)
        : executor_(executor), inner_(inner)
    {}

    void
    begin(std::size_t totalJobs) override
    {
        inner_.begin(totalJobs);
    }

    void
    consume(BatchResult &&result) override
    {
        Executor &e = executor_;
        e.references_ += result.reference ? 1 : 0;
        e.cachedReferences_ += result.referenceFromCache ? 1 : 0;
        e.sampled_ += result.sampled ? 1 : 0;
        e.cachedSampled_ += result.sampledFromCache ? 1 : 0;
        for (const std::unique_ptr<ResultSink> &trace : e.traceSinks_) {
            BatchResult copy = result;
            copy.index += e.jobsRun_;
            trace->consume(std::move(copy));
        }
        inner_.consume(std::move(result));
    }

    void end() override { inner_.end(); }

  private:
    Executor &executor_;
    ResultSink &inner_;
};

Executor::Executor(BatchOptions batch,
                   std::optional<DispatchOptions> campaign,
                   std::unique_ptr<ResultCache> cache,
                   std::unique_ptr<ResultCache> checkpoints,
                   std::vector<std::unique_ptr<ResultSink>> traceSinks)
    : cache_(std::move(cache)), checkpoints_(std::move(checkpoints)),
      traceSinks_(std::move(traceSinks)),
      campaign_(std::move(campaign)),
      runner_(recordingTimelines(std::move(batch),
                                 !traceSinks_.empty()))
{
    // Trace sinks live here; the tasks only carry the "record
    // timelines" bit to the runners.
    if (campaign_)
        campaign_->collectTimelines = !traceSinks_.empty();
    for (const std::unique_ptr<ResultSink> &trace : traceSinks_)
        trace->begin(0);
}

Executor::~Executor()
{
    for (const std::unique_ptr<ResultSink> &trace : traceSinks_)
        trace->end();
}

void
Executor::run(const ExperimentPlan &plan, ResultSink &sink)
{
    Tap tap(*this, sink);
    if (campaign_)
        runDispatchCampaign(plan, *campaign_, tap);
    else
        runner_.run(plan, tap);
    jobsRun_ += plan.jobs.size();
}

std::vector<BatchResult>
Executor::run(const ExperimentPlan &plan)
{
    CollectingSink sink;
    run(plan, sink);
    return sink.take();
}

std::shared_ptr<const trace::TaskTrace>
Executor::resolveTrace(const JobSpec &job) const
{
    return runner_.resolveTrace(job);
}

void
Executor::reportCacheStats() const
{
    if (cache_)
        progress(cache_->statsLine());
    // A local runner's own summary ends up in the spool, which a
    // successful campaign deletes; the results carry what it did.
    if (campaign_ && !campaign_->cacheDir.empty())
        progress(strprintf("result cache '%s' (campaign): %zu of %zu "
                           "references and %zu of %zu sampled "
                           "outcomes replayed",
                           campaign_->cacheDir.c_str(),
                           cachedReferences_, references_,
                           cachedSampled_, sampled_));
}

std::unique_ptr<Executor>
executorFromCli(const CliArgs &args)
{
    BatchOptions batch;
    batch.jobs = jobsFlag(args, 1);
    batch.progress = true;

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
                                          std::move(checkpoints),
                                          traceSinksFromCli(args));
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
    return std::make_unique<Executor>(batch, std::move(d), nullptr,
                                      nullptr, traceSinksFromCli(args));
}

void
runPlanReport(const std::string &title, const ExperimentPlan &plan,
              Executor &executor, const CliArgs &args)
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
