#include "harness/worker.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/binary_io.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "sim/result_io.hh"

namespace fs = std::filesystem;

namespace tp::harness {

namespace {

/** Honour kKillOnceEnvVar (see worker.hh). */
void
maybeKillSelfForTest()
{
    // After a successful publish, the first runner to claim the
    // marker file dies by SIGKILL, simulating a crashed machine
    // mid-task. O_EXCL makes the claim atomic across concurrently
    // publishing runners.
    const char *marker = std::getenv(kKillOnceEnvVar);
    if (marker == nullptr || *marker == '\0')
        return;
    const int fd =
        ::open(marker, O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return; // someone else claimed it (or the path is bad)
    ::close(fd);
    ::raise(SIGKILL);
}

/**
 * Remaps shard-local result indices to parent-plan indices before
 * forwarding: BatchRunner numbered the shard's jobs 0..n-1, but
 * reports and ordering downstream need the parent-plan index.
 */
class PlanIndexSink final : public ResultSink
{
  public:
    PlanIndexSink(const PlanShard &shard, ResultSink &inner)
        : shard_(shard), inner_(inner)
    {}

    void
    begin(std::size_t totalJobs) override
    {
        inner_.begin(totalJobs);
    }

    void
    consume(BatchResult &&r) override
    {
        tp_assert(r.index < shard_.jobs.size());
        r.index = static_cast<std::size_t>(
            shard_.jobs[r.index].planIndex);
        inner_.consume(std::move(r));
    }

    void
    end() override
    {
        inner_.end();
    }

  private:
    const PlanShard &shard_;
    ResultSink &inner_;
};

/**
 * Appends each finished result to the shard's single envelope
 * stream.
 *
 * Each append is one buffered write of a whole envelope followed by
 * a flush, so a crash between jobs leaves a clean stream boundary
 * and a crash mid-write leaves an incomplete tail — which the
 * tailing coordinator's EnvelopeStreamReader treats as
 * not-yet-published, never as a result.
 */
class StreamPublishingSink final : public ResultSink
{
  public:
    explicit StreamPublishingSink(const std::string &streamPath)
        : out_(streamPath, std::ios::binary), path_(streamPath)
    {
        // The coordinator guarantees a fresh stream name per task
        // (steal-generation-unique task names), so truncating here
        // can never discard results a tailer already consumed.
        if (!out_)
            fatal("worker: cannot create result stream '%s'",
                  path_.c_str());
    }

    void
    consume(BatchResult &&r) override
    {
        std::ostringstream payload(std::ios::binary);
        serializeBatchResult(r, payload);
        std::ostringstream framed(std::ios::binary);
        sim::writeEnvelope(framed, payload.str());

        const std::string bytes = framed.str();
        out_.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        out_.flush();
        if (!out_.good())
            fatal("worker: error appending to '%s'", path_.c_str());
        // The append just became durable — the boundary every
        // tailer's recovery story is written against. Injected data
        // faults damage the stream tail on disk (a truncated or
        // flipped envelope the reader must refuse); errno stands in
        // for the append itself failing like the fatal above; abort
        // kills this worker mid-shard and delay wedges it with the
        // stream silent (the stalled-stream watchdog's case).
        if (const fault::FaultRule *r =
                FAULT_CHECK("worker.stream.append")) {
            if (r->action.kind == fault::FaultKind::ErrnoFault)
                fatal("worker: injected %s appending to '%s' "
                      "(fault site worker.stream.append)",
                      fault::errnoToken(r->action.arg).c_str(),
                      path_.c_str());
            fault::corruptFile(*r, path_);
        }
        ++published_;
        maybeKillSelfForTest();
    }

    std::size_t published() const { return published_; }

  private:
    std::ofstream out_;
    std::string path_;
    std::size_t published_ = 0;
};

} // namespace

void
serializeBatchResult(const BatchResult &r, std::ostream &out)
{
    BinaryWriter w(out);
    w.pod<std::uint64_t>(r.index);
    w.str(r.label);
    writeBool(w, r.sampled.has_value());
    if (r.sampled)
        sim::serializeSampledOutcome(*r.sampled, out);
    writeBool(w, r.reference.has_value());
    if (r.reference)
        sim::serializeResult(*r.reference, out);
    writeBool(w, r.comparison.has_value());
    if (r.comparison) {
        w.pod(r.comparison->errorPct);
        w.pod(r.comparison->wallSpeedup);
        w.pod(r.comparison->detailFraction);
    }
    writeBool(w, r.referenceFromCache);
    writeBool(w, r.sampledFromCache);
    w.pod(r.hostSeconds);
    writeBool(w, r.timeline.has_value());
    if (r.timeline)
        sim::serializeTimeline(*r.timeline, out);
}

BatchResult
deserializeBatchResult(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    BatchResult res;
    res.index = static_cast<std::size_t>(r.pod<std::uint64_t>());
    res.label = r.str();
    if (readBool(r))
        res.sampled = sim::deserializeSampledOutcome(in, name);
    if (readBool(r))
        res.reference = sim::deserializeResult(in, name);
    if (readBool(r)) {
        ErrorSpeedup es;
        es.errorPct = r.pod<double>();
        es.wallSpeedup = r.pod<double>();
        es.detailFraction = r.pod<double>();
        res.comparison = es;
    }
    res.referenceFromCache = readBool(r);
    res.sampledFromCache = readBool(r);
    res.hostSeconds = r.pod<double>();
    if (readBool(r))
        res.timeline = sim::deserializeTimeline(r);
    return res;
}

std::size_t
runWorkerShard(const WorkerOptions &options)
{
    const PlanShard shard = deserializeShard(options.shardPath);
    std::error_code ec;
    fs::create_directories(options.outDir, ec);
    if (ec)
        fatal("worker: cannot create out dir '%s': %s",
              options.outDir.c_str(), ec.message().c_str());

    if (options.batch.progress)
        progress(strprintf(
            "worker: shard %u/%u of plan %s: %zu jobs",
            shard.shardIndex, shard.shardCount,
            shard.planDigest.c_str(), shard.jobs.size()));

    const ExperimentPlan plan = shardPlan(shard);
    StreamPublishingSink publish(
        (fs::path(options.outDir) / options.streamName).string());
    PlanIndexSink sink(shard, publish);
    BatchOptions batch = options.batch;
    // shardPlan() pre-resolved the parent's derived seeds, so each
    // workload trace is unique to its job: don't retain them.
    batch.memoizeWorkloadTraces = !shard.deriveSeeds;
    batch.collectTimelines = shard.collectTimelines;
    BatchRunner(batch).run(plan, sink);
    return publish.published();
}

} // namespace tp::harness
