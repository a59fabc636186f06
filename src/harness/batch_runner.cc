#include "harness/batch_runner.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/binary_io.hh"
#include "common/fault_injection.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "harness/plan_shard.hh"
#include "harness/result_cache.hh"
#include "sim/checkpoint.hh"
#include "trace/trace_io.hh"

namespace tp::harness {

namespace {

/** Fail fast on jobs that don't name exactly one trace source. */
void
validateSource(const JobSpec &job, const std::string &who)
{
    if (job.workload.empty() == job.traceFile.empty())
        fatal("%s ('%s') must name exactly one trace source "
              "(workload or traceFile)",
              who.c_str(), job.label.c_str());
}

} // namespace

void
validatePlanJobs(const ExperimentPlan &plan)
{
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        validateSource(plan.jobs[i], strprintf("job %zu", i));
        if (!plan.jobs[i].workload.empty())
            work::workloadByName(
                plan.jobs[i].workload); // fatal when unknown
    }
}

/** One realized trace plus its content digest (when caching). */
struct BatchRunner::TraceEntry
{
    trace::TaskTrace trace;
    /** traceDigest(trace); empty when the runner has no cache. */
    std::string digest;
};

/**
 * Once-per-source realization of traces. The first worker needing a
 * source builds it (generation or file load) while holders of other
 * sources proceed concurrently; later workers naming the same source
 * wait on the shared future. A failed build (e.g. a corrupt trace
 * file raising IoError) is remembered and rethrown to every job
 * sharing the source.
 */
class BatchRunner::TraceStore
{
  public:
    using EntryPtr = std::shared_ptr<const TraceEntry>;

    /** Realize a job's trace without memoizing it. */
    static EntryPtr
    build(const JobSpec &job, bool wantDigest)
    {
        auto entry = std::make_shared<TraceEntry>();
        entry->trace =
            job.traceFile.empty()
                ? work::generateWorkload(job.workload,
                                         job.workloadParams)
                : trace::deserializeTrace(job.traceFile);
        if (wantDigest)
            entry->digest = traceDigest(entry->trace);
        return entry;
    }

    EntryPtr
    get(const JobSpec &job, bool wantDigest)
    {
        const std::string key = sourceKey(job);
        std::promise<EntryPtr> promise;
        std::shared_future<EntryPtr> future;
        bool builder = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = slots_.find(key);
            if (it != slots_.end()) {
                future = it->second;
            } else {
                future = promise.get_future().share();
                slots_.emplace(key, future);
                builder = true;
            }
        }
        if (builder) {
            try {
                promise.set_value(build(job, wantDigest));
            } catch (...) {
                promise.set_exception(std::current_exception());
            }
        }
        return future.get();
    }

  private:
    /**
     * Memoization key of a job's trace source. Workload traces are
     * pure functions of (name, params), so the key is the name plus
     * the bit patterns of every parameter; file traces key on the
     * path (the file must not change during the runner's lifetime).
     */
    static std::string
    sourceKey(const JobSpec &job)
    {
        if (!job.traceFile.empty())
            return "f:" + job.traceFile;
        const work::WorkloadParams &p = job.workloadParams;
        return "w:" + job.workload + ":" +
               toHex(std::bit_cast<std::uint64_t>(p.scale)) +
               toHex(std::bit_cast<std::uint64_t>(p.instrScale)) +
               toHex(p.seed);
    }

    std::mutex mu_;
    std::map<std::string, std::shared_future<EntryPtr>> slots_;
};

BatchRunner::BatchRunner(BatchOptions options)
    : options_(std::move(options)),
      traces_(std::make_unique<TraceStore>())
{
}

BatchRunner::~BatchRunner() = default;

std::uint64_t
BatchRunner::jobSeed(std::uint64_t baseSeed, std::size_t index)
{
    // splitmix64 finalizer over (baseSeed, index); avalanches so
    // consecutive indices yield uncorrelated seeds.
    std::uint64_t z = baseSeed + 0x9e3779b97f4a7c15ULL *
                                     (static_cast<std::uint64_t>(
                                          index) +
                                      1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
BatchRunner::applyDerivedSeed(JobSpec &job, std::uint64_t baseSeed,
                              std::size_t index)
{
    const std::uint64_t seed = jobSeed(baseSeed, index);
    job.workloadParams.seed = seed;
    job.spec.noise.seed = seed ^ 0x5eedULL;
}

std::shared_ptr<const trace::TaskTrace>
BatchRunner::resolveTrace(const JobSpec &job) const
{
    validateSource(job, "resolveTrace job");
    const TraceStore::EntryPtr entry =
        traces_->get(job, options_.cache != nullptr);
    return {entry, &entry->trace};
}

BatchResult
BatchRunner::runJob(const JobSpec &job, std::size_t index,
                    bool memoizeTrace) const
{
    const auto t0 = std::chrono::steady_clock::now();

    // Realize (or wait for) the trace this job describes; digested
    // once per source when a cache is attached. Traces unique to
    // this job (derived-seed workload generation) stay local to it
    // and are freed when the job finishes, so huge derived-seed
    // plans don't accumulate one retained trace per job.
    const bool wantDigest = options_.cache != nullptr;
    const TraceStore::EntryPtr entry =
        memoizeTrace ? traces_->get(job, wantDigest)
                     : TraceStore::build(job, wantDigest);
    const trace::TaskTrace &trace = entry->trace;

    BatchResult r;
    r.index = index;
    r.label = job.label;
    if (job.mode == BatchMode::Reference ||
        job.mode == BatchMode::Both) {
        std::string key;
        if (options_.cache != nullptr) {
            key = resultCacheKey(entry->digest, job.spec);
            if (std::optional<sim::SimResult> cached =
                    options_.cache->lookup(key)) {
                r.reference = std::move(*cached);
                r.referenceFromCache = true;
            }
        }
        if (!r.reference) {
            // Reference-only jobs trace the detailed run; Both-mode
            // jobs trace the sampled run below (one primary timeline
            // per result).
            sim::TimelineRecorder recorder;
            const bool record = options_.collectTimelines &&
                                job.mode == BatchMode::Reference;
            r.reference = runDetailed(trace, job.spec,
                                      record ? &recorder : nullptr);
            if (record)
                r.timeline = recorder.take();
            if (options_.cache != nullptr)
                options_.cache->store(key, *r.reference);
        }
    }
    if (job.mode == BatchMode::Sampled ||
        job.mode == BatchMode::Both) {
        // Slice jobs bypass the result cache: their partial outcomes
        // must never shadow (or be shadowed by) whole-job entries.
        const bool useCache =
            options_.cache != nullptr && !job.isSlice();
        std::string key;
        if (useCache) {
            key = sampledCacheKey(entry->digest, job.spec,
                                  job.sampling);
            if (std::optional<SampledOutcome> cached =
                    options_.cache->lookupSampled(key)) {
                r.sampled = std::move(*cached);
                r.sampledFromCache = true;
            }
        }
        if (!r.sampled) {
            sim::CheckpointHooks hooks;
            sim::Checkpoint restore;
            bool useHooks = false;
            std::string memDigest;
            std::string jobDigest;
            std::string manifestKey;
            std::uint64_t lastBoundary = 0;
            bool recording = false;
            if (options_.checkpoints != nullptr) {
                memDigest =
                    memoryConfigDigest(job.spec.arch.memory);
                jobDigest = checkpointJobDigest(job);
            }
            if (job.isSlice()) {
                // Honor the slice bounds even without a store: the
                // merge relies on the slices tiling the run.
                hooks.stopBoundary = job.stopBoundary;
                useHooks = true;
                if (options_.checkpoints != nullptr &&
                    job.startBoundary > 0) {
                    const std::string bkey = checkpointBlobKey(
                        memDigest, jobDigest, job.startBoundary);
                    std::optional<std::string> blob =
                        options_.checkpoints->loadBlob(bkey);
                    // Injected errno is a lost read (a miss); data
                    // faults damage the blob so the envelope
                    // checksum rejects it — either way the slice
                    // must cold-replay to the same answer.
                    if (const fault::FaultRule *r =
                            FAULT_CHECK("checkpoint.restore")) {
                        if (r->action.kind ==
                            fault::FaultKind::ErrnoFault)
                            blob.reset();
                        else if (blob)
                            fault::corruptBytes(*r, *blob);
                    }
                    if (blob) {
                        try {
                            restore = sim::deserializeCheckpoint(
                                std::move(*blob), bkey);
                            if (restore.boundary ==
                                job.startBoundary)
                                hooks.restore = &restore;
                        } catch (const IoError &) {
                            // Damaged checkpoint: degrade to a cold
                            // replay of the slice, never to a
                            // different answer.
                        }
                    }
                }
            } else if (options_.checkpoints != nullptr &&
                       options_.checkpoints->options().mode ==
                           CacheMode::ReadWrite) {
                manifestKey =
                    checkpointManifestKey(memDigest, jobDigest);
                // Record unless this build can read the manifest: a
                // damaged one, or one from another checkpoint format
                // version, is replaced, so a store recorded by an
                // older build cold-replays once instead of forever.
                const std::optional<std::string> manifest =
                    options_.checkpoints->loadBlob(manifestKey);
                if (!manifest || !parseCheckpointManifest(*manifest)) {
                    recording = true;
                    useHooks = true;
                    hooks.record = [&](sim::Checkpoint &&cp) {
                        lastBoundary = cp.boundary;
                        std::string blob =
                            sim::serializeCheckpoint(std::move(cp));
                        // Injected damage to the serialized warm
                        // state must be caught by the restore-time
                        // checksum (cold replay); errno loses the
                        // blob, which a restoring run treats as a
                        // plain miss.
                        if (const fault::FaultRule *r =
                                FAULT_CHECK("checkpoint.record")) {
                            if (r->action.kind ==
                                fault::FaultKind::ErrnoFault)
                                return;
                            fault::corruptBytes(*r, blob);
                        }
                        options_.checkpoints->storeBlob(
                            checkpointBlobKey(memDigest, jobDigest,
                                              lastBoundary),
                            blob);
                    };
                }
            }
            sim::TimelineRecorder recorder;
            r.sampled = runSampled(trace, job.spec, job.sampling,
                                   useHooks ? &hooks : nullptr,
                                   options_.collectTimelines
                                       ? &recorder
                                       : nullptr);
            if (options_.collectTimelines)
                r.timeline = recorder.take();
            // The manifest is published last: its presence promises
            // every checkpoint 1..lastBoundary already exists.
            if (recording)
                options_.checkpoints->storeBlob(
                    manifestKey,
                    serializeCheckpointManifest(lastBoundary));
            if (useCache)
                options_.cache->storeSampled(key, *r.sampled);
        }
    }
    if (job.mode == BatchMode::Both)
        r.comparison = compare(*r.reference, r.sampled->result);

    r.hostSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (options_.progress)
        progress(strprintf("job %zu/%s done (%.1fs)%s%s", index,
                           r.label.c_str(), r.hostSeconds,
                           r.referenceFromCache ? " [ref cached]"
                                                : "",
                           r.sampledFromCache ? " [sam cached]"
                                              : ""));
    return r;
}

void
BatchRunner::run(const ExperimentPlan &plan, ResultSink &sink) const
{
    // Validate every job before any simulation starts, so a
    // malformed plan fails fast instead of mid-batch.
    validatePlanJobs(plan);

    // Live-points: split sampled jobs with recorded checkpoints into
    // per-interval slices. Timelines cover whole runs, so slice
    // expansion is off under collectTimelines (restore-vs-replay
    // bit-identity keeps the deterministic report columns unchanged
    // either way).
    const bool expand =
        options_.expandSlices && !options_.collectTimelines;
    std::uint32_t maxSlices = options_.checkpointSlices;
    if (maxSlices == 0) {
        const std::size_t workers =
            options_.jobs != 0 ? options_.jobs
                               : std::thread::hardware_concurrency();
        maxSlices = static_cast<std::uint32_t>(
            std::max<std::size_t>(workers, 1));
    }
    runWithCheckpointSlices(
        plan, expand ? options_.checkpoints : nullptr, maxSlices,
        options_.progress, sink,
        [this](const ExperimentPlan &p, ResultSink &s) {
            runResolved(p, s);
        });
}

void
BatchRunner::runResolved(const ExperimentPlan &plan,
                         ResultSink &sink) const
{
    // Resolve per-job seeds. Only a seed-deriving plan needs its
    // jobs copied; otherwise run straight off the caller's vector.
    std::vector<JobSpec> seeded;
    if (plan.deriveSeeds) {
        seeded = plan.jobs;
        for (std::size_t i = 0; i < seeded.size(); ++i)
            applyDerivedSeed(seeded[i], plan.baseSeed, i);
    }
    const std::vector<JobSpec> &jobs =
        plan.deriveSeeds ? seeded : plan.jobs;

    // A derived-seed workload job realizes a trace no other job can
    // share (its generation seed is unique to its index), so only
    // shared sources go through the memo store; callers running
    // pre-resolved derived-seed jobs opt out the same way.
    const bool memoizeWorkloads =
        !plan.deriveSeeds && options_.memoizeWorkloadTraces;

    sink.begin(jobs.size());
    {
        ThreadPool pool(options_.jobs);
        std::vector<std::future<BatchResult>> futures;
        futures.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const bool memoize =
                memoizeWorkloads || !jobs[i].traceFile.empty();
            futures.push_back(
                pool.submit([this, &job = jobs[i], i, memoize] {
                    return runJob(job, i, memoize);
                }));
        }
        // Deliver in submission order while the pool is still alive;
        // each result streams out as soon as it is deliverable, and
        // get() rethrows the first job exception on this thread.
        for (std::future<BatchResult> &f : futures)
            sink.consume(f.get());
    }
    sink.end();
}

std::vector<BatchResult>
BatchRunner::run(const ExperimentPlan &plan) const
{
    CollectingSink sink;
    run(plan, sink);
    return sink.take();
}

} // namespace tp::harness
