/**
 * @file
 * Content-addressed on-disk cache of simulation outcomes: detailed
 * reference SimResults and TaskPoint-sampled SampledOutcomes.
 *
 * The dominant cost of every error/speedup figure is the full-detailed
 * reference simulation the sampled run is compared against, and the
 * same (architecture, workload, seed) reference is recomputed by
 * several drivers; large sweeps additionally rerun identical sampled
 * simulations on every invocation. This cache lets all of them — and
 * repeated invocations of the same driver — share one results
 * directory.
 *
 * Keying. An entry's key is a stable 128-bit FNV-1a digest
 * (common/hash) of
 *  - an entry-kind tag (reference vs. sampled),
 *  - the serialized bytes of the TaskTrace (trace/trace_io), which
 *    pin the workload name, WorkloadParams and derived job seed via
 *    the generated structure itself,
 *  - every field of the RunSpec (via harness::writeRunSpec, the same
 *    encoder plan files use): ArchConfig, thread count, runtime
 *    configuration, quantum, recordTasks and the noise model
 *    (including its seed),
 *  - for sampled entries, every field of the SamplingParams, and
 *  - the key-scheme and payload-format versions, so entries written
 *    by an older build can never be decoded as current ones.
 * Any single-field change therefore changes the key; a stale or
 * mismatched entry misses, it is never reinterpreted.
 *
 * Entry files. `<dir>/<key>.tpres` holds magic, envelope version, the
 * embedded key (verified on load), the length-prefixed payload
 * (sim/result_io) and a checksum64 (common/hash) of the payload.
 * Truncated, torn or otherwise damaged entries fail the checksum or
 * raise IoError and count as a miss — they cannot corrupt a figure.
 * An entry of an older envelope version misses the same way, so it
 * is recomputed and overwritten once.
 *
 * Concurrency. Writers serialize to a process/thread-unique temp file
 * in the cache directory and publish it with an atomic rename, so
 * BatchRunner workers and independent driver processes can share one
 * directory; duplicate work at worst overwrites an entry with
 * identical bytes. The human-readable `index.tsv` (key, bytes,
 * last-use sequence) backs the LRU size cap; it is rewritten
 * atomically and reconciled against the directory on load, so a stale
 * index degrades recency accounting, never correctness.
 */

#ifndef TP_HARNESS_RESULT_CACHE_HH
#define TP_HARNESS_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "harness/experiment.hh"
#include "sim/result_io.hh"

namespace tp {
class CliArgs;
}

namespace tp::harness {

struct JobSpec;

/** How a driver uses the cache (`--cache={off,ro,rw}`). */
enum class CacheMode : std::uint8_t {
    Off,       //!< no cache (drivers pass no ResultCache at all)
    ReadOnly,  //!< consult entries, never write or evict
    ReadWrite, //!< consult, store and evict
};

/** Cache configuration. */
struct ResultCacheOptions
{
    /** Cache directory; created on first use. */
    std::string dir;
    CacheMode mode = CacheMode::ReadWrite;
    /**
     * LRU size cap over entry payload files, in bytes; least
     * recently used entries are evicted when a store exceeds it.
     * 0 disables the cap.
     */
    std::uint64_t maxBytes = 1ULL << 30;
};

/** Hit/miss counters of one ResultCache instance. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    /** Stores that failed (ENOSPC, rename error); run continued. */
    std::uint64_t failedStores = 0;
};

/**
 * @return the 128-bit hex digest of `trace`'s serialized bytes —
 *         the workload-identity half of a cache key. Costs one
 *         in-memory serialization of the trace, so callers keying
 *         many runs of one trace should compute it once
 *         (BatchRunner memoizes per shared trace).
 */
std::string traceDigest(const trace::TaskTrace &trace);

/**
 * @return the cache key of one detailed-reference simulation (see
 *         file comment for what it covers), from a precomputed
 *         traceDigest(). `formatVersion` is exposed for tests;
 *         leave it defaulted otherwise.
 */
std::string
resultCacheKey(const std::string &trace_digest, const RunSpec &spec,
               std::uint32_t formatVersion = sim::kResultFormatVersion);

/** Convenience overload computing the trace digest inline. */
std::string
resultCacheKey(const trace::TaskTrace &trace, const RunSpec &spec,
               std::uint32_t formatVersion = sim::kResultFormatVersion);

/**
 * @return the cache key of one TaskPoint-sampled simulation: like
 *         resultCacheKey, but tagged as a sampled entry and covering
 *         every SamplingParams field, so two policies over one trace
 *         and RunSpec never share an entry.
 */
std::string
sampledCacheKey(const std::string &trace_digest, const RunSpec &spec,
                const sampling::SamplingParams &params,
                std::uint32_t formatVersion = sim::kSampledFormatVersion);

/** Convenience overload computing the trace digest inline. */
std::string
sampledCacheKey(const trace::TaskTrace &trace, const RunSpec &spec,
                const sampling::SamplingParams &params,
                std::uint32_t formatVersion = sim::kSampledFormatVersion);

/**
 * @return the 128-bit hex digest of a memory configuration (the
 *         writeMemoryConfig encoding). Checkpoint keys lead with it,
 *         so a checkpoint directory groups its entries by the
 *         microarchitectural warm state they capture — entries for
 *         different cache hierarchies can never be confused even in
 *         the presence of a key-derivation bug downstream.
 */
std::string memoryConfigDigest(const mem::MemoryConfig &m);

/**
 * @return the normalized job digest checkpoints are keyed by: the
 *         jobSpecDigest of `job` with the label cleared, the mode
 *         forced to Sampled and the slice coordinates zeroed, so one
 *         recording and all slices of one underlying sampled run —
 *         under any display label, in a Sampled or Both job — share
 *         checkpoints. Seeds must already be applied (the digest is
 *         computed on the job as passed).
 */
std::string checkpointJobDigest(const JobSpec &job);

/**
 * @return the cache key of the checkpoint *manifest* of one recorded
 *         run (the boundary count, see plan_shard).
 */
std::string checkpointManifestKey(const std::string &memory_digest,
                                  const std::string &job_digest);

/**
 * @return the cache key of the warm-state checkpoint at sample
 *         boundary `boundary` of one recorded run.
 */
std::string checkpointBlobKey(const std::string &memory_digest,
                              const std::string &job_digest,
                              std::uint64_t boundary);

/** See file comment. */
class ResultCache
{
  public:
    /** Open (and if needed create) the cache directory. */
    explicit ResultCache(ResultCacheOptions options);

    /** Flushes pending recency updates to index.tsv. */
    ~ResultCache();

    /**
     * Look up a reference entry.
     *
     * @return the bit-identical stored SimResult, or std::nullopt on
     *         miss (absent, damaged or key-mismatched entry)
     */
    std::optional<sim::SimResult> lookup(const std::string &key);

    /**
     * Store `result` under `key` (atomic publish), then evict LRU
     * entries beyond the size cap. No-op in read-only mode.
     */
    void store(const std::string &key, const sim::SimResult &result);

    /**
     * Look up a sampled entry (key from sampledCacheKey).
     *
     * @return the bit-identical stored SampledOutcome, or
     *         std::nullopt on miss
     */
    std::optional<SampledOutcome>
    lookupSampled(const std::string &key);

    /** Store a whole sampled outcome under `key`. */
    void storeSampled(const std::string &key,
                      const SampledOutcome &outcome);

    /**
     * Look up an opaque byte payload (checkpoints, manifests —
     * anything framed by the caller). Envelope-verified like every
     * entry; damaged or absent entries miss.
     */
    std::optional<std::string> loadBlob(const std::string &key);

    /**
     * Store an opaque byte payload under `key` (atomic publish).
     * No-op in read-only mode.
     */
    void storeBlob(const std::string &key, const std::string &blob);

    /** @return whether an entry file for `key` exists right now
     *          (no validation, no LRU effect; for tests/tools). */
    bool contains(const std::string &key) const;

    const ResultCacheOptions &options() const { return options_; }

    ResultCacheStats stats() const;

    /** @return one-line summary for driver progress output. */
    std::string statsLine() const;

  private:
    struct Entry
    {
        std::uint64_t bytes = 0;
        std::uint64_t seq = 0; //!< last-use order, larger = newer
    };

    std::string entryPath(const std::string &key) const;
    /**
     * Read and envelope-verify the payload bytes of `key`; updates
     * recency on success. The typed lookup wrappers decode the
     * payload and count hits/misses.
     */
    std::optional<std::string> loadPayload(const std::string &key);
    /**
     * Publish `payload` under `key` (atomic rename), then evict.
     * @throws IoError when the temp file cannot be created or
     *         written in full, or the publish rename fails; callers
     *         report it through noteStoreFailure.
     */
    void storePayload(const std::string &key,
                      const std::string &payload);
    /**
     * The cache boundary of every store path: a failed store (disk
     * full, rename race, serialization error) degrades the run to
     * uncached — warned once per cache, counted per failure — and
     * must never propagate into the job that tried to cache.
     */
    void noteStoreFailure(const char *what);
    /** Reconcile index.tsv with the directory contents. */
    void loadIndexLocked();
    void saveIndexLocked();
    void evictToFitLocked();

    ResultCacheOptions options_;
    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t totalBytes_ = 0;
    /**
     * Recency changed since index.tsv was last written. Hits only
     * bump the in-memory sequence (a per-hit index rewrite would
     * make the warm path do O(entries) disk work); the index is
     * persisted on store/evict and on destruction.
     */
    bool indexDirty_ = false;
    ResultCacheStats stats_;
    /** First store failure already warned (see noteStoreFailure). */
    std::atomic<bool> warnedStoreFailure_{false};
};

/**
 * Parse `--cache-dir=DIR` / `--cache={off,ro,rw}` (common/cli option
 * names kCacheDirOption / kCacheModeOption) — the one reading of the
 * cache flags, for in-process runs and campaigns alike.
 *
 * `--cache` defaults to `rw` when a directory is given and `off`
 * otherwise; an unknown mode, or `--cache=ro|rw` without a
 * directory, is a usage error (fatal).
 *
 * @return the directory and mode, or std::nullopt when caching is off
 */
std::optional<ResultCacheOptions>
resultCacheOptionsFromCli(const CliArgs &args);

/**
 * @return the ResultCache resultCacheOptionsFromCli() describes, or
 *         nullptr when caching is off
 */
std::unique_ptr<ResultCache> resultCacheFromCli(const CliArgs &args);

/**
 * Open `dir` as a warm-state checkpoint store (live-points): a
 * read-write ResultCache with the LRU size cap disabled — evicting a
 * checkpoint mid-run would silently degrade slices to cold replays,
 * so the directory's size is managed by its owner, not by the cache.
 *
 * @return the store, or nullptr when `dir` is empty (checkpoints off)
 */
std::unique_ptr<ResultCache> openCheckpointDir(const std::string &dir);

} // namespace tp::harness

#endif // TP_HARNESS_RESULT_CACHE_HH
