#include "harness/result_cache.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "common/binary_io.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "harness/job_spec.hh"
#include "sim/checkpoint.hh"
#include "trace/trace_io.hh"

namespace fs = std::filesystem;

namespace tp::harness {

namespace {

constexpr std::uint64_t kEntryMagic = 0x5450524553433101ULL; // TPRESC1.
/** v2: the payload checksum is checksum64 (common/hash), not FNV-1a. */
constexpr std::uint32_t kEnvelopeVersion = 2;
/**
 * Bump when the key derivation below changes. v2: keys carry an
 * entry-kind tag, RunSpec bytes come from harness::writeRunSpec, and
 * sampled entries (RunSpec + SamplingParams) joined the scheme.
 */
constexpr std::uint32_t kKeySchemeVersion = 2;

/** Entry-kind tags keyed into the digest material. */
constexpr std::uint8_t kKindReference = 'R';
constexpr std::uint8_t kKindSampled = 'S';
constexpr std::uint8_t kKindCheckpoint = 'C';
constexpr std::uint8_t kKindManifest = 'M';

const char *const kIndexName = "index.tsv";
const char *const kEntrySuffix = ".tpres";

/** Process/thread-unique temp-file counter for atomic publishes. */
std::atomic<std::uint64_t> g_tmpCounter{0};

} // namespace

std::string
traceDigest(const trace::TaskTrace &trace)
{
    // The serialized trace pins workload identity: name, structure,
    // per-instance sizes and seeds — everything generation derived
    // from (workload name, WorkloadParams, job seed).
    std::ostringstream traceBytes(std::ios::binary);
    trace::serializeTrace(trace, traceBytes);
    return hexDigest128(traceBytes.str());
}

std::string
resultCacheKey(const std::string &trace_digest, const RunSpec &spec,
               std::uint32_t formatVersion)
{
    // Serialize the full key material into one buffer, then digest
    // it to 128 bits (two independent FNV-1a passes). The RunSpec
    // bytes are the plan-file encoding (harness/job_spec), so the
    // key covers exactly the fields a replayed plan pins down.
    std::ostringstream material(std::ios::binary);
    BinaryWriter w(material);
    w.pod(kKindReference);
    w.pod(kKeySchemeVersion);
    w.pod(formatVersion);
    w.str(trace_digest);
    writeRunSpec(w, spec);
    return hexDigest128(material.str());
}

std::string
resultCacheKey(const trace::TaskTrace &trace, const RunSpec &spec,
               std::uint32_t formatVersion)
{
    return resultCacheKey(traceDigest(trace), spec, formatVersion);
}

std::string
sampledCacheKey(const std::string &trace_digest, const RunSpec &spec,
                const sampling::SamplingParams &params,
                std::uint32_t formatVersion)
{
    std::ostringstream material(std::ios::binary);
    BinaryWriter w(material);
    w.pod(kKindSampled);
    w.pod(kKeySchemeVersion);
    w.pod(formatVersion);
    // The sampled payload embeds a serialized SimResult, so a
    // SimResult format change must miss sampled entries too — not
    // only reference ones.
    w.pod(sim::kResultFormatVersion);
    w.str(trace_digest);
    writeRunSpec(w, spec);
    writeSamplingParams(w, params);
    return hexDigest128(material.str());
}

std::string
sampledCacheKey(const trace::TaskTrace &trace, const RunSpec &spec,
                const sampling::SamplingParams &params,
                std::uint32_t formatVersion)
{
    return sampledCacheKey(traceDigest(trace), spec, params,
                           formatVersion);
}

std::string
memoryConfigDigest(const mem::MemoryConfig &m)
{
    std::ostringstream bytes(std::ios::binary);
    BinaryWriter w(bytes);
    writeMemoryConfig(w, m);
    return hexDigest128(bytes.str());
}

std::string
checkpointJobDigest(const JobSpec &job)
{
    JobSpec normalized = job;
    normalized.label.clear();
    normalized.mode = BatchMode::Sampled;
    normalized.sliceCount = 0;
    normalized.sliceIndex = 0;
    normalized.startBoundary = 0;
    normalized.stopBoundary = 0;
    return jobSpecDigest(normalized);
}

namespace {

std::string
checkpointKeyMaterial(std::uint8_t kind,
                      const std::string &memory_digest,
                      const std::string &job_digest)
{
    std::ostringstream material(std::ios::binary);
    BinaryWriter w(material);
    w.pod(kind);
    w.pod(kKeySchemeVersion);
    w.pod(sim::kCheckpointFormatVersion);
    w.str(memory_digest);
    w.str(job_digest);
    return material.str();
}

} // namespace

std::string
checkpointManifestKey(const std::string &memory_digest,
                      const std::string &job_digest)
{
    return hexDigest128(checkpointKeyMaterial(
        kKindManifest, memory_digest, job_digest));
}

std::string
checkpointBlobKey(const std::string &memory_digest,
                  const std::string &job_digest,
                  std::uint64_t boundary)
{
    std::string material = checkpointKeyMaterial(
        kKindCheckpoint, memory_digest, job_digest);
    material.append(reinterpret_cast<const char *>(&boundary),
                    sizeof(boundary));
    return hexDigest128(material);
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(std::move(options))
{
    if (options_.dir.empty())
        fatal("result cache needs a directory");
    if (options_.mode == CacheMode::Off)
        fatal("result cache constructed with mode 'off'");
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    if (ec)
        fatal("cannot create cache directory '%s': %s",
              options_.dir.c_str(), ec.message().c_str());
    std::lock_guard<std::mutex> lock(mu_);
    loadIndexLocked();
}

ResultCache::~ResultCache()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (indexDirty_)
        saveIndexLocked();
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return (fs::path(options_.dir) / (key + kEntrySuffix)).string();
}

void
ResultCache::loadIndexLocked()
{
    entries_.clear();
    totalBytes_ = 0;
    nextSeq_ = 1;

    const fs::path indexPath = fs::path(options_.dir) / kIndexName;
    std::ifstream in(indexPath);
    std::string line;
    while (in && std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        Entry e;
        if (!(ls >> key >> e.bytes >> e.seq))
            continue; // damaged line: the directory scan recovers it
        entries_[key] = e;
        nextSeq_ = std::max(nextSeq_, e.seq + 1);
    }

    // Reconcile with reality: drop entries whose file vanished (e.g.
    // evicted by another process), adopt files the index missed, and
    // trust on-disk sizes over recorded ones.
    std::vector<std::pair<fs::file_time_type, std::string>> unknown;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(options_.dir, ec)) {
        const std::string fname = de.path().filename().string();
        if (fname.size() <= std::string(kEntrySuffix).size() ||
            fname.substr(fname.size() -
                         std::string(kEntrySuffix).size()) !=
                kEntrySuffix)
            continue;
        const std::string key = fname.substr(
            0, fname.size() - std::string(kEntrySuffix).size());
        std::error_code sec;
        const std::uint64_t bytes = fs::file_size(de.path(), sec);
        if (sec)
            continue;
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.bytes = bytes;
        } else {
            unknown.emplace_back(fs::last_write_time(de.path(), sec),
                                 key);
            entries_[key] = Entry{bytes, 0};
        }
    }
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (!fs::exists(entryPath(it->first)))
            it = entries_.erase(it);
        else
            ++it;
    }
    // Unknown files get recency in modification order, older first.
    std::sort(unknown.begin(), unknown.end());
    for (const auto &[mtime, key] : unknown)
        entries_[key].seq = nextSeq_++;

    for (const auto &[key, e] : entries_)
        totalBytes_ += e.bytes;
}

void
ResultCache::saveIndexLocked()
{
    indexDirty_ = false;
    if (options_.mode != CacheMode::ReadWrite)
        return;
    // The index is a recency hint reconciled against the directory
    // on load, so every failure mode here is "skip the rewrite".
    if (const fault::FaultRule *r = FAULT_CHECK("result_cache.index"))
        if (r->action.kind == fault::FaultKind::ErrnoFault)
            return;
    const fs::path dir(options_.dir);
    const std::string tmp =
        (dir / strprintf(".index.tmp.%d.%llu",
                         static_cast<int>(::getpid()),
                         static_cast<unsigned long long>(
                             g_tmpCounter.fetch_add(1))))
            .string();
    {
        std::ofstream out(tmp, std::ios::trunc);
        for (const auto &[key, e] : entries_)
            out << key << '\t' << e.bytes << '\t' << e.seq << '\n';
        if (!out.good()) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return; // index is a hint; never fail the run over it
        }
    }
    std::error_code ec;
    fs::rename(tmp, dir / kIndexName, ec);
    if (ec)
        fs::remove(tmp, ec);
}

std::optional<std::string>
ResultCache::loadPayload(const std::string &key)
{
    // All file reading and parsing happens outside the lock so
    // concurrent workers replaying different entries don't serialize
    // on each other; mu_ guards only the bookkeeping at the end.
    const std::string path = entryPath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        // Entry gone (never existed or evicted by another process).
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            totalBytes_ -= std::min(totalBytes_, it->second.bytes);
            entries_.erase(it);
            indexDirty_ = true;
        }
        return std::nullopt;
    }

    std::error_code fec;
    const std::uint64_t fileBytes = fs::file_size(path, fec);

    try {
        BinaryReader r(in, path);
        if (r.pod<std::uint64_t>() != kEntryMagic)
            throwIoError("'%s': not a result-cache entry",
                         path.c_str());
        if (r.pod<std::uint32_t>() != kEnvelopeVersion)
            throwIoError("'%s': unsupported cache-entry version",
                         path.c_str());
        if (r.str() != key)
            throwIoError("'%s': entry key mismatch", path.c_str());
        // Bound the payload allocation by the real file size so a
        // corrupt length field cannot trigger a huge allocation.
        const auto payloadLen = r.pod<std::uint64_t>();
        if (fec || payloadLen > fileBytes)
            throwIoError("'%s': corrupt payload length",
                         path.c_str());
        std::string payload(payloadLen, '\0');
        in.read(payload.data(),
                static_cast<std::streamsize>(payloadLen));
        if (!in)
            throwIoError("'%s': file truncated", path.c_str());
        const std::uint64_t checksum = r.pod<std::uint64_t>();
        r.expectEof();
        if (checksum != checksum64(payload.data(), payload.size()))
            throwIoError("'%s': payload checksum mismatch",
                         path.c_str());

        std::lock_guard<std::mutex> lock(mu_);
        auto &e = entries_[key];
        if (e.bytes == 0) {
            e.bytes = fileBytes;
            totalBytes_ += fileBytes;
        }
        e.seq = nextSeq_++;
        indexDirty_ = true;
        return payload;
    } catch (const std::exception &) {
        // Damaged or mismatched entry: a miss, never an error —
        // including allocation failures provoked by corrupt bytes.
        // The subsequent store overwrites it with a good one.
        return std::nullopt;
    }
}

std::optional<sim::SimResult>
ResultCache::lookup(const std::string &key)
{
    std::optional<std::string> payload = loadPayload(key);
    if (payload) {
        try {
            std::istringstream ps(*payload, std::ios::binary);
            sim::SimResult result =
                sim::deserializeResult(ps, entryPath(key));
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.hits;
            return result;
        } catch (const std::exception &) {
            // Verified envelope but undecodable payload (e.g. an
            // entry of the other kind): treat as damaged.
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return std::nullopt;
}

std::optional<SampledOutcome>
ResultCache::lookupSampled(const std::string &key)
{
    std::optional<std::string> payload = loadPayload(key);
    if (payload) {
        try {
            std::istringstream ps(*payload, std::ios::binary);
            SampledOutcome outcome =
                sim::deserializeSampledOutcome(ps, entryPath(key));
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.hits;
            return outcome;
        } catch (const std::exception &) {
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return std::nullopt;
}

void
ResultCache::store(const std::string &key,
                   const sim::SimResult &result)
{
    if (options_.mode != CacheMode::ReadWrite)
        return;
    try {
        std::ostringstream payload(std::ios::binary);
        sim::serializeResult(result, payload);
        storePayload(key, payload.str());
    } catch (const std::exception &e) {
        noteStoreFailure(e.what());
    }
}

void
ResultCache::storeSampled(const std::string &key,
                          const SampledOutcome &outcome)
{
    if (options_.mode != CacheMode::ReadWrite)
        return;
    try {
        std::ostringstream payload(std::ios::binary);
        sim::serializeSampledOutcome(outcome, payload);
        storePayload(key, payload.str());
    } catch (const std::exception &e) {
        noteStoreFailure(e.what());
    }
}

std::optional<std::string>
ResultCache::loadBlob(const std::string &key)
{
    std::optional<std::string> payload = loadPayload(key);
    std::lock_guard<std::mutex> lock(mu_);
    if (payload)
        ++stats_.hits;
    else
        ++stats_.misses;
    return payload;
}

void
ResultCache::storeBlob(const std::string &key,
                       const std::string &blob)
{
    if (options_.mode != CacheMode::ReadWrite)
        return;
    try {
        storePayload(key, blob);
    } catch (const std::exception &e) {
        noteStoreFailure(e.what());
    }
}

void
ResultCache::noteStoreFailure(const char *what)
{
    if (!warnedStoreFailure_.exchange(true))
        warn("result cache '%s': store failed (%s); continuing "
             "uncached", options_.dir.c_str(), what);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failedStores;
}

void
ResultCache::storePayload(const std::string &key,
                          const std::string &payload)
{
    // The temp-file write/rename happens outside the lock (temp
    // names are process/thread-unique and the rename is atomic);
    // mu_ guards only the bookkeeping at the end.
    const fs::path dir(options_.dir);
    const std::string tmp =
        (dir / strprintf(".tmp.%d.%llu",
                         static_cast<int>(::getpid()),
                         static_cast<unsigned long long>(
                             g_tmpCounter.fetch_add(1))))
            .string();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throwIoError("'%s': cannot create", tmp.c_str());
        BinaryWriter w(out);
        w.pod(kEntryMagic);
        w.pod(kEnvelopeVersion);
        w.str(key);
        w.pod<std::uint64_t>(payload.size());
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        w.pod(checksum64(payload.data(), payload.size()));
        if (!w.good()) {
            std::error_code ec;
            fs::remove(tmp, ec);
            throwIoError("'%s': short write", tmp.c_str());
        }
    }

    // Entry bytes hit the disk: an injected errno here stands in for
    // the write itself failing (ENOSPC mid-entry); data faults damage
    // the temp file, which the entry checksum turns into a later
    // lookup miss.
    if (const fault::FaultRule *r = FAULT_CHECK("result_cache.write")) {
        if (r->action.kind == fault::FaultKind::ErrnoFault) {
            std::error_code ec;
            fs::remove(tmp, ec);
            throwIoError("'%s': injected %s at fault site "
                         "result_cache.write", tmp.c_str(),
                         fault::errnoToken(r->action.arg).c_str());
        }
        fault::corruptFile(*r, tmp);
    }

    const std::string path = entryPath(key);

    // The atomic-rename publish boundary: injected errno stands in
    // for the rename failing (cross-device, quota); torn-rename
    // publishes a prefix of the entry, a damage class the rename
    // itself can never produce but a crashed writer's leftover can.
    if (const fault::FaultRule *r =
            FAULT_CHECK("result_cache.publish")) {
        if (r->action.kind == fault::FaultKind::ErrnoFault) {
            std::error_code ec;
            fs::remove(tmp, ec);
            throwIoError("'%s': injected %s at fault site "
                         "result_cache.publish", path.c_str(),
                         fault::errnoToken(r->action.arg).c_str());
        }
        fault::corruptFile(*r, tmp);
    }

    std::error_code ec;
    fs::rename(tmp, path, ec); // atomic publish
    if (ec) {
        const std::string why = ec.message();
        fs::remove(tmp, ec);
        throwIoError("'%s': cannot publish: %s", path.c_str(),
                     why.c_str());
    }

    std::error_code sec;
    const std::uint64_t bytes = fs::file_size(path, sec);

    std::lock_guard<std::mutex> lock(mu_);
    auto &e = entries_[key];
    totalBytes_ -= std::min(totalBytes_, e.bytes);
    e.bytes = sec ? 0 : bytes;
    e.seq = nextSeq_++;
    totalBytes_ += e.bytes;
    ++stats_.stores;

    evictToFitLocked();
    saveIndexLocked();
}

void
ResultCache::evictToFitLocked()
{
    if (options_.maxBytes == 0)
        return;
    while (totalBytes_ > options_.maxBytes && entries_.size() > 1) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (victim == entries_.end() ||
                it->second.seq < victim->second.seq)
                victim = it;
        }
        std::error_code ec;
        fs::remove(entryPath(victim->first), ec);
        totalBytes_ -= std::min(totalBytes_, victim->second.bytes);
        entries_.erase(victim);
        ++stats_.evictions;
    }
}

bool
ResultCache::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fs::exists(entryPath(key));
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::string
ResultCache::statsLine() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return strprintf(
        "result cache '%s': hits=%llu misses=%llu stores=%llu "
        "store-errors=%llu evictions=%llu entries=%zu bytes=%llu",
        options_.dir.c_str(),
        static_cast<unsigned long long>(stats_.hits),
        static_cast<unsigned long long>(stats_.misses),
        static_cast<unsigned long long>(stats_.stores),
        static_cast<unsigned long long>(stats_.failedStores),
        static_cast<unsigned long long>(stats_.evictions),
        entries_.size(),
        static_cast<unsigned long long>(totalBytes_));
}

std::optional<ResultCacheOptions>
resultCacheOptionsFromCli(const CliArgs &args)
{
    const std::string dir = args.getString(kCacheDirOption, "");
    const std::string modeStr = args.getString(
        kCacheModeOption, dir.empty() ? "off" : "rw");
    CacheMode mode;
    if (modeStr == "off")
        mode = CacheMode::Off;
    else if (modeStr == "ro")
        mode = CacheMode::ReadOnly;
    else if (modeStr == "rw")
        mode = CacheMode::ReadWrite;
    else
        fatal("--%s expects off, ro or rw; got '%s'",
              kCacheModeOption, modeStr.c_str());

    if (mode == CacheMode::Off) {
        if (!dir.empty() && args.has(kCacheModeOption))
            warn("--%s given but --%s=off: caching disabled",
                 kCacheDirOption, kCacheModeOption);
        return std::nullopt;
    }
    if (dir.empty())
        fatal("--%s=%s needs --%s=DIR", kCacheModeOption,
              modeStr.c_str(), kCacheDirOption);

    ResultCacheOptions o;
    o.dir = dir;
    o.mode = mode;
    return o;
}

std::unique_ptr<ResultCache>
resultCacheFromCli(const CliArgs &args)
{
    std::optional<ResultCacheOptions> o =
        resultCacheOptionsFromCli(args);
    return o ? std::make_unique<ResultCache>(std::move(*o)) : nullptr;
}

std::unique_ptr<ResultCache>
openCheckpointDir(const std::string &dir)
{
    if (dir.empty())
        return nullptr;
    ResultCacheOptions o;
    o.dir = dir;
    o.mode = CacheMode::ReadWrite;
    o.maxBytes = 0; // see header: no LRU eviction of checkpoints
    return std::make_unique<ResultCache>(std::move(o));
}

} // namespace tp::harness
