#include "sim/result_io.hh"

#include <algorithm>
#include <fstream>

#include "common/binary_io.hh"
#include "common/hash.hh"
#include "harness/experiment.hh"

namespace tp::sim {

namespace {

constexpr std::uint64_t kEnvelopeMagic = 0x5450454e56310a00ULL; // TPENV1.

void
writeCacheStats(BinaryWriter &w, const mem::CacheStats &s)
{
    w.pod(s.accesses);
    w.pod(s.hits);
    w.pod(s.misses);
    w.pod(s.evictions);
    w.pod(s.writebacks);
    w.pod(s.invalidations);
    w.pod(s.prefetchFills);
}

mem::CacheStats
readCacheStats(BinaryReader &r)
{
    mem::CacheStats s;
    s.accesses = r.pod<std::uint64_t>();
    s.hits = r.pod<std::uint64_t>();
    s.misses = r.pod<std::uint64_t>();
    s.evictions = r.pod<std::uint64_t>();
    s.writebacks = r.pod<std::uint64_t>();
    s.invalidations = r.pod<std::uint64_t>();
    s.prefetchFills = r.pod<std::uint64_t>();
    return s;
}

} // namespace

void
serializeResult(const SimResult &r, std::ostream &out)
{
    BinaryWriter w(out);
    w.pod(r.totalCycles);
    w.pod(r.detailedTasks);
    w.pod(r.fastTasks);
    w.pod(r.detailedInsts);
    w.pod(r.fastInsts);
    w.pod(r.wallSeconds);
    w.pod(r.avgActiveCores);

    writeCacheStats(w, r.memStats.l1);
    writeCacheStats(w, r.memStats.l2);
    writeCacheStats(w, r.memStats.l3);
    w.pod(r.memStats.dramRequests);
    w.pod(r.memStats.dramMeanQueueDelay);
    w.pod(r.memStats.coherenceInvalidations);

    w.pod<std::uint64_t>(r.tasks.size());
    for (const TaskRecord &t : r.tasks) {
        w.pod(t.id);
        w.pod(t.type);
        w.pod(t.thread);
        w.pod(t.start);
        w.pod(t.end);
        w.pod(t.insts);
        w.pod(static_cast<std::uint8_t>(t.mode));
        w.pod(t.ipc);
    }
}

SimResult
deserializeResult(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    SimResult res;
    res.totalCycles = r.pod<Cycles>();
    res.detailedTasks = r.pod<std::uint64_t>();
    res.fastTasks = r.pod<std::uint64_t>();
    res.detailedInsts = r.pod<InstCount>();
    res.fastInsts = r.pod<InstCount>();
    res.wallSeconds = r.pod<double>();
    res.avgActiveCores = r.pod<double>();

    res.memStats.l1 = readCacheStats(r);
    res.memStats.l2 = readCacheStats(r);
    res.memStats.l3 = readCacheStats(r);
    res.memStats.dramRequests = r.pod<std::uint64_t>();
    res.memStats.dramMeanQueueDelay = r.pod<double>();
    res.memStats.coherenceInvalidations = r.pod<std::uint64_t>();

    const auto ntasks = r.pod<std::uint64_t>();
    if (ntasks > (1ULL << 32))
        throwIoError("'%s': corrupt task-record count", name.c_str());
    // Pre-size only within reason: ntasks is untrusted until the
    // reads below prove the stream actually holds that many records.
    res.tasks.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(ntasks, 1ULL << 16)));
    for (std::uint64_t i = 0; i < ntasks; ++i) {
        TaskRecord t;
        t.id = r.pod<TaskInstanceId>();
        t.type = r.pod<TaskTypeId>();
        t.thread = r.pod<ThreadId>();
        t.start = r.pod<Cycles>();
        t.end = r.pod<Cycles>();
        t.insts = r.pod<InstCount>();
        t.mode = static_cast<SimMode>(r.pod<std::uint8_t>());
        t.ipc = r.pod<double>();
        res.tasks.push_back(t);
    }
    return res;
}

void
writeEnvelope(std::ostream &out, const std::string &payload)
{
    BinaryWriter w(out);
    w.pod(kEnvelopeMagic);
    w.pod(kEnvelopeFormatVersion);
    w.pod<std::uint64_t>(payload.size());
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    w.pod(checksum64(payload.data(), payload.size()));
}

std::string
readEnvelope(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    if (r.pod<std::uint64_t>() != kEnvelopeMagic)
        throwIoError("'%s': not a result envelope", name.c_str());
    if (r.pod<std::uint32_t>() != kEnvelopeFormatVersion)
        throwIoError("'%s': unsupported envelope version",
                     name.c_str());
    const auto len = r.pod<std::uint64_t>();
    // Bound the allocation by what the stream can actually hold so a
    // corrupt length fails fast instead of attempting gigabytes.
    if (len > r.remainingBytes())
        throwIoError("'%s': corrupt envelope payload length",
                     name.c_str());
    std::string payload(static_cast<std::size_t>(len), '\0');
    in.read(payload.data(), static_cast<std::streamsize>(len));
    if (!in)
        throwIoError("'%s': file truncated", name.c_str());
    const std::uint64_t checksum = r.pod<std::uint64_t>();
    r.expectEof();
    if (checksum != checksum64(payload.data(), payload.size()))
        throwIoError("'%s': envelope checksum mismatch",
                     name.c_str());
    return payload;
}

EnvelopeStreamReader::EnvelopeStreamReader(std::string path)
    : path_(std::move(path))
{
}

std::size_t
EnvelopeStreamReader::poll(std::vector<std::string> &out)
{
    std::ifstream in(path_, std::ios::binary);
    if (!in)
        return 0; // the writer has not created the stream yet

    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    if (end < 0)
        throwIoError("'%s': cannot determine stream size",
                     path_.c_str());
    const auto size = static_cast<std::uint64_t>(end);
    if (size < offset_)
        throwIoError("'%s': stream shrank below read offset %llu",
                     path_.c_str(),
                     static_cast<unsigned long long>(offset_));

    // Header = magic(8) + version(4) + payload length(8); the
    // trailer is the 8-byte payload checksum.
    constexpr std::uint64_t kHeader = 8 + 4 + 8;
    constexpr std::uint64_t kTrailer = 8;

    std::size_t consumed = 0;
    while (size - offset_ >= kHeader) {
        in.clear();
        in.seekg(static_cast<std::streamoff>(offset_));
        BinaryReader r(in, path_);
        if (r.pod<std::uint64_t>() != kEnvelopeMagic)
            throwIoError("'%s': bad envelope magic at offset %llu",
                         path_.c_str(),
                         static_cast<unsigned long long>(offset_));
        if (r.pod<std::uint32_t>() != kEnvelopeFormatVersion)
            throwIoError("'%s': unsupported envelope version at "
                         "offset %llu",
                         path_.c_str(),
                         static_cast<unsigned long long>(offset_));
        const auto len = r.pod<std::uint64_t>();
        // An incomplete tail is the normal live-stream state: the
        // writer appended the header (or part of the payload) but
        // not yet the rest. Leave the cursor for the next poll.
        if (size - offset_ < kHeader + len + kTrailer)
            break;
        std::string payload(static_cast<std::size_t>(len), '\0');
        in.read(payload.data(), static_cast<std::streamsize>(len));
        if (!in)
            throwIoError("'%s': short read at offset %llu",
                         path_.c_str(),
                         static_cast<unsigned long long>(offset_));
        const std::uint64_t checksum = r.pod<std::uint64_t>();
        // All bytes of this envelope are present, so a mismatch is
        // definite corruption, not an in-flight append.
        if (checksum != checksum64(payload.data(), payload.size()))
            throwIoError("'%s': envelope checksum mismatch at "
                         "offset %llu",
                         path_.c_str(),
                         static_cast<unsigned long long>(offset_));
        offset_ += kHeader + len + kTrailer;
        out.push_back(std::move(payload));
        ++consumed;
    }
    return consumed;
}

void
serializeSampledOutcome(const harness::SampledOutcome &o,
                        std::ostream &out)
{
    serializeResult(o.result, out);

    BinaryWriter w(out);
    const sampling::SamplingStats &s = o.stats;
    w.pod(s.warmupTasks);
    w.pod(s.sampleTasks);
    w.pod(s.fastTasks);
    w.pod(s.resamples);
    w.pod(s.resamplesPeriod);
    w.pod(s.resamplesNewType);
    w.pod(s.resamplesConcurrency);
    w.pod(s.phaseChanges);

    w.pod<std::uint64_t>(o.phaseLog.size());
    for (const sampling::PhaseChange &c : o.phaseLog) {
        w.pod(c.at);
        w.pod(static_cast<std::uint8_t>(c.to));
    }

    w.pod<std::uint64_t>(o.validHistSizes.size());
    for (std::size_t n : o.validHistSizes)
        w.pod<std::uint64_t>(n);

    const sampling::AdaptiveDiagnostics &a = o.adaptive;
    w.pod<std::uint8_t>(a.enabled ? 1 : 0);
    w.pod(a.targetError);
    w.pod(a.finalRelHalfWidth);
    w.pod(a.stopCycle);
    w.pod(a.allocationRounds);
    w.pod<std::uint8_t>(a.cutoffStopped ? 1 : 0);
    w.pod<std::uint8_t>(a.budgetStopped ? 1 : 0);
    w.pod<std::uint64_t>(a.strataSamples.size());
    for (std::uint64_t n : a.strataSamples)
        w.pod(n);
}

harness::SampledOutcome
deserializeSampledOutcome(std::istream &in, const std::string &name)
{
    harness::SampledOutcome o;
    o.result = deserializeResult(in, name);

    BinaryReader r(in, name);
    sampling::SamplingStats &s = o.stats;
    s.warmupTasks = r.pod<std::uint64_t>();
    s.sampleTasks = r.pod<std::uint64_t>();
    s.fastTasks = r.pod<std::uint64_t>();
    s.resamples = r.pod<std::uint64_t>();
    s.resamplesPeriod = r.pod<std::uint64_t>();
    s.resamplesNewType = r.pod<std::uint64_t>();
    s.resamplesConcurrency = r.pod<std::uint64_t>();
    s.phaseChanges = r.pod<std::uint64_t>();

    const auto nphases = r.pod<std::uint64_t>();
    if (nphases > (1ULL << 32))
        throwIoError("'%s': corrupt phase-log count", name.c_str());
    o.phaseLog.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(nphases, 1ULL << 16)));
    for (std::uint64_t i = 0; i < nphases; ++i) {
        sampling::PhaseChange c;
        c.at = r.pod<Cycles>();
        const auto phase = r.pod<std::uint8_t>();
        if (phase >
            static_cast<std::uint8_t>(sampling::Phase::Fast))
            throwIoError("'%s': corrupt phase value", name.c_str());
        c.to = static_cast<sampling::Phase>(phase);
        o.phaseLog.push_back(c);
    }

    const auto ntypes = r.pod<std::uint64_t>();
    if (ntypes > (1ULL << 32))
        throwIoError("'%s': corrupt history-size count",
                     name.c_str());
    o.validHistSizes.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(ntypes, 1ULL << 16)));
    for (std::uint64_t i = 0; i < ntypes; ++i)
        o.validHistSizes.push_back(
            static_cast<std::size_t>(r.pod<std::uint64_t>()));

    sampling::AdaptiveDiagnostics &a = o.adaptive;
    a.enabled = r.pod<std::uint8_t>() != 0;
    a.targetError = r.pod<double>();
    a.finalRelHalfWidth = r.pod<double>();
    a.stopCycle = r.pod<Cycles>();
    a.allocationRounds = r.pod<std::uint64_t>();
    a.cutoffStopped = r.pod<std::uint8_t>() != 0;
    a.budgetStopped = r.pod<std::uint8_t>() != 0;
    const auto nstrata = r.pod<std::uint64_t>();
    if (nstrata > (1ULL << 32))
        throwIoError("'%s': corrupt strata-sample count",
                     name.c_str());
    a.strataSamples.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(nstrata, 1ULL << 16)));
    for (std::uint64_t i = 0; i < nstrata; ++i)
        a.strataSamples.push_back(r.pod<std::uint64_t>());
    return o;
}

} // namespace tp::sim
