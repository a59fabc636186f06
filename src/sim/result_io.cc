#include "sim/result_io.hh"

#include <fstream>

#include "common/binary_io.hh"
#include "common/hash.hh"
#include "harness/experiment.hh"

namespace tp::sim {

namespace {

constexpr std::uint64_t kEnvelopeMagic = 0x5450454e56310a00ULL; // TPENV1.

/** Largest length any list of a result payload may claim. */
constexpr std::uint64_t kMaxListLength = 1ULL << 32;

/** Bytes of one TaskRecord and one PhaseChange on the wire. */
constexpr std::size_t kTaskRecordBytes = 49;
constexpr std::size_t kPhaseChangeBytes = 9;

/** A list length, bounded by the bytes left and kMaxListLength. */
template <typename C>
void
listLength(StateIo &io, C &c, std::size_t min_bytes, const char *what)
{
    io.length(c, min_bytes, what);
    if (io.loading() && c.size() > kMaxListLength)
        io.corrupt(what);
}

void
fields(StateIo &io, mem::CacheStats &s)
{
    io.pod(s.accesses);
    io.pod(s.hits);
    io.pod(s.misses);
    io.pod(s.evictions);
    io.pod(s.writebacks);
    io.pod(s.invalidations);
    io.pod(s.prefetchFills);
}

void
fields(StateIo &io, TaskRecord &t)
{
    io.pod(t.id);
    io.pod(t.type);
    io.pod(t.thread);
    io.pod(t.start);
    io.pod(t.end);
    io.pod(t.insts);
    io.tag(t.mode, SimMode::Fast, "task mode");
    io.pod(t.ipc);
}

} // namespace

void
fields(StateIo &io, SimResult &r)
{
    io.pod(r.totalCycles);
    io.pod(r.detailedTasks);
    io.pod(r.fastTasks);
    io.pod(r.detailedInsts);
    io.pod(r.fastInsts);
    io.pod(r.wallSeconds);
    io.pod(r.avgActiveCores);

    fields(io, r.memStats.l1);
    fields(io, r.memStats.l2);
    fields(io, r.memStats.l3);
    io.pod(r.memStats.dramRequests);
    io.pod(r.memStats.dramMeanQueueDelay);
    io.pod(r.memStats.coherenceInvalidations);

    listLength(io, r.tasks, kTaskRecordBytes, "task-record count");
    for (TaskRecord &t : r.tasks)
        fields(io, t);
}

void
fields(StateIo &io, harness::SampledOutcome &o)
{
    fields(io, o.result);

    sampling::SamplingStats &s = o.stats;
    io.pod(s.warmupTasks);
    io.pod(s.sampleTasks);
    io.pod(s.fastTasks);
    io.pod(s.resamples);
    io.pod(s.resamplesPeriod);
    io.pod(s.resamplesNewType);
    io.pod(s.resamplesConcurrency);
    io.pod(s.phaseChanges);

    listLength(io, o.phaseLog, kPhaseChangeBytes, "phase-log count");
    for (sampling::PhaseChange &c : o.phaseLog) {
        io.pod(c.at);
        io.tag(c.to, sampling::Phase::Fast, "phase value");
    }

    listLength(io, o.validHistSizes, sizeof(std::uint64_t),
               "history-size count");
    for (std::size_t &n : o.validHistSizes)
        io.pod<std::uint64_t>(n);

    sampling::AdaptiveDiagnostics &a = o.adaptive;
    io.flag(a.enabled);
    io.pod(a.targetError);
    io.pod(a.finalRelHalfWidth);
    io.pod(a.stopCycle);
    io.pod(a.allocationRounds);
    io.flag(a.cutoffStopped);
    io.flag(a.budgetStopped);
    listLength(io, a.strataSamples, sizeof(std::uint64_t),
               "strata-sample count");
    for (std::uint64_t &n : a.strataSamples)
        io.pod(n);
}

void
serializeResult(const SimResult &r, std::ostream &out)
{
    BinaryWriter w(out);
    StateIo io(w);
    fields(io, const_cast<SimResult &>(r));
}

SimResult
deserializeResult(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    StateIo io(r);
    SimResult res;
    fields(io, res);
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
    BinaryWriter w(out);
    StateIo io(w);
    fields(io, const_cast<harness::SampledOutcome &>(o));
}

harness::SampledOutcome
deserializeSampledOutcome(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    StateIo io(r);
    harness::SampledOutcome o;
    fields(io, o);
    return o;
}

} // namespace tp::sim
