/**
 * @file
 * Binary (de)serialization of simulation outcomes.
 *
 * The payload formats behind harness/result_cache: every field of
 * SimResult — including doubles by bit pattern, the optional
 * per-instance TaskRecords and the memory-hierarchy statistics — is
 * written so that a deserialized result is bit-identical to the
 * original, and the same guarantee extends to whole SampledOutcomes
 * (result + sampling statistics + phase log + history fill levels).
 * Cached runs must be indistinguishable from freshly simulated ones;
 * any lossy encoding here would silently corrupt error figures.
 *
 * Corruption raises IoError (recoverable, see common/binary_io);
 * the result cache treats that as a miss.
 */

#ifndef TP_SIM_RESULT_IO_HH
#define TP_SIM_RESULT_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sim_result.hh"

namespace tp {
class StateIo;
}

namespace tp::harness {
struct SampledOutcome;
}

namespace tp::sim {

/**
 * Version of the SimResult payload encoding. Bump whenever SimResult
 * or any nested struct changes shape; the version participates in
 * result-cache keys, so stale entries from an older build miss
 * instead of decoding garbage.
 */
inline constexpr std::uint32_t kResultFormatVersion = 1;

/**
 * The one field list of a SimResult, for both directions (StateIo,
 * common/binary_io.hh): serializeResult, deserializeResult and every
 * format that embeds a result go through it.
 */
void fields(StateIo &io, SimResult &r);

/** The one field list of a SampledOutcome (its result comes first). */
void fields(StateIo &io, harness::SampledOutcome &o);

/** Write `r` to a stream (payload only, no framing or checksum). */
void serializeResult(const SimResult &r, std::ostream &out);

/**
 * Read a SimResult back; exact inverse of serializeResult.
 *
 * @param name label for error messages
 * @throws IoError on truncation or corrupt lengths
 */
SimResult deserializeResult(std::istream &in, const std::string &name);

/**
 * Version of the SampledOutcome payload encoding. Bump whenever
 * SampledOutcome, SamplingStats or PhaseChange changes shape; it
 * participates in sampled-result cache keys (see
 * harness::sampledCacheKey).
 *
 * v2: appended the adaptive-sampling diagnostics block.
 *
 * v3: the diagnostics block gained budgetStopped (the detail-budget
 * stop reason).
 */
inline constexpr std::uint32_t kSampledFormatVersion = 3;

/**
 * Version of the checksummed result envelope (see writeEnvelope).
 * Bump when the framing itself changes shape.
 *
 * v2: the payload checksum is checksum64 (common/hash), not FNV-1a.
 */
inline constexpr std::uint32_t kEnvelopeFormatVersion = 2;

/**
 * Wrap `payload` in the shared result envelope: magic, envelope
 * version, 64-bit payload length, the payload bytes, and a
 * checksum64 of the payload. This is the framing of the result
 * streams dispatch runners ship to the coordinator: a runner appends
 * one envelope per finished job and flushes, and the coordinator's
 * EnvelopeStreamReader sees either complete, checksum-verified
 * payloads, an incomplete tail it leaves for the next poll, or a
 * recoverable IoError — never silently truncated data.
 */
void writeEnvelope(std::ostream &out, const std::string &payload);

/**
 * Incremental reader over a *live* stream of concatenated envelopes.
 *
 * The envelope framing concatenates cleanly, so a runner can append
 * one envelope per finished job to its task's single `.tprs` stream
 * file and a coordinator can tail it while it grows — a million-job
 * sweep then produces one result file per task, not per job. A
 * partially appended tail (the writer died, or the bytes are still in
 * flight) is *not* corruption: poll() consumes every complete,
 * checksum-verified envelope past the cursor and leaves an incomplete
 * tail for the next poll. Bytes that can never become a valid
 * envelope — wrong magic or version, a verifiably wrong checksum, or
 * a stream that shrank below the cursor — raise IoError; the caller
 * treats the whole stream (and hence the task behind it) as failed.
 *
 * The reader holds no file handle between polls; it reopens and
 * seeks, so it works over shared filesystems where the writer is
 * another machine.
 */
class EnvelopeStreamReader
{
  public:
    /** Tail `path`; the file may not exist yet (poll() finds 0). */
    explicit EnvelopeStreamReader(std::string path);

    /**
     * Append every newly completed envelope payload to `out`.
     *
     * @return the number of envelopes appended
     * @throws IoError on definite corruption (see class comment)
     */
    std::size_t poll(std::vector<std::string> &out);

    /** @return byte offset of the first unconsumed envelope. */
    std::uint64_t offset() const { return offset_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::uint64_t offset_ = 0;
};

/** Write a whole sampled outcome (payload only, no framing). */
void serializeSampledOutcome(const harness::SampledOutcome &o,
                             std::ostream &out);

/**
 * Read a SampledOutcome back; exact inverse of
 * serializeSampledOutcome.
 *
 * @param name label for error messages
 * @throws IoError on truncation or corrupt lengths
 */
harness::SampledOutcome
deserializeSampledOutcome(std::istream &in, const std::string &name);

} // namespace tp::sim

#endif // TP_SIM_RESULT_IO_HH
