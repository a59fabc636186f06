/**
 * @file
 * Stable hashing: FNV-1a for keys, checksum64 for integrity.
 *
 * Keys. The result cache addresses entries by a hash of configuration
 * and trace content, so the hash must be stable across runs,
 * processes and library versions — std::hash guarantees none of
 * that. FNV-1a over an explicitly serialized byte buffer is used
 * instead; for content addressing, two independently seeded 64-bit
 * digests are concatenated into a 128-bit key so accidental
 * collisions are out of reach at any realistic cache population.
 * Fault plans seed their per-rule streams from it too. Its values
 * name things on disk, so they must never change.
 *
 * Integrity. Checkpoint, result-cache and result-stream envelopes
 * guard their payloads with checksum64 instead: FNV-1a is byte-serial
 * (one multiply per byte), while checksum64 runs four independent
 * lanes over 8-byte words and keeps pace with a memory copy.
 */

#ifndef TP_COMMON_HASH_HH
#define TP_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace tp {

/** FNV-1a offset basis (the default digest seed). */
inline constexpr std::uint64_t kFnvOffsetBasis =
    0xcbf29ce484222325ULL;

/** FNV-1a over a raw byte range. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = kFnvOffsetBasis);

/**
 * Word-parallel 64-bit integrity checksum of a raw byte range.
 *
 * Four lanes each take every fourth 8-byte word (host byte order)
 * through a multiply–xorshift step; the lanes, the remaining whole
 * words and the zero-padded final bytes are then folded into one
 * value seeded with a fixed constant and `len`. Every step is a
 * bijection of its running value for a fixed input word and of the
 * word for a fixed running value, so changing any single word — or
 * any single byte of the tail — always changes the result. It
 * detects damage; it is not a key (use fnv1a/hexDigest128 for
 * those).
 */
std::uint64_t checksum64(const void *data, std::size_t len);

/** @return `v` as 16 lowercase hex characters. */
std::string toHex(std::uint64_t v);

/**
 * The 128-bit content digest, fed in pieces: two FNV-1a lanes with
 * independent seeds (see file comment) take each byte in one pass,
 * so their multiply chains overlap and bytes produced piecewise (a
 * streamed serialization) never need to exist in one buffer.
 */
class Digest128
{
  public:
    /** Hash `len` more bytes. */
    void update(const void *data, std::size_t len);

    /** @return the digest of every byte so far, 32 hex characters. */
    std::string hex() const;

  private:
    std::uint64_t lo_ = kFnvOffsetBasis;
    std::uint64_t hi_ = kFnvOffsetBasis ^ 0x9e3779b97f4a7c15ULL;
};

/** Digest128 of `bytes` in one call. */
std::string hexDigest128(const std::string &bytes);

} // namespace tp

#endif // TP_COMMON_HASH_HH
