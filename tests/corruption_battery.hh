/**
 * @file
 * Shared corruption batteries for serialized-artifact tests.
 *
 * Every durable format in the tree (trace files, result-cache
 * entries, checkpoints, plan shards, fault plans) owes its readers
 * the same promise: systematically damaged bytes are rejected with a
 * recoverable error — or, for formats whose unit of damage is an
 * entry, read as absence — and never crash, hang, or silently decode
 * to the wrong value. These helpers
 * sweep the two canonical damage families (every-prefix truncation
 * and single-bit flips) so each format's test states its contract in
 * one line instead of re-growing its own copy of the loops.
 *
 * Three contracts, strongest first:
 *  - *Throw*: every damaged input raises SimError/IoError
 *    (checksummed envelopes such as checkpoints).
 *  - *Handled*: every damaged input either raises SimError or
 *    decodes; a decode callback that also verifies faithfulness
 *    turns this into "never silently wrong" (length-framed formats
 *    where some flips land in payload bytes: plan shards, text
 *    fault plans).
 *  - *Rejected*: every damaged artifact reads as a miss (the result
 *    cache, where damage must look like absence, not error).
 */

#ifndef TP_TESTS_CORRUPTION_BATTERY_HH
#define TP_TESTS_CORRUPTION_BATTERY_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>

#include "common/logging.hh"

namespace tp::test {

/** Attempt decoding `bytes`; throws SimError-family on damage. */
using Decode = std::function<void(const std::string &bytes)>;

/**
 * Probe a miss-semantics store with a damaged artifact; @return
 * true when the store (incorrectly) accepted it.
 */
using Probe = std::function<bool(const std::string &damaged)>;

namespace detail {

/** Sweep positions 0..size-1 at `stride` plus the final position. */
template <typename Fn>
void
sweep(std::size_t size, std::size_t stride, Fn &&fn)
{
    if (size == 0)
        return;
    stride = std::max<std::size_t>(stride, 1);
    for (std::size_t pos = 0; pos < size; pos += stride)
        fn(pos);
    if ((size - 1) % stride != 0)
        fn(size - 1); // off-by-one damage is the classic tear
}

} // namespace detail

/**
 * Every strict prefix of `bytes` (lengths swept at `stride`, always
 * including empty and drop-last-byte) must raise `Err` (SimError by
 * default; name IoError to pin the stricter type).
 */
template <typename Err = SimError>
void
expectTruncationsThrow(const std::string &bytes,
                       const Decode &decode, std::size_t stride = 1)
{
    detail::sweep(bytes.size(), stride, [&](std::size_t len) {
        SCOPED_TRACE("truncated to " + std::to_string(len) +
                     " of " + std::to_string(bytes.size()));
        EXPECT_THROW(decode(bytes.substr(0, len)), Err);
    });
}

/**
 * Flipping any single bit of any byte (positions swept at
 * `byteStride`, all 8 bits per visited byte) must raise `Err`.
 */
template <typename Err = SimError>
void
expectBitFlipsThrow(const std::string &bytes, const Decode &decode,
                    std::size_t byteStride = 1)
{
    detail::sweep(bytes.size(), byteStride, [&](std::size_t pos) {
        for (int bit = 0; bit < 8; ++bit) {
            SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                         std::to_string(pos));
            std::string bad = bytes;
            bad[pos] =
                static_cast<char>(bad[pos] ^ (1 << bit));
            EXPECT_THROW(decode(bad), Err);
        }
    });
}

/**
 * Weaker truncation contract: each strict prefix either raises
 * SimError or decodes. Any other exception (bad_alloc, logic_error,
 * a crash) fails the test.
 */
inline void
expectTruncationsHandled(const std::string &bytes,
                         const Decode &decode,
                         std::size_t stride = 1)
{
    detail::sweep(bytes.size(), stride, [&](std::size_t len) {
        SCOPED_TRACE("truncated to " + std::to_string(len) +
                     " of " + std::to_string(bytes.size()));
        try {
            decode(bytes.substr(0, len));
        } catch (const SimError &) {
            // Rejected cleanly — the contract's other branch.
        }
    });
}

/**
 * Weaker bit-flip contract: each single-bit flip either raises
 * SimError or decodes. Pass a `decode` that verifies what it
 * decoded (e.g. re-encodes and compares against the damaged input)
 * to additionally pin "a decode that succeeds is faithful".
 */
inline void
expectBitFlipsHandled(const std::string &bytes, const Decode &decode,
                      std::size_t byteStride = 1)
{
    detail::sweep(bytes.size(), byteStride, [&](std::size_t pos) {
        for (int bit = 0; bit < 8; ++bit) {
            SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                         std::to_string(pos));
            std::string bad = bytes;
            bad[pos] =
                static_cast<char>(bad[pos] ^ (1 << bit));
            try {
                decode(bad);
            } catch (const SimError &) {
            }
        }
    });
}

/**
 * Miss-semantics battery: truncations of `bytes` (lengths swept at
 * `stride`) and single-bit flips (positions swept at `stride`) must
 * all be rejected by `accepted` — damage reads as absence.
 */
inline void
expectDamageRejected(const std::string &bytes, const Probe &accepted,
                     std::size_t stride = 1)
{
    detail::sweep(bytes.size(), stride, [&](std::size_t len) {
        SCOPED_TRACE("truncated to " + std::to_string(len) +
                     " of " + std::to_string(bytes.size()));
        EXPECT_FALSE(accepted(bytes.substr(0, len)));
    });
    detail::sweep(bytes.size(), stride, [&](std::size_t pos) {
        SCOPED_TRACE("flip at byte " + std::to_string(pos));
        std::string bad = bytes;
        bad[pos] = static_cast<char>(bad[pos] ^ 0xff);
        EXPECT_FALSE(accepted(bad));
    });
}

} // namespace tp::test

#endif // TP_TESTS_CORRUPTION_BATTERY_HH
