#include "common/hash.hh"

#include <cstring>

namespace tp {

namespace {

/** One FNV-1a step: xor in a byte, multiply by the FNV prime. */
inline std::uint64_t
fnvStep(std::uint64_t h, unsigned char byte)
{
    return (h ^ byte) * 0x100000001b3ULL;
}

/**
 * One checksum step: xor in `w`, multiply by an odd constant, fold
 * the high half down. Each part is invertible, so the step is a
 * bijection of `s` (for fixed `w`) and of `w` (for fixed `s`).
 */
inline std::uint64_t
mixWord(std::uint64_t s, std::uint64_t w)
{
    s = (s ^ w) * 0x9fb21c651e98df25ULL;
    return s ^ (s >> 29);
}

/** Seed of checksum64; its values are on disk, so it is fixed. */
constexpr std::uint64_t kChecksumSeed = 0x54504348454b3634ULL;

inline std::uint64_t
loadWord(const unsigned char *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i)
        h = fnvStep(h, p[i]);
    return h;
}

void
Digest128::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t lo = lo_;
    std::uint64_t hi = hi_;
    for (std::size_t i = 0; i < len; ++i) {
        lo = fnvStep(lo, p[i]);
        hi = fnvStep(hi, p[i]);
    }
    lo_ = lo;
    hi_ = hi;
}

std::string
Digest128::hex() const
{
    return toHex(hi_) + toHex(lo_);
}

std::uint64_t
checksum64(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const std::uint64_t seed = kChecksumSeed;
    std::uint64_t a = seed ^ 0x9e3779b97f4a7c15ULL;
    std::uint64_t b = seed ^ 0xc2b2ae3d27d4eb4fULL;
    std::uint64_t c = seed ^ 0x165667b19e3779f9ULL;
    std::uint64_t d = seed ^ 0x85ebca77c2b2ae63ULL;
    std::size_t i = 0;
    for (; len - i >= 32; i += 32) {
        a = mixWord(a, loadWord(p + i));
        b = mixWord(b, loadWord(p + i + 8));
        c = mixWord(c, loadWord(p + i + 16));
        d = mixWord(d, loadWord(p + i + 24));
    }
    std::uint64_t h = mixWord(seed, len);
    h = mixWord(h, a);
    h = mixWord(h, b);
    h = mixWord(h, c);
    h = mixWord(h, d);
    for (; len - i >= 8; i += 8)
        h = mixWord(h, loadWord(p + i));
    if (i < len) {
        std::uint64_t tail = 0;
        std::memcpy(&tail, p + i, len - i);
        h = mixWord(h, tail);
    }
    return mixWord(h, 0x2545f4914f6cdd1dULL);
}

std::string
toHex(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return s;
}

std::string
hexDigest128(const std::string &bytes)
{
    Digest128 d;
    d.update(bytes.data(), bytes.size());
    return d.hex();
}

} // namespace tp
