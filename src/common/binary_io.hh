/**
 * @file
 * Primitive binary (de)serialization over std::iostreams.
 *
 * BinaryWriter/BinaryReader are the shared encoding layer of every
 * on-disk artifact (task traces in trace/trace_io, cached simulation
 * results in harness/result_cache): host-endian PODs and 64-bit
 * length-prefixed strings. Files are not portable across byte
 * orders — traces and cache directories are shared between
 * same-endianness hosts only (everything this project targets is
 * little-endian). StateIo layers one field declaration over either
 * of them, and every binary format is declared through it: the
 * checkpoint state of each component (see sim/checkpoint.hh) and
 * the wire formats — plans and shards, results and sampled
 * outcomes, batch results, timelines and traces.
 *
 * Corruption handling: readers throw IoError — a *recoverable*
 * subclass of SimError — on truncation or implausible lengths, never
 * panic()/fatal(). A batch that encounters a damaged trace or cache
 * file can therefore catch the error, treat the file as absent and
 * keep running; nothing short of a simulator bug aborts a campaign
 * because one file on disk went bad.
 */

#ifndef TP_COMMON_BINARY_IO_HH
#define TP_COMMON_BINARY_IO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <type_traits>

#include "common/logging.hh"

namespace tp {

/**
 * A damaged, truncated or otherwise unreadable binary file.
 *
 * Derives from SimError so existing catch sites keep working, but is
 * distinct from configuration errors: callers that can fall back
 * (e.g. the result cache treating a torn entry as a miss) catch this
 * type specifically.
 */
class IoError : public SimError
{
  public:
    explicit IoError(const std::string &what_arg)
        : SimError(what_arg)
    {}
};

/** Throw IoError with a printf-formatted message. */
[[noreturn]] void throwIoError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Binary encoder writing PODs, strings and vectors to a stream.
 *
 * Each field goes straight to the stream's buffer (sputn), without
 * the sentry of ostream::write: no stream written through a
 * BinaryWriter is tied to another or set to unitbuf, so the sentry
 * would only test good(), which bytes() does itself. As with
 * ostream::write, a short write sets badbit and a stream that is no
 * longer good is not written to again; an exception thrown by the
 * buffer propagates.
 */
class BinaryWriter
{
  public:
    explicit BinaryWriter(std::ostream &out) : out_(out) {}

    template <typename T>
    void
    pod(const T &v)
    {
        bytes(&v, sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod<std::uint64_t>(s.size());
        bytes(s.data(), s.size());
    }

    /** Write `n` raw bytes in one call. */
    void
    bytes(const void *p, std::size_t n)
    {
        if (!out_.good())
            return;
        const auto len = static_cast<std::streamsize>(n);
        if (out_.rdbuf()->sputn(static_cast<const char *>(p), len) != len)
            out_.setstate(std::ios::badbit);
    }

    /** @return whether every write so far succeeded. */
    bool good() const { return out_.good(); }

  private:
    std::ostream &out_;
};

/**
 * Binary decoder; the exact inverse of BinaryWriter.
 *
 * Every read validates stream state and throws IoError on failure.
 * String lengths are bounded (1 MiB) so a corrupt length field
 * fails immediately instead of attempting an absurd allocation;
 * callers decoding their own counted sequences must bound the
 * counts themselves (e.g. against remainingBytes()).
 */
class BinaryReader
{
  public:
    /** @param name label used in error messages (usually the path) */
    BinaryReader(std::istream &in, std::string name)
        : in_(in), name_(std::move(name))
    {}

    template <typename T>
    T
    pod()
    {
        T v{};
        bytes(&v, sizeof(T));
        return v;
    }

    std::string
    str()
    {
        const auto n = pod<std::uint64_t>();
        if (n > (1ULL << 20))
            throwIoError("'%s': corrupt string length", name_.c_str());
        std::string s(n, '\0');
        bytes(s.data(), n);
        return s;
    }

    /** Read exactly `n` raw bytes in one call. */
    void
    bytes(void *p, std::size_t n)
    {
        in_.read(static_cast<char *>(p), static_cast<std::streamsize>(n));
        if (!in_)
            throwIoError("'%s': file truncated", name_.c_str());
    }

    /**
     * @return bytes left between the current position and the end
     *         of the stream, or UINT64_MAX when the stream is not
     *         seekable. Used to sanity-bound untrusted counts
     *         before allocating for them.
     */
    std::uint64_t
    remainingBytes()
    {
        const std::istream::pos_type at = in_.tellg();
        if (at == std::istream::pos_type(-1))
            return std::numeric_limits<std::uint64_t>::max();
        in_.seekg(0, std::ios::end);
        const std::istream::pos_type end = in_.tellg();
        in_.seekg(at);
        if (end == std::istream::pos_type(-1) || end < at)
            return std::numeric_limits<std::uint64_t>::max();
        return static_cast<std::uint64_t>(end - at);
    }

    /** Throw IoError unless the stream is exactly exhausted. */
    void
    expectEof()
    {
        if (in_.peek() != std::istream::traits_type::eof())
            throwIoError("'%s': trailing bytes after payload",
                         name_.c_str());
    }

    /** @return label used in error messages. */
    const std::string &name() const { return name_; }

  private:
    std::istream &in_;
    std::string name_;
};

/**
 * A read-only, seekable std::streambuf over bytes the caller keeps
 * alive. An istream over it reads them in place, without the copy an
 * istringstream makes, and BinaryReader::remainingBytes() still
 * bounds counts by the bytes left.
 */
class ByteViewBuf : public std::streambuf
{
  public:
    ByteViewBuf(const char *data, std::size_t size)
    {
        // The get area is only read: streambuf never writes to it
        // (putback of a different byte fails instead).
        char *p = const_cast<char *>(data);
        setg(p, p, p + size);
    }

  protected:
    pos_type
    seekoff(off_type off, std::ios_base::seekdir dir,
            std::ios_base::openmode which) override
    {
        const off_type size = egptr() - eback();
        if (dir == std::ios_base::cur)
            off += gptr() - eback();
        else if (dir == std::ios_base::end)
            off += size;
        if (!(which & std::ios_base::in) || off < 0 || off > size)
            return pos_type(off_type(-1));
        setg(eback(), eback() + off, egptr());
        return pos_type(off);
    }

    pos_type
    seekpos(pos_type pos, std::ios_base::openmode which) override
    {
        return seekoff(off_type(pos), std::ios_base::beg, which);
    }
};

/**
 * The shared bool codec of every on-disk format: one byte, 0 or 1.
 * Centralised here so the plan, shard and result wire formats can
 * never drift apart.
 */
inline void
writeBool(BinaryWriter &w, bool v)
{
    w.pod<std::uint8_t>(v ? 1 : 0);
}

/** Exact inverse of writeBool; throws IoError on any other byte. */
inline bool
readBool(BinaryReader &r)
{
    const auto b = r.pod<std::uint8_t>();
    if (b > 1)
        throwIoError("'%s': corrupt boolean field",
                     r.name().c_str());
    return b == 1;
}

/**
 * One declaration of a binary format for both directions.
 *
 * A format lists each field once, in order: a checkpointed component
 * in `void state(StateIo &io)` (see sim/checkpoint.hh), a wire
 * struct in a `fields(StateIo &io, T &v)` beside its serializer.
 * Over a BinaryWriter the calls write the fields; over a
 * BinaryReader the same calls read them back into the same members,
 * so save and load cannot drift apart. Steps that only happen on
 * load — range checks, rebuilding derived members — go under
 * `if (io.loading())`. Writing only reads the members, so a
 * serializer may hand a const value to its declaration through a
 * const_cast.
 */
class StateIo
{
  public:
    explicit StateIo(BinaryWriter &w) : w_(&w) {}
    explicit StateIo(BinaryReader &r) : r_(&r) {}

    /** @return true when reading bytes back into the members. */
    bool loading() const { return r_ != nullptr; }

    /**
     * One POD field, stored as its own type or, when given, as
     * `Wire` (e.g. a size_t member kept as u64 on disk).
     */
    template <typename Wire = void, typename T>
    void
    pod(T &v)
    {
        using W = std::conditional_t<std::is_void_v<Wire>, T, Wire>;
        if (w_ != nullptr)
            w_->pod<W>(static_cast<W>(v));
        else
            v = static_cast<T>(r_->pod<W>());
    }

    /** A string field: u64 length, then the bytes. */
    void
    str(std::string &s)
    {
        if (w_ != nullptr)
            w_->str(s);
        else
            s = r_->str();
    }

    /** A bool (or bool-like, e.g. vector<bool> element) field. */
    template <typename B>
    void
    flag(B &&b)
    {
        if (w_ != nullptr)
            writeBool(*w_, static_cast<bool>(b));
        else
            b = readBool(*r_);
    }

    /** A u8 enum field; on load anything past `last` is corrupt. */
    template <typename E>
    void
    tag(E &e, E last, const char *what)
    {
        auto raw = static_cast<std::uint8_t>(e);
        pod(raw);
        if (loading()) {
            if (raw > static_cast<std::uint8_t>(last))
                corrupt(what);
            e = static_cast<E>(raw);
        }
    }

    /**
     * A fixed-length array of PODs (vector, std::array), run-length
     * encoded at element granularity:
     *
     *   u64  span length in bytes, then the span: tokens, each
     *   u32  header `count << 1 | run`, followed by
     *        - a run (low bit 1): one element, repeated `count` times
     *        - a literal (low bit 0): `count` elements verbatim
     *
     * The writer stores every run of two or more byte-equal elements
     * as a run token and the elements between runs as literal spans.
     * It encodes the whole array in memory and writes the span in one
     * call. On load the span is read in one call and every count is
     * bounded by the elements still to fill: a zero count, a token
     * overrunning the array or the span, tokens that stop short of
     * the array, bytes after the last token and a span longer than
     * the bytes left all throw IoError.
     */
    template <typename C>
    void
    block(C &c)
    {
        using T = std::remove_reference_t<decltype(*std::data(c))>;
        static_assert(std::is_trivially_copyable_v<T>);
        auto *elems = reinterpret_cast<unsigned char *>(std::data(c));
        const std::size_t n = std::size(c);
        // No valid span is longer: every token holds one element or
        // more and costs its header plus at most its elements.
        const std::size_t bound = n * (sizeof(TokenHeader) + sizeof(T));
        if (w_ != nullptr) {
            unsigned char *span = buffer(bound);
            const std::size_t len =
                encodeRuns<sizeof(T)>(elems, n, span);
            w_->pod<std::uint64_t>(len);
            w_->bytes(span, len);
        } else {
            const auto len = r_->pod<std::uint64_t>();
            if (len > bound || len > r_->remainingBytes())
                corrupt("state block length");
            unsigned char *span = buffer(static_cast<std::size_t>(len));
            r_->bytes(span, static_cast<std::size_t>(len));
            decodeRuns(span, static_cast<std::size_t>(len), elems, n,
                       sizeof(T));
        }
    }

    /**
     * A geometry count fixed by construction, stored as u64; on load
     * throws IoError naming `what` unless the stored one matches.
     */
    void
    count(std::uint64_t n, const char *what)
    {
        std::uint64_t stored = n;
        pod(stored);
        if (stored != n)
            throwIoError("'%s': %s mismatch (%llu stored, %llu "
                         "configured)",
                         r_->name().c_str(), what,
                         static_cast<unsigned long long>(stored),
                         static_cast<unsigned long long>(n));
    }

    /**
     * The length of a variable-length sequence `c`, stored as u64.
     * On load `c` is resized to it, after bounding it by the bytes
     * left (each element takes at least `min_bytes`).
     */
    template <typename C>
    void
    length(C &c, std::size_t min_bytes, const char *what)
    {
        std::uint64_t n = c.size();
        pod(n);
        if (loading()) {
            if (n > r_->remainingBytes() / min_bytes)
                corrupt(what);
            c.resize(static_cast<std::size_t>(n));
        }
    }

    /** Throw IoError: the bytes being read have a corrupt `what`. */
    [[noreturn]] void
    corrupt(const char *what) const
    {
        throwIoError("'%s': corrupt %s",
                     r_ != nullptr ? r_->name().c_str() : "checkpoint",
                     what);
    }

  private:
    /** A block token header: element count << 1 | kRunBit. */
    using TokenHeader = std::uint32_t;
    /** Low bit of a token header: the token is a run. */
    static constexpr TokenHeader kRunBit = 1;
    /** Largest element count one token header holds. */
    static constexpr std::size_t kMaxTokenCount =
        std::numeric_limits<TokenHeader>::max() >> 1;

    /**
     * Encode `n` elements of `Size` bytes at `elems` as block tokens
     * into `out`, which has room for the bound block() computes.
     * @return the span length
     */
    template <std::size_t Size>
    static std::size_t
    encodeRuns(const unsigned char *elems, std::size_t n,
               unsigned char *out)
    {
        unsigned char *o = out;
        const auto token = [&o](std::size_t count, TokenHeader run,
                                const unsigned char *from,
                                std::size_t bytes) {
            const auto header =
                static_cast<TokenHeader>(count << 1) | run;
            std::memcpy(o, &header, sizeof(header));
            std::memcpy(o + sizeof(header), from, bytes);
            o += sizeof(header) + bytes;
        };
        const auto literal = [&](std::size_t from, std::size_t to) {
            while (from < to) {
                const std::size_t k = std::min(to - from, kMaxTokenCount);
                token(k, 0, elems + from * Size, k * Size);
                from += k;
            }
        };
        std::size_t pending = 0; // first element of the open literal
        for (std::size_t i = 0; i < n;) {
            const unsigned char *e = elems + i * Size;
            std::size_t end = i + 1;
            while (end < n && std::memcmp(elems + end * Size, e, Size) == 0)
                ++end;
            if (end - i >= 2) {
                literal(pending, i);
                for (std::size_t left = end - i; left > 0;) {
                    const std::size_t k = std::min(left, kMaxTokenCount);
                    token(k, kRunBit, e, Size);
                    left -= k;
                }
                pending = end;
            }
            i = end;
        }
        literal(pending, n);
        return static_cast<std::size_t>(o - out);
    }

    /**
     * Decode the block span `in` of `len` bytes into `n` elements of
     * `size` bytes at `elems`; throws IoError on any malformed token.
     */
    void decodeRuns(const unsigned char *in, std::size_t len,
                    unsigned char *elems, std::size_t n,
                    std::size_t size) const;

    /** @return the reused block buffer, grown to `bytes` or more. */
    unsigned char *
    buffer(std::size_t bytes)
    {
        if (bytes > bufferBytes_) {
            buffer_ =
                std::make_unique_for_overwrite<unsigned char[]>(bytes);
            bufferBytes_ = bytes;
        }
        return buffer_.get();
    }

    BinaryWriter *w_ = nullptr;
    BinaryReader *r_ = nullptr;
    std::unique_ptr<unsigned char[]> buffer_;
    std::size_t bufferBytes_ = 0;
};

} // namespace tp

#endif // TP_COMMON_BINARY_IO_HH
