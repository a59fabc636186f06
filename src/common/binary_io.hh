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
 * little-endian). StateIo layers one declaration per checkpointed
 * component over either of them (see sim/checkpoint.hh).
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

#include <cstddef>
#include <cstdint>
#include <istream>
#include <iterator>
#include <limits>
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

/** Binary encoder writing PODs, strings and vectors to a stream. */
class BinaryWriter
{
  public:
    explicit BinaryWriter(std::ostream &out) : out_(out) {}

    template <typename T>
    void
    pod(const T &v)
    {
        out_.write(reinterpret_cast<const char *>(&v), sizeof(T));
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
        out_.write(static_cast<const char *>(p),
                   static_cast<std::streamsize>(n));
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
 * One declaration of a component's checkpoint state for both
 * directions (see sim/checkpoint.hh).
 *
 * A component lists each field once, in order, in
 * `void state(StateIo &io)`. Over a BinaryWriter the calls write the
 * fields; over a BinaryReader the same calls read them back into the
 * same members, so save and load cannot drift apart. Steps that only
 * happen on load — range checks, rebuilding derived members — go
 * under `if (io.loading())`.
 */
class StateIo
{
  public:
    explicit StateIo(BinaryWriter &w) : w_(&w) {}
    explicit StateIo(BinaryReader &r) : r_(&r) {}

    /** @return true when reading a checkpoint into the members. */
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

    /** A fixed-length array of PODs (vector, std::array), one call. */
    template <typename C>
    void
    block(C &c)
    {
        static_assert(std::is_trivially_copyable_v<
                      std::remove_reference_t<decltype(*std::data(c))>>);
        const std::size_t n = std::size(c) * sizeof(*std::data(c));
        if (w_ != nullptr)
            w_->bytes(std::data(c), n);
        else
            r_->bytes(std::data(c), n);
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

    /** Throw IoError: the checkpoint being read has a corrupt `what`. */
    [[noreturn]] void
    corrupt(const char *what) const
    {
        throwIoError("'%s': corrupt %s",
                     r_ != nullptr ? r_->name().c_str() : "checkpoint",
                     what);
    }

  private:
    BinaryWriter *w_ = nullptr;
    BinaryReader *r_ = nullptr;
};

} // namespace tp

#endif // TP_COMMON_BINARY_IO_HH
