#include "common/binary_io.hh"

#include <cstdarg>

namespace tp {

void
throwIoError(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = "io error: " + vstrprintf(fmt, ap);
    va_end(ap);
    throw IoError(msg);
}

void
StateIo::decodeRuns(const unsigned char *in, std::size_t len,
                    unsigned char *elems, std::size_t n,
                    std::size_t size) const
{
    std::size_t at = 0;
    for (std::size_t filled = 0; filled < n;) {
        TokenHeader header;
        if (len - at < sizeof(header))
            corrupt("state block (tokens stop short)");
        std::memcpy(&header, in + at, sizeof(header));
        at += sizeof(header);
        const std::size_t count = header >> 1;
        if (count == 0 || count > n - filled)
            corrupt("state block token count");
        unsigned char *to = elems + filled * size;
        if ((header & kRunBit) != 0) {
            if (len - at < size)
                corrupt("state block (run past its span)");
            std::memcpy(to, in + at, size);
            // Double the filled prefix until the run is complete.
            for (std::size_t done = 1; done < count;) {
                const std::size_t k = std::min(done, count - done);
                std::memcpy(to + done * size, to, k * size);
                done += k;
            }
            at += size;
        } else {
            if ((len - at) / size < count)
                corrupt("state block (literal past its span)");
            std::memcpy(to, in + at, count * size);
            at += count * size;
        }
        filled += count;
    }
    if (at != len)
        corrupt("state block (trailing bytes)");
}

} // namespace tp
