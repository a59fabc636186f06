#include "sim/checkpoint.hh"

#include <cstring>
#include <istream>

#include "common/binary_io.hh"
#include "common/hash.hh"

namespace tp::sim {

namespace {

template <typename T>
void
appendPod(std::string &bytes, const T &v)
{
    bytes.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

} // namespace

std::string
serializeCheckpoint(const Checkpoint &cp)
{
    // One allocation: header, payload and checksum are appended to
    // a buffer reserved to the exact envelope size.
    constexpr std::size_t kHeaderBytes =
        sizeof(kCheckpointMagic) + sizeof(kCheckpointFormatVersion) +
        2 * sizeof(std::uint64_t);
    std::string bytes;
    bytes.reserve(kHeaderBytes + cp.state.size() +
                  sizeof(std::uint64_t));
    appendPod(bytes, kCheckpointMagic);
    appendPod(bytes, kCheckpointFormatVersion);
    appendPod(bytes, cp.boundary);
    appendPod<std::uint64_t>(bytes, cp.state.size());
    bytes.append(cp.state);
    appendPod(bytes, fnv1a(bytes.data(), bytes.size()));
    return bytes;
}

Checkpoint
deserializeCheckpoint(const std::string &blob,
                      const std::string &name)
{
    if (blob.size() < sizeof(std::uint64_t))
        throwIoError("'%s': checkpoint truncated", name.c_str());
    const std::size_t body = blob.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, blob.data() + body, sizeof(stored));
    if (fnv1a(blob.data(), body) != stored)
        throwIoError("'%s': checkpoint checksum mismatch",
                     name.c_str());

    // The header is read in place; the payload is copied once,
    // straight out of `blob`.
    ByteViewBuf view(blob.data(), body);
    std::istream is(&view);
    BinaryReader r(is, name);
    if (r.pod<std::uint64_t>() != kCheckpointMagic)
        throwIoError("'%s': not a checkpoint file", name.c_str());
    const auto version = r.pod<std::uint32_t>();
    if (version != kCheckpointFormatVersion) {
        throwIoError("'%s': checkpoint format v%u (this build "
                     "reads v%u)",
                     name.c_str(), version, kCheckpointFormatVersion);
    }
    Checkpoint cp;
    cp.boundary = r.pod<std::uint64_t>();
    const auto len = r.pod<std::uint64_t>();
    const std::uint64_t left = r.remainingBytes();
    if (len > left)
        throwIoError("'%s': checkpoint truncated", name.c_str());
    if (len < left)
        throwIoError("'%s': trailing bytes after payload",
                     name.c_str());
    cp.state.assign(blob.data() + (body - left),
                    static_cast<std::size_t>(len));
    return cp;
}

} // namespace tp::sim
