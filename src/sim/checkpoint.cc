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

constexpr std::size_t kHeaderBytes =
    sizeof(kCheckpointMagic) + sizeof(kCheckpointFormatVersion) +
    2 * sizeof(std::uint64_t);

} // namespace

std::string
serializeCheckpoint(Checkpoint &&cp)
{
    // Framed in the payload's own buffer: the header moves in front
    // of it and the checksum goes behind it.
    std::string header;
    appendPod(header, kCheckpointMagic);
    appendPod(header, kCheckpointFormatVersion);
    appendPod(header, cp.boundary);
    appendPod<std::uint64_t>(header, cp.state.size());
    std::string bytes = std::move(cp.state);
    bytes.insert(0, header);
    appendPod(bytes, checksum64(bytes.data(), bytes.size()));
    return bytes;
}

std::string
serializeCheckpoint(const Checkpoint &cp)
{
    // The copy has room for the header and checksum, so framing it
    // does not reallocate.
    Checkpoint copy;
    copy.boundary = cp.boundary;
    copy.state.reserve(kHeaderBytes + cp.state.size() +
                       sizeof(std::uint64_t));
    copy.state = cp.state;
    return serializeCheckpoint(std::move(copy));
}

Checkpoint
deserializeCheckpoint(const std::string &blob,
                      const std::string &name)
{
    return deserializeCheckpoint(std::string(blob), name);
}

Checkpoint
deserializeCheckpoint(std::string &&blob, const std::string &name)
{
    if (blob.size() < sizeof(std::uint64_t))
        throwIoError("'%s': checkpoint truncated", name.c_str());
    const std::size_t body = blob.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, blob.data() + body, sizeof(stored));
    if (checksum64(blob.data(), body) != stored)
        throwIoError("'%s': checkpoint checksum mismatch",
                     name.c_str());

    // The header is read in place; the payload then keeps `blob`'s
    // buffer.
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
    cp.state = std::move(blob);
    cp.state.resize(body);
    cp.state.erase(0, body - static_cast<std::size_t>(len));
    return cp;
}

} // namespace tp::sim
