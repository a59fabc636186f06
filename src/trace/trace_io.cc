#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "common/binary_io.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"

namespace tp::trace {

namespace {

constexpr std::uint64_t kMagic = 0x5450545243453101ULL; // "TPTRCE1."
constexpr std::uint32_t kVersion = 1;

/**
 * Bytes a task type takes at least (id, name and variant-count
 * lengths), and a task instance exactly, on the wire.
 */
constexpr std::size_t kMinTypeBytes = 20;
constexpr std::size_t kInstanceBytes = 50;
/** Bytes of one KernelProfile on the wire. */
constexpr std::size_t kProfileBytes = 85;

/** Largest counts a trace may claim. */
constexpr std::uint64_t kMaxTypes = 1ULL << 20;
constexpr std::uint64_t kMaxVariants = 1ULL << 16;
constexpr std::uint64_t kMaxInstances = 1ULL << 32;

void
fields(StateIo &io, KernelProfile &p)
{
    io.pod(p.loadFrac);
    io.pod(p.storeFrac);
    io.pod(p.branchFrac);
    io.pod(p.fpFrac);
    io.pod(p.mulFrac);
    io.pod(p.ilpMean);
    io.pod(p.indepFrac);
    io.tag(p.pattern.kind, MemPatternKind::PointerChase,
           "memory pattern kind");
    io.pod(p.pattern.strideBytes);
    io.pod(p.pattern.sharedFrac);
    io.pod(p.pattern.zipfS);
    io.pod(p.pattern.sharedFootprint);
}

void
fields(StateIo &io, TaskType &t)
{
    io.pod(t.id);
    io.str(t.name);
    io.length(t.variants, kProfileBytes, "variant count");
    if (io.loading() && t.variants.size() > kMaxVariants)
        io.corrupt("variant count");
    for (KernelProfile &p : t.variants)
        fields(io, p);
}

void
fields(StateIo &io, TaskInstance &ti)
{
    io.pod(ti.id);
    io.pod(ti.type);
    io.pod(ti.instCount);
    io.pod(ti.privFootprint);
    io.pod(ti.privBase);
    io.pod(ti.seed);
    io.pod(ti.variant);
    io.pod(ti.epoch);
}

} // namespace

void
fields(StateIo &io, TaskTrace &t)
{
    io.str(t.name_);
    io.length(t.types_, kMinTypeBytes, "task-type count");
    if (io.loading() && t.types_.size() > kMaxTypes)
        io.corrupt("task-type count");
    for (TaskType &type : t.types_)
        fields(io, type);

    io.length(t.instances_, kInstanceBytes, "instance count");
    const std::uint64_t n = t.instances_.size();
    if (io.loading() && n > kMaxInstances)
        io.corrupt("instance count");
    for (TaskInstance &ti : t.instances_) {
        fields(io, ti);
        // Builder epochs are dense, so a valid trace has at most one
        // epoch per instance; anything larger is corruption (and
        // would blow up the epochSizes_ allocation below).
        if (io.loading() && ti.epoch >= n)
            io.corrupt("instance epoch");
    }

    // Dependency CSR as per-instance successor lists; loading
    // rebuilds the offsets and in-degrees from them.
    if (io.loading()) {
        t.succOffsets_.assign(n + 1, 0);
        t.inDegree_.assign(n, 0);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t count = t.succOffsets_[i + 1] - t.succOffsets_[i];
        io.pod(count);
        if (io.loading()) {
            if (count > n)
                io.corrupt("successor count");
            t.succOffsets_[i + 1] = t.succOffsets_[i] + count;
            t.succs_.resize(t.succOffsets_[i + 1]);
        }
        for (std::uint64_t k = t.succOffsets_[i];
             k < t.succOffsets_[i + 1]; ++k) {
            io.pod(t.succs_[k]);
            if (io.loading()) {
                if (t.succs_[k] >= n)
                    io.corrupt("successor id");
                ++t.inDegree_[t.succs_[k]];
            }
        }
    }

    if (io.loading()) {
        std::uint32_t maxEpoch = 0;
        t.totalInsts_ = 0;
        for (const TaskInstance &ti : t.instances_) {
            maxEpoch = std::max(maxEpoch, ti.epoch);
            t.totalInsts_ += ti.instCount;
        }
        t.epochSizes_.assign(maxEpoch + 1, 0);
        for (const TaskInstance &ti : t.instances_)
            ++t.epochSizes_[ti.epoch];
    }
}

void
serializeTrace(const TaskTrace &trace, std::ostream &out)
{
    BinaryWriter w(out);
    w.pod(kMagic);
    w.pod(kVersion);
    StateIo io(w);
    fields(io, const_cast<TaskTrace &>(trace));
}

void
serializeTrace(const TaskTrace &trace, const std::string &path)
{
    {
        std::ofstream out(path, std::ios::binary);
        if (!out)
            fatal("cannot open '%s' for writing", path.c_str());
        serializeTrace(trace, out);
        if (!out.good())
            fatal("error writing trace to '%s'", path.c_str());
    }
    // The trace-file durability boundary: injected errno fails like
    // the real write errors above; data faults damage the file so
    // the next deserializeTrace must raise IoError, never decode.
    if (const fault::FaultRule *r = FAULT_CHECK("trace_io.write")) {
        if (r->action.kind == fault::FaultKind::ErrnoFault)
            fatal("injected %s writing trace to '%s' (fault site "
                  "trace_io.write)",
                  fault::errnoToken(r->action.arg).c_str(),
                  path.c_str());
        fault::corruptFile(*r, path);
    }
}

TaskTrace
deserializeTrace(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    if (r.pod<std::uint64_t>() != kMagic)
        throwIoError("'%s' is not a TaskPoint trace file",
                     name.c_str());
    if (r.pod<std::uint32_t>() != kVersion)
        throwIoError("'%s': unsupported trace version", name.c_str());

    StateIo io(r);
    TaskTrace t;
    fields(io, t);
    t.validate();
    return t;
}

TaskTrace
deserializeTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIoError("cannot open '%s' for reading", path.c_str());
    return deserializeTrace(in, path);
}

} // namespace tp::trace
