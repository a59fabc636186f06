#include "trace/trace_builder.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tp::trace {

TraceBuilder::TraceBuilder(std::string name, std::uint64_t seed)
    : name_(std::move(name)), rng_(seed),
      nextPrivBase_(kPrivateRegionBase)
{
}

TaskTypeId
TraceBuilder::addTaskType(std::string name, KernelProfile profile)
{
    TaskType t;
    t.id = static_cast<TaskTypeId>(types_.size());
    t.name = std::move(name);
    t.variants.push_back(profile);
    types_.push_back(std::move(t));
    return types_.back().id;
}

std::uint16_t
TraceBuilder::addVariant(TaskTypeId type, KernelProfile profile)
{
    tp_assert(type < types_.size());
    types_[type].variants.push_back(profile);
    return static_cast<std::uint16_t>(types_[type].variants.size() - 1);
}

void
TraceBuilder::setRegionPool(TaskTypeId type, std::size_t entries,
                            Addr entry_bytes)
{
    if (type >= types_.size())
        fatal("setRegionPool: unknown task type %u", type);
    if (entries == 0 || entry_bytes == 0)
        fatal("setRegionPool: entries and entry size must be "
              "positive");
    if (pools_.size() <= type)
        pools_.resize(types_.size());
    RegionPool &pool = pools_[type];
    pool.entryBytes = entry_bytes;
    pool.bases.clear();
    pool.bases.reserve(entries);
    const Addr span = ((entry_bytes + 63) & ~Addr{63}) + 64;
    for (std::size_t e = 0; e < entries; ++e) {
        pool.bases.push_back(nextPrivBase_);
        nextPrivBase_ += span;
    }
    pool.next = 0;
}

TaskInstanceId
TraceBuilder::createTask(TaskTypeId type, InstCount inst_count,
                         Addr footprint, std::uint16_t variant)
{
    if (type >= types_.size())
        fatal("createTask: unknown task type %u", type);
    if (inst_count == 0)
        fatal("createTask: instruction count must be positive");
    if (variant >= types_[type].variants.size())
        fatal("createTask: variant %u out of range for type '%s'",
              variant, types_[type].name.c_str());

    TaskInstance ti;
    ti.id = static_cast<TaskInstanceId>(instances_.size());
    ti.type = type;
    ti.instCount = inst_count;
    ti.privFootprint = footprint ? footprint : (1ULL << 16);
    if (type < pools_.size() && !pools_[type].bases.empty()) {
        // Cyclic pool: working sets are revisited across instances.
        RegionPool &pool = pools_[type];
        ti.privBase = pool.bases[pool.next];
        pool.next = (pool.next + 1) % pool.bases.size();
        ti.privFootprint =
            std::min<Addr>(ti.privFootprint, pool.entryBytes);
    } else {
        // Bump-allocate a fresh line-aligned region with one guard
        // line so streams never alias accidentally.
        ti.privBase = nextPrivBase_;
        nextPrivBase_ += ((ti.privFootprint + 63) & ~Addr{63}) + 64;
    }
    ti.seed = rng_.next();
    ti.variant = variant;
    ti.epoch = currentEpoch_;
    instances_.push_back(ti);
    return ti.id;
}

void
TraceBuilder::addDependency(TaskInstanceId pred, TaskInstanceId succ)
{
    if (pred >= instances_.size() || succ >= instances_.size())
        fatal("addDependency: instance id out of range");
    if (pred >= succ)
        fatal("addDependency: dependencies must point forward in "
              "creation order (pred=%llu succ=%llu)",
              static_cast<unsigned long long>(pred),
              static_cast<unsigned long long>(succ));
    edges_.emplace_back(pred, succ);
}

void
TraceBuilder::barrier()
{
    // A barrier with no tasks since the previous one is a no-op.
    if (instances_.empty() || instances_.back().epoch != currentEpoch_)
        return;
    ++currentEpoch_;
}

TaskTrace
TraceBuilder::build()
{
    if (types_.empty())
        fatal("build: trace has no task types");
    if (instances_.empty())
        fatal("build: trace has no task instances");

    TaskTrace t;
    t.name_ = name_;
    t.types_ = std::move(types_);
    t.instances_ = std::move(instances_);

    // CSR successor lists, each ascending and free of duplicates:
    // bucket the edges by predecessor (a counting sort), then sort
    // and deduplicate each short bucket, compacting as we go. This is
    // the CSR a global sort + unique of the edges gives, in O(E + n)
    // plus the per-bucket sorts.
    const std::size_t n = t.instances_.size();
    std::vector<std::uint64_t> &offsets = t.succOffsets_;
    offsets.assign(n + 1, 0);
    for (const auto &[pred, succ] : edges_)
        ++offsets[pred + 1];
    for (std::size_t i = 0; i < n; ++i)
        offsets[i + 1] += offsets[i];
    t.succs_.resize(edges_.size());
    TaskInstanceId *succs = t.succs_.data();
    // Scattering advances offsets[p] from the start of p's bucket to
    // its end, which is where bucket p + 1 starts.
    for (const auto &[pred, succ] : edges_)
        succs[offsets[pred]++] = succ;
    std::uint64_t begin = 0;
    std::uint64_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        TaskInstanceId *first = succs + begin;
        TaskInstanceId *last = succs + offsets[i];
        begin = offsets[i];
        std::sort(first, last);
        last = std::unique(first, last);
        offsets[i] = kept;
        if (succs + kept != first)
            std::copy(first, last, succs + kept);
        kept += static_cast<std::uint64_t>(last - first);
    }
    offsets[n] = kept;
    t.succs_.resize(kept);
    t.succs_.shrink_to_fit(); // frees what duplicate edges took
    t.inDegree_.assign(n, 0);
    for (const TaskInstanceId succ : t.succs_)
        ++t.inDegree_[succ];

    t.epochSizes_.assign(currentEpoch_ + 1, 0);
    t.totalInsts_ = 0;
    for (const auto &ti : t.instances_) {
        ++t.epochSizes_[ti.epoch];
        t.totalInsts_ += ti.instCount;
    }

    types_.clear();
    instances_.clear();
    edges_.clear();
    pools_.clear();
    currentEpoch_ = 0;
    nextPrivBase_ = kPrivateRegionBase;

    t.validate();
    return t;
}

} // namespace tp::trace
