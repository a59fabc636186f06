#include "harness/plan_shard.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/binary_io.hh"
#include "common/logging.hh"
#include "harness/batch_runner.hh"
#include "harness/result_cache.hh"
#include "sim/checkpoint.hh"

namespace tp::harness {

namespace {

constexpr std::uint64_t kShardMagic = 0x5450534852443101ULL; // TPSHRD1.

// TPMANIF1: frames the tiny checkpoint-manifest payload.
constexpr std::uint64_t kManifestMagic = 0x54504d414e494631ULL;

/** A shard after its header: provenance, seed policy, jobs. */
void
fields(StateIo &io, PlanShard &shard)
{
    io.str(shard.planDigest);
    io.pod(shard.shardIndex);
    io.pod(shard.shardCount);
    if (io.loading() &&
        (shard.shardCount == 0 || shard.shardIndex >= shard.shardCount))
        io.corrupt(strprintf("shard position %u/%u", shard.shardIndex,
                             shard.shardCount)
                       .c_str());
    io.pod(shard.baseSeed);
    io.flag(shard.deriveSeeds);
    io.flag(shard.collectTimelines);
    io.length(shard.jobs, 1, "job count");
    for (ShardJob &sj : shard.jobs) {
        io.pod(sj.planIndex);
        fields(io, sj.job, kPlanFormatVersion);
    }
}

/** A checkpoint manifest: magic, checkpoint format, boundary count. */
void
manifestFields(StateIo &io, std::uint64_t &boundaryCount)
{
    std::uint64_t magic = kManifestMagic;
    std::uint32_t version = sim::kCheckpointFormatVersion;
    io.pod(magic);
    io.pod(version);
    if (magic != kManifestMagic ||
        version != sim::kCheckpointFormatVersion)
        io.corrupt("checkpoint manifest header");
    io.pod(boundaryCount);
}

} // namespace

std::pair<std::size_t, std::size_t>
shardRange(std::size_t numJobs, std::uint32_t shardIndex,
           std::uint32_t shardCount)
{
    tp_assert(shardCount > 0);
    tp_assert(shardIndex < shardCount);
    // i*n/k boundaries: contiguous, exhaustive, sizes differ by <= 1.
    const auto n = static_cast<std::uint64_t>(numJobs);
    const std::size_t first =
        static_cast<std::size_t>(n * shardIndex / shardCount);
    const std::size_t last =
        static_cast<std::size_t>(n * (shardIndex + 1) / shardCount);
    return {first, last};
}

std::vector<PlanShard>
makeShards(const ExperimentPlan &plan, std::uint32_t shardCount)
{
    if (shardCount == 0)
        fatal("cannot shard a plan into 0 shards");
    const std::string digest = planDigest(plan);
    std::vector<PlanShard> shards;
    for (std::uint32_t i = 0; i < shardCount; ++i) {
        const auto [first, last] =
            shardRange(plan.jobs.size(), i, shardCount);
        if (first == last)
            continue;
        PlanShard s;
        s.planDigest = digest;
        s.shardIndex = i;
        s.shardCount = shardCount;
        s.baseSeed = plan.baseSeed;
        s.deriveSeeds = plan.deriveSeeds;
        s.jobs.reserve(last - first);
        for (std::size_t j = first; j < last; ++j)
            s.jobs.push_back(
                ShardJob{static_cast<std::uint64_t>(j),
                         plan.jobs[j]});
        shards.push_back(std::move(s));
    }
    return shards;
}

ExperimentPlan
shardPlan(const PlanShard &shard)
{
    ExperimentPlan plan;
    plan.baseSeed = shard.baseSeed;
    // Seeds are resolved here, per parent index; the executing
    // BatchRunner must not re-derive them from shard-local indices.
    plan.deriveSeeds = false;
    plan.jobs.reserve(shard.jobs.size());
    for (const ShardJob &sj : shard.jobs) {
        JobSpec job = sj.job;
        if (shard.deriveSeeds)
            BatchRunner::applyDerivedSeed(
                job, shard.baseSeed,
                static_cast<std::size_t>(sj.planIndex));
        plan.jobs.push_back(std::move(job));
    }
    return plan;
}

void
serializeShard(const PlanShard &shard, std::ostream &out)
{
    BinaryWriter w(out);
    w.pod(kShardMagic);
    w.pod(kShardFormatVersion);
    w.pod(kPlanFormatVersion); // jobs use the plan encoding
    StateIo io(w);
    fields(io, const_cast<PlanShard &>(shard));
}

void
serializeShard(const PlanShard &shard, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    serializeShard(shard, out);
    if (!out.good())
        fatal("error writing shard to '%s'", path.c_str());
}

PlanShard
deserializeShard(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    if (r.pod<std::uint64_t>() != kShardMagic)
        throwIoError("'%s': not a taskpoint shard file",
                     name.c_str());
    if (r.pod<std::uint32_t>() != kShardFormatVersion)
        throwIoError("'%s': unsupported shard format version",
                     name.c_str());
    if (r.pod<std::uint32_t>() != kPlanFormatVersion)
        throwIoError("'%s': unsupported job encoding version",
                     name.c_str());
    StateIo io(r);
    PlanShard shard;
    fields(io, shard);
    r.expectEof();
    return shard;
}

PlanShard
deserializeShard(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIoError("cannot open '%s' for reading", path.c_str());
    return deserializeShard(in, path);
}

std::string
serializeCheckpointManifest(std::uint64_t boundaryCount)
{
    std::ostringstream bytes(std::ios::binary);
    BinaryWriter w(bytes);
    StateIo io(w);
    manifestFields(io, boundaryCount);
    return bytes.str();
}

std::optional<std::uint64_t>
parseCheckpointManifest(const std::string &blob)
{
    try {
        std::istringstream in(blob, std::ios::binary);
        BinaryReader r(in, "checkpoint manifest");
        StateIo io(r);
        std::uint64_t count = 0;
        manifestFields(io, count);
        r.expectEof();
        return count;
    } catch (const IoError &) {
        return std::nullopt;
    }
}

CheckpointExpansion
expandCheckpointSlices(const ExperimentPlan &plan,
                       ResultCache &checkpoints,
                       std::uint32_t maxSlices)
{
    CheckpointExpansion ex;
    ex.plan.baseSeed = plan.baseSeed;
    // Seeds are resolved below, per original index; the executing
    // BatchRunner must not re-derive them from expanded indices.
    ex.plan.deriveSeeds = false;
    ex.groups.reserve(plan.jobs.size());
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        JobSpec job = plan.jobs[i];
        if (plan.deriveSeeds)
            BatchRunner::applyDerivedSeed(job, plan.baseSeed, i);

        SliceGroup g;
        g.origIndex = static_cast<std::uint64_t>(i);

        // Only plain sampled work can slice; a slice job must never
        // be re-expanded, and a detailed reference has no sampling
        // boundaries to slice at.
        std::uint64_t boundaries = 0;
        if (maxSlices > 1 && !job.isSlice() &&
            (job.mode == BatchMode::Sampled ||
             job.mode == BatchMode::Both)) {
            const std::string mkey = checkpointManifestKey(
                memoryConfigDigest(job.spec.arch.memory),
                checkpointJobDigest(job));
            if (std::optional<std::string> blob =
                    checkpoints.loadBlob(mkey))
                if (std::optional<std::uint64_t> b =
                        parseCheckpointManifest(*blob))
                    boundaries = *b;
        }
        // `boundaries` checkpoints split the run into boundaries + 1
        // intervals; fewer than two usable slices means expansion
        // would only add restore overhead.
        const auto slices = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(boundaries + 1, maxSlices));
        if (slices < 2) {
            ex.plan.jobs.push_back(std::move(job));
            ex.groups.push_back(g);
            continue;
        }

        g.sliced = true;
        g.hasRef = job.mode == BatchMode::Both;
        g.count = slices + (g.hasRef ? 1u : 0u);
        ex.expanded = true;
        if (g.hasRef) {
            JobSpec ref = job;
            ref.mode = BatchMode::Reference;
            ex.plan.jobs.push_back(std::move(ref));
        }
        for (std::uint32_t s = 0; s < slices; ++s) {
            // Slice s covers boundary intervals [first, last):
            // restore the checkpoint at boundary `first` (0 = cold
            // start) and stop on reaching boundary `last` (0 = run
            // to the end). The shardRange partition guarantees the
            // slices tile the run exactly.
            const auto [first, last] = shardRange(
                static_cast<std::size_t>(boundaries) + 1, s,
                slices);
            JobSpec sl = job;
            sl.mode = BatchMode::Sampled;
            sl.sliceCount = slices;
            sl.sliceIndex = s;
            sl.startBoundary = static_cast<std::uint64_t>(first);
            sl.stopBoundary =
                s + 1 == slices ? 0
                                : static_cast<std::uint64_t>(last);
            ex.plan.jobs.push_back(std::move(sl));
        }
        ex.groups.push_back(g);
    }
    return ex;
}

void
runWithCheckpointSlices(const ExperimentPlan &plan,
                        ResultCache *checkpoints,
                        std::uint32_t maxSlices, bool announce,
                        ResultSink &sink,
                        const std::function<void(const ExperimentPlan &,
                                                 ResultSink &)> &run)
{
    if (checkpoints != nullptr) {
        CheckpointExpansion ex =
            expandCheckpointSlices(plan, *checkpoints, maxSlices);
        if (ex.expanded) {
            if (announce)
                progress(strprintf(
                    "checkpoints: expanded %zu jobs into %zu "
                    "slice jobs", plan.jobs.size(),
                    ex.plan.jobs.size()));
            SliceMergingSink merging(sink, std::move(ex.groups));
            run(ex.plan, merging);
            return;
        }
    }
    run(plan, sink);
}

SliceMergingSink::SliceMergingSink(ResultSink &inner,
                                   std::vector<SliceGroup> groups)
    : inner_(inner), groups_(std::move(groups))
{
}

void
SliceMergingSink::begin(std::size_t totalJobs)
{
    std::size_t expected = 0;
    for (const SliceGroup &g : groups_)
        expected += g.count;
    tp_assert(totalJobs == expected);
    inner_.begin(groups_.size());
}

void
SliceMergingSink::consume(BatchResult &&result)
{
    tp_assert(group_ < groups_.size());
    pending_.push_back(std::move(result));
    if (pending_.size() == groups_[group_].count)
        flushGroup();
}

void
SliceMergingSink::end()
{
    tp_assert(group_ == groups_.size() && pending_.empty());
    inner_.end();
}

void
SliceMergingSink::flushGroup()
{
    const SliceGroup &g = groups_[group_];
    BatchResult merged;
    if (!g.sliced) {
        merged = std::move(pending_.front());
    } else {
        // Host timings are genuinely per-slice; everything else that
        // accumulates over a run (instruction/task counters, the
        // sampling statistics, the phase log, the final cycle count)
        // rode the checkpoints, so the last slice already carries
        // the whole-run values. Per-instance task records are the
        // exception — each slice records only its own completions,
        // and the slices tile the run, so concatenating them in
        // slice order reproduces the serial completion order.
        const std::size_t first = g.hasRef ? 1 : 0;
        double wall = 0.0;
        double host = 0.0;
        std::vector<sim::TaskRecord> tasks;
        for (std::size_t i = 0; i < pending_.size(); ++i)
            host += pending_[i].hostSeconds;
        for (std::size_t i = first; i < pending_.size(); ++i) {
            tp_assert(pending_[i].sampled.has_value());
            const sim::SimResult &r = pending_[i].sampled->result;
            wall += r.wallSeconds;
            tasks.insert(tasks.end(), r.tasks.begin(),
                         r.tasks.end());
        }
        merged.label = pending_.back().label;
        merged.sampled = std::move(pending_.back().sampled);
        merged.sampled->result.wallSeconds = wall;
        merged.sampled->result.tasks = std::move(tasks);
        merged.hostSeconds = host;
        if (g.hasRef) {
            tp_assert(pending_.front().reference.has_value());
            merged.reference =
                std::move(pending_.front().reference);
            merged.referenceFromCache =
                pending_.front().referenceFromCache;
            merged.comparison =
                compare(*merged.reference, merged.sampled->result);
        }
    }
    merged.index = static_cast<std::size_t>(g.origIndex);
    pending_.clear();
    ++group_;
    inner_.consume(std::move(merged));
}

} // namespace tp::harness
