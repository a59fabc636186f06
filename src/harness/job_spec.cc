#include "harness/job_spec.hh"

#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/binary_io.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace tp::harness {

namespace {

constexpr std::uint64_t kPlanMagic = 0x5450504c414e3101ULL; // TPPLAN1.

/**
 * A retired setting: a field the simulator no longer has, kept in
 * the plan at the one value every run used, so plan bytes, digests
 * and cache keys do not move. A plan holding any other value asks
 * for a machine this build does not simulate and fails to load.
 */
template <typename T>
void
retired(StateIo &io, T value, const char *setting)
{
    T stored = value;
    if constexpr (std::is_same_v<T, bool>)
        io.flag(stored);
    else
        io.pod(stored);
    if (stored != value)
        io.corrupt((std::string("retired setting '") + setting +
                    "' (only " + std::to_string(value) +
                    " is simulated)")
                       .c_str());
}

void
fields(StateIo &io, mem::CacheConfig &c)
{
    io.pod(c.sizeBytes);
    io.pod(c.assoc);
    io.pod(c.lineBytes);
    io.pod(c.latency);
    io.pod(c.servicePeriod);
    retired(io, false, "scan-resistant insertion");
}

void
fields(StateIo &io, mem::MemoryConfig &m)
{
    fields(io, m.l1);
    fields(io, m.l2);
    fields(io, m.l3);
    io.flag(m.l2Shared);
    io.flag(m.hasL3);
    io.pod(m.dram.latency);
    io.pod(m.dram.servicePeriod);
    io.pod(m.dram.channels);
    io.pod(m.upgradeLatency);
    io.pod(m.busServicePeriod);
    retired(io, kSharedRegionBase, "coherence window base");
    retired(io, kPrivateRegionBase, "coherence window end");
    retired(io, true, "stream prefetch switch");
    io.pod(m.prefetchDegree);
}

void
fields(StateIo &io, work::WorkloadParams &p)
{
    io.pod(p.scale);
    io.pod(p.instrScale);
    io.pod(p.seed);
}

void
fields(StateIo &io, RunSpec &spec)
{
    cpu::ArchConfig &a = spec.arch;
    io.str(a.name);
    io.pod(a.core.robSize);
    io.pod(a.core.issueWidth);
    io.pod(a.core.commitWidth);
    fields(io, a.memory);

    io.pod(spec.threads);
    io.tag(spec.runtime.scheduler, rt::SchedulerKind::Locality,
           "scheduler kind");
    io.pod(spec.runtime.dispatchOverhead);
    retired(io, Cycles{0}, "dispatch jitter");
    io.pod(spec.runtime.seed);
    io.pod(spec.quantum);
    io.flag(spec.recordTasks);
    io.flag(spec.noise.enabled);
    io.pod(spec.noise.sigma);
    io.pod(spec.noise.preemptProb);
    io.pod(spec.noise.preemptMeanCycles);
    io.pod(spec.noise.seed);
}

void
fields(StateIo &io, sampling::SamplingParams &p, std::uint32_t version)
{
    io.pod(p.warmup);
    io.pod<std::uint64_t>(p.historySize);
    io.pod(p.period);
    io.pod(p.rareCutoff);
    io.pod(p.concurrencyHysteresis);
    io.pod(p.concurrencyTolerance);
    if (version >= 2) {
        io.pod(p.targetError);
        io.pod(p.pilotSamples);
        io.pod(p.confidenceZ);
    }
    if (version >= 3) {
        io.pod(p.detailBudgetMultiple);
    } else {
        // Builds that wrote v1/v2 plans had no budget cap; replaying
        // their plans must reproduce their numbers bit for bit, so
        // the cap stays off rather than taking the new default.
        p.detailBudgetMultiple = 0.0;
    }
}

/** The plan after its magic and version: seed policy, then jobs. */
void
fields(StateIo &io, ExperimentPlan &plan, std::uint32_t version)
{
    io.pod(plan.baseSeed);
    io.flag(plan.deriveSeeds);
    // Every job occupies far more than one byte, so a count beyond
    // the remaining stream length is certainly corrupt.
    io.length(plan.jobs, 1, "job count");
    for (JobSpec &job : plan.jobs)
        fields(io, job, version);
}

} // namespace

void
fields(StateIo &io, JobSpec &job, std::uint32_t version)
{
    io.str(job.label);
    io.str(job.workload);
    fields(io, job.workloadParams);
    io.str(job.traceFile);
    fields(io, job.spec);
    fields(io, job.sampling, version);
    io.tag(job.mode, BatchMode::Both, "batch mode");
    if (version >= 3) {
        io.pod(job.sliceCount);
        io.pod(job.sliceIndex);
        io.pod(job.startBoundary);
        io.pod(job.stopBoundary);
        if (io.loading() && job.sliceCount > 0 &&
            job.sliceIndex >= job.sliceCount)
            io.corrupt("slice coordinates");
    }
}

void
writeMemoryConfig(BinaryWriter &w, const mem::MemoryConfig &m)
{
    StateIo io(w);
    fields(io, const_cast<mem::MemoryConfig &>(m));
}

void
writeRunSpec(BinaryWriter &w, const RunSpec &spec)
{
    StateIo io(w);
    fields(io, const_cast<RunSpec &>(spec));
}

void
writeSamplingParams(BinaryWriter &w, const sampling::SamplingParams &p)
{
    StateIo io(w);
    fields(io, const_cast<sampling::SamplingParams &>(p),
           kPlanFormatVersion);
}

sampling::SamplingParams
readSamplingParams(BinaryReader &r, std::uint32_t version)
{
    StateIo io(r);
    sampling::SamplingParams p;
    fields(io, p, version);
    return p;
}

void
serializePlan(const ExperimentPlan &plan, std::ostream &out)
{
    BinaryWriter w(out);
    w.pod(kPlanMagic);
    w.pod(kPlanFormatVersion);
    StateIo io(w);
    fields(io, const_cast<ExperimentPlan &>(plan), kPlanFormatVersion);
}

void
serializePlan(const ExperimentPlan &plan, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    serializePlan(plan, out);
    if (!out.good())
        fatal("error writing plan to '%s'", path.c_str());
}

ExperimentPlan
deserializePlan(std::istream &in, const std::string &name)
{
    BinaryReader r(in, name);
    if (r.pod<std::uint64_t>() != kPlanMagic)
        throwIoError("'%s': not a taskpoint plan file",
                     name.c_str());
    const auto version = r.pod<std::uint32_t>();
    if (version < kMinPlanFormatVersion ||
        version > kPlanFormatVersion)
        throwIoError("'%s': unsupported plan format version %u "
                     "(this build reads %u..%u)",
                     name.c_str(), version, kMinPlanFormatVersion,
                     kPlanFormatVersion);
    StateIo io(r);
    ExperimentPlan plan;
    fields(io, plan, version);
    r.expectEof();
    return plan;
}

ExperimentPlan
deserializePlan(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIoError("cannot open '%s' for reading", path.c_str());
    return deserializePlan(in, path);
}

std::string
jobSpecDigest(const JobSpec &job)
{
    std::ostringstream bytes(std::ios::binary);
    BinaryWriter w(bytes);
    w.pod(kPlanFormatVersion);
    StateIo io(w);
    fields(io, const_cast<JobSpec &>(job), kPlanFormatVersion);
    return hexDigest128(bytes.str());
}

std::string
planDigest(const ExperimentPlan &plan)
{
    std::ostringstream bytes(std::ios::binary);
    serializePlan(plan, bytes);
    return hexDigest128(bytes.str());
}

} // namespace tp::harness
