/**
 * @file
 * Self-describing, serializable experiment descriptions.
 *
 * A JobSpec names everything one batch job needs — the trace source
 * (a workload-registry name plus generation parameters, or a path to
 * a serialized trace file), the full RunSpec, the sampling policy and
 * the batch mode — with no pointers into the building process, so a
 * job can be written to disk, shipped to another process or machine,
 * and replayed bit-identically. An ExperimentPlan is an ordered list
 * of JobSpecs plus the seed-derivation policy; BatchRunner executes
 * plans (see harness/batch_runner.hh) and streams the results to a
 * ResultSink (see harness/result_sink.hh).
 *
 * Serialization uses the shared common/binary_io layer: plans
 * round-trip bit-identically (serialize → deserialize → serialize
 * yields the same bytes), corruption raises recoverable IoError, and
 * jobSpecDigest()/planDigest() give stable content digests
 * (common/hash) suitable for cache keys and change detection. The
 * RunSpec/SamplingParams encoders below are also the key material of
 * harness/result_cache, so a key covers every field a plan records.
 */

#ifndef TP_HARNESS_JOB_SPEC_HH
#define TP_HARNESS_JOB_SPEC_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace tp {
class BinaryReader;
class BinaryWriter;
class StateIo;
}

namespace tp::harness {

/** What one batch job simulates. */
enum class BatchMode : std::uint8_t {
    Sampled,   //!< TaskPoint-sampled run only
    Reference, //!< full-detailed reference only
    Both,      //!< reference + sampled + error/speedup comparison
};

/**
 * One independent simulation job, fully described by value.
 *
 * The trace source is exactly one of
 *  - `workload` + `workloadParams`: generated from the workload
 *    registry (BatchRunner memoizes generation, so many jobs naming
 *    the same workload and parameters share one in-memory trace), or
 *  - `traceFile`: a trace serialized by trace/trace_io (the
 *    custom-workload path, and the hand-off format for out-of-process
 *    workers).
 */
struct JobSpec
{
    /** Human-readable tag used in reports. */
    std::string label;
    /** Workload-registry name; empty when `traceFile` is used. */
    std::string workload;
    work::WorkloadParams workloadParams;
    /** Path to a serialized TaskTrace; empty when `workload` is used. */
    std::string traceFile;

    RunSpec spec;
    sampling::SamplingParams sampling;
    BatchMode mode = BatchMode::Sampled;

    /**
     * Checkpoint-slice coordinates (live-points intra-run
     * parallelism, see harness/plan_shard.hh). A plain job has
     * sliceCount == 0. expandCheckpointSlices() splits one sampled
     * job into `sliceCount` jobs; slice `sliceIndex` restores the
     * warm-state checkpoint at sample boundary `startBoundary` (0 =
     * cold start) and stops at `stopBoundary` (0 = run to the end).
     * Slice jobs are an execution detail: they bypass the result
     * cache and are never re-expanded.
     */
    std::uint32_t sliceCount = 0;
    std::uint32_t sliceIndex = 0;
    std::uint64_t startBoundary = 0;
    std::uint64_t stopBoundary = 0;

    /** @return true when this job is one checkpoint slice. */
    bool isSlice() const { return sliceCount > 0; }
};

/**
 * An ordered list of jobs plus the seed-derivation policy — the
 * deterministic half of a batch. Execution-environment choices
 * (worker count, progress output, result cache) stay in BatchOptions
 * and may differ between the process that wrote a plan and the one
 * replaying it without changing any reported number.
 */
struct ExperimentPlan
{
    std::vector<JobSpec> jobs;
    /** Base seed all per-job seeds derive from. */
    std::uint64_t baseSeed = 42;
    /**
     * Overwrite each job's workloadParams.seed and noise seed with
     * BatchRunner::jobSeed(baseSeed, index). Disable to seed jobs
     * manually.
     */
    bool deriveSeeds = true;
};

/**
 * Version of the plan/JobSpec encoding. Bump whenever JobSpec,
 * RunSpec, SamplingParams or any nested config changes shape; it is
 * embedded in plan files and digest material, so stale files fail
 * loudly instead of decoding garbage.
 *
 * v2: SamplingParams gained the adaptive-policy fields (targetError,
 * pilotSamples, confidenceZ). Plans are always *written* at the
 * current version; v1 files (e.g. the golden fixtures under
 * tests/golden/) still load — the reader defaults the new fields,
 * which exactly reproduces v1 semantics (adaptive off).
 *
 * v3: SamplingParams gained detailBudgetMultiple (the adaptive
 * detail-budget cap) and JobSpec the checkpoint-slice coordinates
 * (sliceCount/sliceIndex/startBoundary/stopBoundary). v1/v2 readers
 * default both, reproducing the old semantics (note the budget cap
 * defaults *on* for newly built params, but a v1/v2 plan replays
 * with the cap the writing build had: off).
 */
inline constexpr std::uint32_t kPlanFormatVersion = 3;

/** Oldest plan format deserializePlan still accepts. */
inline constexpr std::uint32_t kMinPlanFormatVersion = 1;

/**
 * The one field list of a JobSpec, for both directions (StateIo,
 * common/binary_io.hh); plans, shards and job digests all go through
 * it. Writers pass kPlanFormatVersion, readers the version the bytes
 * were written at: fields a version predates are skipped and take
 * the values that version implied (see kPlanFormatVersion). Throws
 * IoError on a corrupt load.
 */
void fields(StateIo &io, JobSpec &job, std::uint32_t version);

// Building blocks, shared with harness/result_cache key material.
/**
 * Write every MemoryConfig field (part of the RunSpec encoding,
 * exposed on its own as the memory-configuration digest material of
 * checkpoint cache keys — see harness::memoryConfigDigest).
 */
void writeMemoryConfig(BinaryWriter &w, const mem::MemoryConfig &m);
void writeRunSpec(BinaryWriter &w, const RunSpec &spec);
void writeSamplingParams(BinaryWriter &w,
                         const sampling::SamplingParams &p);
/**
 * Read SamplingParams written at `version` (defaults to current).
 * Fields a version predates keep their in-struct defaults.
 */
sampling::SamplingParams
readSamplingParams(BinaryReader &r,
                   std::uint32_t version = kPlanFormatVersion);

/** Write a plan (magic, version, jobs) to a stream. */
void serializePlan(const ExperimentPlan &plan, std::ostream &out);

/** Write a plan to `path`; fatal when the file cannot be written. */
void serializePlan(const ExperimentPlan &plan,
                   const std::string &path);

/**
 * Read a plan back; exact inverse of serializePlan.
 *
 * @param name label for error messages (the path when reading a file)
 * @throws IoError on truncation, bad magic/version or corrupt fields
 */
ExperimentPlan deserializePlan(std::istream &in,
                               const std::string &name);

/** Read a plan from `path`; throws IoError on corruption. */
ExperimentPlan deserializePlan(const std::string &path);

/**
 * @return stable 128-bit hex digest of one job's serialized bytes
 *         (includes kPlanFormatVersion): identical across processes
 *         and runs for identical specs, different when any field
 *         differs.
 */
std::string jobSpecDigest(const JobSpec &job);

/** @return stable 128-bit hex digest of a whole plan's bytes. */
std::string planDigest(const ExperimentPlan &plan);

} // namespace tp::harness

#endif // TP_HARNESS_JOB_SPEC_HH
