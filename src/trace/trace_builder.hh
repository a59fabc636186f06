/**
 * @file
 * Mutable builder producing immutable TaskTraces.
 *
 * The builder is the public API that workload generators (and user
 * code, see examples/custom_workload.cc) use to describe a task-based
 * application: declare task types, create instances in program order,
 * add data dependencies and taskwait barriers.
 */

#ifndef TP_TRACE_TRACE_BUILDER_HH
#define TP_TRACE_TRACE_BUILDER_HH

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace tp::trace {

/** Incremental constructor of TaskTrace objects (see file comment). */
class TraceBuilder
{
  public:
    /**
     * @param name workload name recorded in the trace
     * @param seed master seed; per-instance stream seeds derive from it
     */
    TraceBuilder(std::string name, std::uint64_t seed);

    /** Declare a task type with a single behaviour variant. */
    TaskTypeId addTaskType(std::string name, KernelProfile profile);

    /**
     * Add an extra behaviour variant to an existing type (models
     * control-flow divergence inside one task declaration).
     * @return the variant index to pass to createTask().
     */
    std::uint16_t addVariant(TaskTypeId type, KernelProfile profile);

    /**
     * Allocate this type's private regions from a cyclic pool of
     * `entries` regions of `entry_bytes` each, instead of giving
     * every instance a fresh region.
     *
     * This models real task dataflow: a task's working set was
     * recently produced or read by earlier tasks, so in steady state
     * it is resident in the shared cache levels rather than cold in
     * DRAM. Pool entries should exceed the maximum thread count so
     * concurrent tasks rarely collide on a region.
     */
    void setRegionPool(TaskTypeId type, std::size_t entries,
                       Addr entry_bytes);

    /**
     * Create one task instance.
     *
     * @param type     previously declared task type
     * @param inst_count dynamic instruction count (> 0)
     * @param footprint  private working-set bytes (0 = default 64 KiB)
     * @param variant    behaviour variant index
     * @return the new instance id (creation order)
     */
    TaskInstanceId createTask(TaskTypeId type, InstCount inst_count,
                              Addr footprint = 0,
                              std::uint16_t variant = 0);

    /**
     * Declare that `succ` consumes data produced by `pred`
     * (pred must have been created before succ). Duplicate edges are
     * coalesced at build() time.
     */
    void addDependency(TaskInstanceId pred, TaskInstanceId succ);

    /**
     * Insert a taskwait barrier: every task created after this call
     * waits for completion of every task created before it.
     * Consecutive barriers and a leading barrier are no-ops.
     */
    void barrier();

    /** @return number of instances created so far. */
    std::size_t size() const { return instances_.size(); }

    /** @return builder-owned RNG for workload-level randomness. */
    Rng &rng() { return rng_; }

    /**
     * Finalize into an immutable, validated TaskTrace. The builder
     * keeps its name and seed stream and is otherwise left empty:
     * types, region pools, instances, edges and barriers must be
     * declared again for the next trace.
     */
    TaskTrace build();

  private:
    struct RegionPool
    {
        std::vector<Addr> bases;
        Addr entryBytes = 0;
        std::size_t next = 0;
    };

    std::string name_;
    Rng rng_;
    std::vector<TaskType> types_;
    std::vector<TaskInstance> instances_;
    std::vector<std::pair<TaskInstanceId, TaskInstanceId>> edges_;
    std::vector<RegionPool> pools_; //!< indexed by type; empty = off
    std::uint32_t currentEpoch_ = 0;
    Addr nextPrivBase_;
};

} // namespace tp::trace

#endif // TP_TRACE_TRACE_BUILDER_HH
