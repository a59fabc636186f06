/**
 * @file
 * Immutable task-trace container consumed by the simulator.
 *
 * A TaskTrace is the stand-in for the paper's OmpSs application traces:
 * the full set of task types and instances of one application run,
 * together with the inter-task dependency DAG (CSR successor lists) and
 * the barrier-epoch partition. Traces are built via TraceBuilder and
 * never mutated afterwards, so the simulator and the sampling layers
 * may share one trace across many runs.
 */

#ifndef TP_TRACE_TRACE_HH
#define TP_TRACE_TRACE_HH

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/task.hh"

namespace tp {
class StateIo;
}

namespace tp::trace {

class TraceBuilder;

/** Aggregate statistics of a trace, printed by Table I benches. */
struct TraceStats
{
    std::size_t numTypes = 0;
    std::size_t numInstances = 0;
    std::size_t numDependencies = 0;
    std::size_t numEpochs = 0;
    InstCount totalInstructions = 0;
    InstCount minInstPerTask = 0;
    InstCount maxInstPerTask = 0;
};

/** Immutable task trace (see file comment). */
class TaskTrace
{
  public:
    /** @return workload name ("cholesky", "dedup", ...). */
    const std::string &name() const { return name_; }

    /** @return all task types, indexed by TaskTypeId. */
    const std::vector<TaskType> &types() const { return types_; }

    /** @return one task type. */
    const TaskType &type(TaskTypeId t) const;

    /** @return all instances in creation order, indexed by id. */
    const std::vector<TaskInstance> &instances() const
    {
        return instances_;
    }

    /** @return one instance. */
    const TaskInstance &instance(TaskInstanceId i) const;

    /** @return number of task instances. */
    std::size_t size() const { return instances_.size(); }

    /** @return number of explicit predecessors of instance i. */
    std::uint32_t inDegree(TaskInstanceId i) const;

    /** @return successor instance ids of instance i. */
    std::span<const TaskInstanceId> successors(TaskInstanceId i) const;

    /** @return number of barrier epochs (>= 1). */
    std::size_t numEpochs() const { return epochSizes_.size(); }

    /** @return number of instances in barrier epoch e. */
    std::uint64_t epochSize(std::uint32_t e) const;

    /** @return aggregate statistics. */
    TraceStats stats() const;

    /** @return total dynamic instructions over all instances. */
    InstCount totalInstructions() const { return totalInsts_; }

    /**
     * Validate structural invariants (DAG edges point forward in
     * creation order, epochs monotone, variants in range). Panics on
     * violation; used by tests and after deserialization.
     */
    void validate() const;

  private:
    friend class TraceBuilder;
    /** The one field list of a trace (trace/trace_io.cc). */
    friend void fields(StateIo &io, TaskTrace &t);

    std::string name_;
    std::vector<TaskType> types_;
    std::vector<TaskInstance> instances_;
    std::vector<std::uint32_t> inDegree_;
    std::vector<std::uint64_t> succOffsets_; //!< CSR offsets, size n+1
    std::vector<TaskInstanceId> succs_;      //!< CSR successor ids
    std::vector<std::uint64_t> epochSizes_;
    InstCount totalInsts_ = 0;
};

} // namespace tp::trace

#endif // TP_TRACE_TRACE_HH
