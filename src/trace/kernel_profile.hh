/**
 * @file
 * Kernel behaviour descriptors for synthetic task instruction streams.
 *
 * A task trace in this reproduction is *generative*: instead of storing
 * billions of recorded instructions (the paper's OmpSs traces), every
 * task type carries a KernelProfile from which a deterministic
 * instruction stream is synthesized on demand (see InstrStream). The
 * profile vocabulary covers the workload properties of Table I:
 * strided/random/irregular memory accesses, data reuse, atomics on
 * shared data, compute- vs memory-boundedness and branchiness.
 */

#ifndef TP_TRACE_KERNEL_PROFILE_HH
#define TP_TRACE_KERNEL_PROFILE_HH

#include <cstdint>

#include "common/types.hh"

namespace tp::trace {

/** Dynamic instruction classes distinguished by the timing model. */
enum class InstrClass : std::uint8_t {
    IntAlu,  //!< single-cycle integer operation
    IntMul,  //!< multi-cycle integer multiply/divide
    FpAlu,   //!< floating-point add/sub/compare
    FpMul,   //!< floating-point multiply / long-latency FP
    Load,    //!< memory read (latency resolved by the hierarchy)
    Store,   //!< memory write (write-back, store-buffer absorbed)
    Branch,  //!< control-flow instruction
};

/** One synthesized dynamic instruction. */
struct Instr
{
    InstrClass cls = InstrClass::IntAlu;
    /** Functional-unit latency in cycles (memory ops: L1-hit base). */
    std::uint8_t execLat = 1;
    /**
     * Register dependency distance: this instruction reads the result
     * of the instruction `depDist` positions earlier in program order;
     * 0 means no modelled dependency.
     */
    std::uint32_t depDist = 0;
    /** Effective address; only valid for Load/Store. */
    Addr addr = 0;
};

/** Spatial locality pattern for a task's *private* working set. */
enum class MemPatternKind : std::uint8_t {
    Sequential,   //!< unit-stride walk (vector-operation, reduction)
    Strided,      //!< constant stride, possibly > line (2d-conv, stencil)
    RandomUniform, //!< uniform random within footprint (canneal)
    Zipf,         //!< skewed hot-set reuse (matmul tiles, kmeans centroids)
    PointerChase, //!< serialized dependent loads (n-body trees, freqmine)
};

/**
 * Memory behaviour of a task type.
 *
 * Private accesses target an instance-local region using `kind`;
 * shared accesses target a per-type region common to all instances
 * (inputs reused across tasks, reduction variables, histogram bins)
 * with Zipf(zipfS) line selection. Stores to the shared region create
 * coherence invalidations and are how atomic-update kernels
 * (histogram) induce inter-thread interference.
 */
struct MemPattern
{
    MemPatternKind kind = MemPatternKind::Sequential;
    /** Stride in bytes for Strided; ignored otherwise. */
    std::uint32_t strideBytes = 64;
    /** Fraction of memory accesses that target the shared region. */
    double sharedFrac = 0.0;
    /** Zipf exponent for shared-region line selection. */
    double zipfS = 0.8;
    /** Size in bytes of the per-type shared region. */
    Addr sharedFootprint = 1ULL << 20;
};

/**
 * Statistical description of a task type's instruction stream.
 *
 * All fractions are of the full dynamic stream except fpFrac/mulFrac
 * which subdivide the arithmetic remainder.
 */
struct KernelProfile
{
    double loadFrac = 0.20;   //!< loads / all instructions
    double storeFrac = 0.08;  //!< stores / all instructions
    double branchFrac = 0.10; //!< branches / all instructions
    double fpFrac = 0.30;     //!< FP share of arithmetic instructions
    double mulFrac = 0.20;    //!< long-latency share of arithmetic
    /**
     * Mean register dependency distance (geometric); larger values
     * mean more instruction-level parallelism.
     */
    double ilpMean = 6.0;
    /** Probability an instruction has no modelled dependency. */
    double indepFrac = 0.35;
    MemPattern pattern;
};

/** Bytes reserved per task type for its shared region. */
inline constexpr Addr kSharedRegionSpan = 1ULL << 30;

/**
 * @return base address of task type t's shared region (layout in
 * common/types.hh).
 */
inline Addr
sharedRegionBase(TaskTypeId t)
{
    return kSharedRegionBase +
           static_cast<Addr>(t) * kSharedRegionSpan;
}

} // namespace tp::trace

#endif // TP_TRACE_KERNEL_PROFILE_HH
