/**
 * @file
 * Deterministic synthetic instruction stream for one task instance.
 *
 * The stream is a pure function of (task type profile, instance
 * descriptor): reconstructing it twice — e.g. once in the reference
 * detailed simulation and once inside a sampled simulation — yields
 * bit-identical instruction sequences, exactly like replaying a
 * recorded trace. The paper's fast-forward mechanism needs only the
 * instance's dynamic instruction count; the detailed core consumes the
 * full stream.
 *
 * Generation is the innermost loop of detailed simulation, so the
 * stream exposes a batch API (fillBlock) and hoists every
 * draw-independent quantity out of the per-instruction path: the
 * instruction-class mix and all Bernoulli decisions are precomputed
 * integer thresholds on the raw 53-bit draw (Rng::BernoulliSampler),
 * and Zipf address selection precomputes its pow/division constants
 * (Rng::ZipfSampler). Every fast path is draw-for-draw identical to
 * the naive formulation — guarded by tests/test_rng_samplers.cc and
 * the golden-report battery (`ctest -L golden`).
 */

#ifndef TP_TRACE_INSTR_STREAM_HH
#define TP_TRACE_INSTR_STREAM_HH

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/task.hh"

namespace tp::trace {

/** Generator of one task instance's dynamic instruction stream. */
class InstrStream
{
  public:
    /**
     * @param type     the instance's task type (provides the profile)
     * @param inst     the instance descriptor (count, seed, region)
     */
    InstrStream(const TaskType &type, const TaskInstance &inst);

    /**
     * Produce the next instruction.
     * @return false when the stream is exhausted (out untouched).
     */
    bool next(Instr &out) { return fillBlock(&out, 1) == 1; }

    /**
     * Generate up to `max` instructions into the flat buffer `out`.
     *
     * The batch loop keeps the generator state in registers across
     * instructions; consuming blocks (cpu/RobCore does, in quantum-
     * sized chunks) is substantially faster than per-instruction
     * next() calls while producing the identical sequence.
     *
     * @return instructions written; less than `max` only when the
     *         stream ran out (0 once exhausted).
     */
    InstCount fillBlock(Instr *out, InstCount max);

    /** @return instructions produced so far. */
    InstCount produced() const { return produced_; }

    /** @return true when all instructions have been produced. */
    bool done() const { return produced_ >= total_; }

    /**
     * Serialize the stream position: the produced count, the RNG
     * state and the two walk registers. Everything else is a pure
     * function of (task type, instance) and is reconstructed by the
     * constructor, so load into a stream freshly constructed from
     * the same (type, instance) pair.
     */
    void
    state(StateIo &io)
    {
        io.pod(produced_);
        if (io.loading() && produced_ > total_)
            io.corrupt("instruction-stream position");
        rng_.state(io);
        io.pod(cursor_);
        io.pod(sinceLastMem_);
    }

  private:
    Addr privateAddress(Rng &rng, Addr &cursor);
    Addr sharedAddress(Rng &rng);
    std::uint32_t drawDepDist(Rng &rng);

    const KernelProfile &prof_;
    InstCount total_;
    InstCount produced_ = 0;
    Rng rng_;

    Addr privBase_;
    Addr privSize_;
    Addr sharedBase_;
    Addr sharedLines_;
    Addr cursor_ = 0;          //!< walk position for seq/strided
    std::uint64_t sinceLastMem_ = 0; //!< distance to previous memory op

    // Precomputed per-stream samplers (profile is fixed): cumulative
    // instruction-class thresholds on the raw 53-bit draw, Bernoulli
    // thresholds, Zipf constants and the dependence-distance span.
    std::uint64_t loadThreshold_;   //!< u < loadFrac
    std::uint64_t memThreshold_;    //!< u < loadFrac + storeFrac
    std::uint64_t branchThreshold_; //!< u < mem + branchFrac
    Rng::BernoulliSampler sharedSampler_;  //!< pattern.sharedFrac
    Rng::BernoulliSampler indepSampler_;   //!< indepFrac
    Rng::BernoulliSampler fpSampler_;      //!< fpFrac
    Rng::BernoulliSampler mulSampler_;     //!< mulFrac
    Rng::BernoulliSampler mlpSampler_;     //!< load-MLP 0.35
    Rng::ZipfSampler privZipf_;            //!< private Zipf lines
    Rng::ZipfSampler sharedZipf_;          //!< shared-region lines
    Rng::BoundedSampler depBounded_;       //!< [0, 2 * ilpMean)
    Rng::BoundedSampler lineOffset_;       //!< [0, kLine)
    Rng::BoundedSampler sharedWord_;       //!< [0, kLine / 8)
    Rng::BoundedSampler privOffset_;       //!< [0, privSize)
    Rng::BoundedSampler chaseSlot_;        //!< [0, privSize / 8)
    /** privSize - 1 when privSize is a power of two, else 0. */
    Addr privSizeMask_;

    /** @return `x % privSize_`, masked when the size is a power
     *  of two (the footprints the builders emit all are). */
    Addr
    wrapPriv(Addr x) const
    {
        return privSizeMask_ != 0 ? (x & privSizeMask_)
                                  : x % privSize_;
    }
};

} // namespace tp::trace

#endif // TP_TRACE_INSTR_STREAM_HH
