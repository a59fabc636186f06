/**
 * @file
 * The full TaskSim-style memory hierarchy.
 *
 * Composes per-core L1s, private or shared L2s, an optional shared L3
 * and DRAM, with write-invalidate coherence between private caches
 * (tracked by a sharers directory over shared-region lines, see the
 * address layout in common/types.hh) and bandwidth contention at
 * every shared level. The detailed CPU model resolves every memory
 * instruction through Hierarchy::access().
 */

#ifndef TP_MEMORY_HIERARCHY_HH
#define TP_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"

namespace tp::mem {

/** Level at which an access was satisfied. */
enum class HitLevel : std::uint8_t { L1, L2, L3, Mem };

/** Result of one memory access through the hierarchy. */
struct AccessResult
{
    Cycles latency = 0;
    HitLevel level = HitLevel::L1;
};

/** Configuration of the whole hierarchy. */
struct MemoryConfig
{
    CacheConfig l1;
    CacheConfig l2;
    bool l2Shared = false;  //!< low-power config shares one L2
    bool hasL3 = false;     //!< high-performance config adds shared L3
    CacheConfig l3;
    DramConfig dram;
    /** Extra cycles for a store upgrading a line shared remotely. */
    Cycles upgradeLatency = 12;
    /** Cycles per request on the shared interconnect below L1. */
    Cycles busServicePeriod = 1;
    /**
     * Per-core stream prefetcher: after two consecutive L1 misses
     * with the same line-stride, prefetch `prefetchDegree` lines
     * ahead into L1/L2/L3 (idealized: no bandwidth charge).
     */
    std::uint32_t prefetchDegree = 2;
};

/** Aggregated hierarchy statistics. */
struct HierarchyStats
{
    CacheStats l1;           //!< summed over cores
    CacheStats l2;           //!< summed over L2 slices
    CacheStats l3;
    std::uint64_t dramRequests = 0;
    double dramMeanQueueDelay = 0.0;
    std::uint64_t coherenceInvalidations = 0;
};

/** See file comment. */
class Hierarchy
{
  public:
    /**
     * @param config    geometry/timing of all levels
     * @param num_cores number of cores (= number of L1s)
     */
    Hierarchy(const MemoryConfig &config, std::uint32_t num_cores);

    /**
     * Perform one memory access for `core` at time `now`.
     *
     * Handles lookup/fill at every level, write-invalidate coherence
     * for stores to lines cached remotely, and queueing at shared
     * resources. Deliberately *not* inlined into callers: the
     * detailed core's per-instruction loop keeps its state in
     * registers, and folding this whole multi-level path into it
     * spills them (measured slower than the call).
     */
    AccessResult access(ThreadId core, Addr addr, bool is_write,
                        Cycles now);

    /**
     * Reconstruct steady-state churn after a fast-forward phase: age
     * every cache in proportion to the instructions skipped in fast
     * mode (see Cache::ageLines). Private levels age by the per-core
     * share; shared levels by the total.
     *
     * @param skipped_insts dynamic instructions fast-forwarded since
     *                      the last detailed phase
     * @param bytes_per_inst estimated line-fill traffic per skipped
     *                      instruction (default: ~30% memory ops
     *                      with moderate locality)
     */
    void applyFastForwardAging(std::uint64_t skipped_insts,
                               double bytes_per_inst = 2.0);

    /** @return summed statistics. */
    HierarchyStats stats() const;

    /** @return number of cores. */
    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(l1s_.size());
    }

    /** @return configuration. */
    const MemoryConfig &config() const { return config_; }

    /**
     * Checkpoint the complete warm state: every cache's tag, stamp
     * and clock arrays, all port and DRAM reservations, DRAM's
     * counters, the sharers directory, the coherence counter and the
     * per-core prefetcher detectors. Geometry (configuration, core
     * count) is not serialized; the restoring hierarchy must be
     * constructed identically. Throws IoError on mismatch.
     */
    void state(StateIo &io);

  private:
    /** @return the L2 slice serving `core`. */
    Cache &l2For(ThreadId core);

    /**
     * Invalidate `line_addr` in the private caches of every core in
     * the sharers mask `others`. The caller rewrites the line's
     * sharers entry itself.
     */
    void invalidateRemote(std::uint64_t others, Addr line_addr);

    /** Stream-prefetcher state per core. */
    struct Prefetcher
    {
        std::int64_t lastLine = -1;
        std::int64_t lastDelta = 0;
    };

    /** Update the stream detector on an L1 miss; issue fills. */
    void notifyMiss(ThreadId core, Addr addr);

    /** Install a line at every level without charging latency. */
    void prefetchLine(ThreadId core, Addr addr);

    MemoryConfig config_;
    std::vector<Cache> l1s_;
    std::vector<Cache> l2s_;       //!< one per core, or a single slice
    std::unique_ptr<Cache> l3_;
    Dram dram_;
    ServicePort bus_;              //!< interconnect below the L1s
    ServicePort l2Port_;           //!< bandwidth of a shared L2
    ServicePort l3Port_;           //!< bandwidth of the L3

    /**
     * The L2 slice serving each core, resolved once at construction
     * so the access hot path is one indexed load instead of a
     * shared/private branch plus bounds-checked vector indexing.
     */
    std::vector<Cache *> l2Of_;

    /**
     * Sharers bitmask per line for coherence. Only lines that were
     * ever touched by more than zero cores appear; private-region
     * lines are touched by exactly one task and carry no coherence
     * traffic, so the map stays small (bounded by shared footprints).
     * A FlatMap64 keeps the per-access lookup to one probe of a
     * contiguous array (see common/flat_map.hh).
     */
    FlatMap64<std::uint64_t> sharers_;
    std::uint64_t coherenceInvalidations_ = 0;
    std::vector<Prefetcher> prefetchers_;
};

} // namespace tp::mem

#endif // TP_MEMORY_HIERARCHY_HH
