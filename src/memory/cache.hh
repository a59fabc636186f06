/**
 * @file
 * Set-associative write-back cache model.
 *
 * This is the building block of the TaskSim-style memory hierarchy:
 * LRU replacement, write-allocate, explicit invalidation support for
 * the write-invalidate coherence maintained by Hierarchy. The model is
 * a tag store only — no data are stored, since the synthetic streams
 * carry no values.
 */

#ifndef TP_MEMORY_CACHE_HH
#define TP_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/binary_io.hh"
#include "common/types.hh"

namespace tp::mem {

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
    Cycles latency = 4;
    /**
     * Minimum cycles between two accesses to this cache when it is a
     * *shared* level (bandwidth model); 0 disables contention.
     */
    Cycles servicePeriod = 0;
};

/** Hit/miss statistics of one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t prefetchFills = 0;

    /** @return hit rate in [0,1]; 1 if never accessed. */
    double hitRate() const
    {
        return accesses ? double(hits) / double(accesses) : 1.0;
    }
};

/** Outcome of a cache lookup-and-fill operation. */
struct CacheAccessOutcome
{
    bool hit = false;
    bool writebackVictim = false; //!< evicted line was dirty
};

/** One set-associative, write-back, LRU cache (see file comment). */
class Cache
{
  public:
    /**
     * @param name   for stats reporting ("l1-3", "l3", ...)
     * @param config geometry; size/assoc/line must be powers of two
     *               compatible (size divisible by assoc*line), and
     *               assoc at most kMaxAssoc
     */
    Cache(std::string name, const CacheConfig &config);

    /**
     * Look up `addr`; on miss, allocate the line and evict LRU.
     *
     * Defined inline (below) so Hierarchy::access — one call per
     * level per memory instruction — folds the set scan into its
     * caller instead of paying a cross-TU call.
     *
     * @param addr     byte address
     * @param is_write marks the (resident) line dirty
     * @return hit/miss and whether a dirty victim was evicted
     */
    CacheAccessOutcome access(Addr addr, bool is_write);

    /** Look up without allocating or touching LRU state. */
    bool contains(Addr addr) const;

    /**
     * Prefetch every *host* cache line holding this set's tag words
     * and recency stamps, and its clock. No simulated effect
     * whatsoever — purely a performance hint so the hierarchy can
     * overlap the host-memory latency of several upcoming set scans
     * (the tag stores of big simulated caches dwarf the host's own
     * caches, so every scan is otherwise a serialized host miss).
     * A set's tags need not start on a host line: a 20-way set's
     * 160 bytes span three or four of them.
     */
    void
    hostPrefetch(Addr addr) const
    {
        const std::uint64_t set = setIndex(addr);
        const std::size_t base = set * config_.assoc;
        prefetchHostLines(&tags_[base],
                          config_.assoc * sizeof(std::uint64_t));
        prefetchHostLines(&stamps_[base], config_.assoc);
        __builtin_prefetch(&clocks_[set]);
    }

    /**
     * Allocate the line holding `addr` if absent (prefetch fill).
     * Does not count as a demand access; a dirty victim still counts
     * as a writeback.
     */
    void fill(Addr addr);

    /**
     * Invalidate the line holding `addr` if present.
     * @return true if a line was invalidated
     */
    bool invalidate(Addr addr);

    /**
     * Fill every way with a junk line at the oldest LRU position.
     *
     * Simulation then starts from steady-state occupancy instead of
     * ramping from an empty cache — equivalent to entering the traced
     * region of interest mid-application, as the paper's traces do.
     *
     * A *junk line* is anonymous: every one holds the same sentinel
     * tag word (kJunkWord), which no generator address maps to, so
     * it never hits, and it is always clean. Only its validity and
     * LRU position can affect a result, and two junk lines are
     * interchangeable: which junk way a miss evicts is invisible to
     * hits, misses, evictions, writebacks and occupancy. That makes
     * prepollution two fills of the tag and stamp arrays.
     */
    void prepollute();

    /**
     * Emulate the eviction pressure of `lines` skipped line fills:
     * insert that many most-recently-used junk lines (see
     * prepollute) round-robin across the sets, displacing LRU
     * residents.
     *
     * All junk of one call in one set shares one stamp: the call's
     * first visit to a set takes a new stamp, and its later visits
     * (a call of more lines than sets) reuse it. That stamp is newer
     * than every line the call leaves in place and older than every
     * line touched later, which is all that per-insertion stamps
     * guaranteed, since junk lines are interchangeable. A call that
     * replaces every way — the usual case after a long fast-forward
     * — is therefore three array fills: every way junk, and every
     * stamp and every clock 1. A partial call inserts one line at a
     * time in set order, each into its set's victimWay. Every real
     * line holds a stamp of its own, so only junk lines (or invalid
     * ways) can tie, and which of them a junk line displaces is
     * invisible too. `lines == 0` changes nothing.
     *
     * Used when leaving fast-forward mode: state frozen during fast
     * simulation is artificially warm; aging reconstructs the churn
     * the skipped instructions would have caused (paper Section
     * III-B assumes one warmup task re-establishes this — true at
     * full trace scale, made explicit here at reduced scale).
     */
    void ageLines(std::uint64_t lines);

    /** @return fraction of lines currently valid, in [0,1]. */
    double occupancy() const;

    /** @return accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /** @return configuration. */
    const CacheConfig &config() const { return config_; }

    /** @return cache name. */
    const std::string &name() const { return name_; }

    /**
     * Checkpoint state, in order: the way count, the tag block, the
     * stamp block, the clock block, the aging cursor and the
     * statistics (cumulative counters must survive a checkpoint
     * restore bit-identically). Geometry is fixed by construction;
     * only the way count is stored, and a mismatch throws IoError on
     * load, as does a stamp newer than its set's clock (a new stamp
     * must be newer than every line of its set).
     */
    void state(StateIo &io);

    /**
     * Largest associativity: renumbering a set (see the layout
     * comment) needs a stamp left over after its ways' stamps.
     */
    static constexpr std::uint32_t kMaxAssoc = 254;

  private:
    /**
     * Tag-store layout: one packed 8-byte word per way holding
     * `tag << 2 | dirty | valid` (synthetic addresses stay below
     * 2^58 — regions at 2^40 / 2^44 — so a line tag fits 62 bits),
     * a parallel array of 8-bit recency stamps, and one 8-bit clock
     * per set. 9 bytes per way: the 8-core high-performance
     * hierarchy carries 5.1 MiB of cache state.
     *
     * Splitting tags from stamps keeps the hit scan — the single
     * hottest loop of detailed simulation — to the tag words, and
     * lets it run branchlessly: all ways are compared with
     * conditional moves and at most one can match, so the scan has
     * no data-dependent early exit to mispredict. Real tags are
     * unique per set; a set may hold the junk word (kJunkWord) many
     * times, but it never equals the word of a real tag.
     *
     * Recency is per set, because every replacement decision
     * compares stamps within one set: a higher stamp is more recent,
     * equal stamps tie, and 0 (a prepolluted line) is the oldest.
     * Every hit and fill takes `++clock` of its set (newStamp), so
     * every stamp is at most its set's clock and no two real lines
     * tie. Before a clock passes 255, renumber maps the set's nonzero
     * stamps to 1..m, keeping their order and ties, and the clock
     * becomes m; zeros stay 0. Each decision is therefore the one a
     * global 64-bit tick per way would make.
     */
    static constexpr std::uint64_t kValidBit = 1;
    static constexpr std::uint64_t kDirtyBit = 2;
    static constexpr std::uint32_t kNoWay = ~0u;

    /**
     * The tag word of every junk line: a valid, clean line with tag
     * 2^50, far above every region the trace generators use, so no
     * access can hit it.
     */
    static constexpr std::uint64_t kJunkWord =
        (Addr{1} << 50 << 2) | kValidBit;

    /** @return the packed tag word of a valid, clean line. */
    static std::uint64_t
    packTag(Addr tag)
    {
        return (tag << 2) | kValidBit;
    }

    static bool validWord(std::uint64_t w) { return w & kValidBit; }
    static bool dirtyWord(std::uint64_t w) { return w & kDirtyBit; }

    /**
     * @return index of the way holding `want` in `set_tags`, or
     * kNoWay. Branchless full scan (see layout comment).
     */
    std::uint32_t
    findWay(const std::uint64_t *set_tags, std::uint64_t want) const
    {
        std::uint32_t hit_way = kNoWay;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            hit_way =
                (set_tags[w] & ~kDirtyBit) == want ? w : hit_way;
        }
        return hit_way;
    }

    /**
     * @return way index to evict: the first invalid way, else the
     * way with the (first) smallest stamp — the order the original
     * combined scan produced.
     */
    std::uint32_t victimWay(const std::uint64_t *set_tags,
                            const std::uint8_t *set_stamps) const;

    /**
     * @return a stamp newer than every stamp of `set`, advancing its
     * clock (renumbering the set first when the clock is at 255).
     */
    std::uint8_t
    newStamp(std::uint64_t set)
    {
        std::uint8_t &clock = clocks_[set];
        if (clock == kMaxStamp) [[unlikely]]
            renumber(set);
        return ++clock;
    }

    /** Map `set`'s nonzero stamps to 1..m, in order (see layout). */
    void renumber(std::uint64_t set);

    /** Hint each host line the `bytes` bytes at `p` touch, once. */
    static void
    prefetchHostLines(const void *p, std::size_t bytes)
    {
        constexpr std::uintptr_t kHostLine = 64;
        const auto at = reinterpret_cast<std::uintptr_t>(p);
        for (std::uintptr_t line = at & ~(kHostLine - 1);
             line < at + bytes; line += kHostLine)
            __builtin_prefetch(reinterpret_cast<const void *>(line));
    }

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    static constexpr std::uint8_t kMaxStamp = 255;

    std::string name_;
    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint32_t lineShift_;
    std::vector<std::uint64_t> tags_;  //!< numSets_*assoc, set-major
    std::vector<std::uint8_t> stamps_; //!< per way; higher = more recent
    std::vector<std::uint8_t> clocks_; //!< per set; its newest stamp
    std::uint64_t ageCursor_ = 0;
    CacheStats stats_;
};

inline CacheAccessOutcome
Cache::access(Addr addr, bool is_write)
{
    ++stats_.accesses;
    const std::uint64_t set = setIndex(addr);
    const std::size_t base = set * config_.assoc;
    std::uint64_t *const set_tags = &tags_[base];

    // A valid line with this tag matches `want` in one compare once
    // the dirty bit is masked out.
    const std::uint64_t want = packTag(tagOf(addr));

    const std::uint32_t hit_way = findWay(set_tags, want);
    if (hit_way != kNoWay) {
        ++stats_.hits;
        stamps_[base + hit_way] = newStamp(set);
        if (is_write)
            set_tags[hit_way] |= kDirtyBit;
        return {true, false};
    }

    ++stats_.misses;
    std::uint8_t *const set_stamps = &stamps_[base];
    const std::uint32_t victim = victimWay(set_tags, set_stamps);
    const std::uint64_t victim_tag = set_tags[victim];

    CacheAccessOutcome out{false, false};
    if (validWord(victim_tag)) {
        ++stats_.evictions;
        if (dirtyWord(victim_tag)) {
            ++stats_.writebacks;
            out.writebackVictim = true;
        }
    }
    set_tags[victim] = want | (is_write ? kDirtyBit : 0);
    set_stamps[victim] = newStamp(set);
    return out;
}

} // namespace tp::mem

#endif // TP_MEMORY_CACHE_HH
