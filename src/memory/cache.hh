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
    /**
     * Scan-resistant insertion (LIP): lines filled on a miss are
     * inserted at the LRU position and only promoted on a hit, so
     * streaming data cannot displace the resident hot set. Modern
     * LLC replacement (DRRIP-family) behaves this way; enabled for
     * the shared levels of both Table II configurations.
     */
    bool scanResistantInsert = false;
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
     *               compatible (size divisible by assoc*line)
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
     * Prefetch the *host* cache lines holding this set's tag and
     * LRU words. No simulated effect whatsoever — purely a
     * performance hint so the hierarchy can overlap the host-memory
     * latency of several upcoming set scans (the tag stores of big
     * simulated caches dwarf the host's own caches, so every scan
     * is otherwise a serialized host miss).
     */
    void
    hostPrefetch(Addr addr) const
    {
        const std::size_t base = setIndex(addr) * config_.assoc;
        __builtin_prefetch(&tags_[base]);
        __builtin_prefetch(&lru_[base]);
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
     * hits, misses, evictions, writebacks and occupancy (see
     * ageLines for the one exception). That makes prepollution two
     * fills of the tag and LRU arrays.
     */
    void prepollute();

    /**
     * Emulate the eviction pressure of `lines` skipped line fills:
     * insert that many most-recently-used junk lines (see
     * prepollute) round-robin across the sets, displacing LRU
     * residents.
     *
     * All junk of one call shares one LRU tick, `++lruTick_`: newer
     * than every line the call leaves in place and older than every
     * line touched later, which is all that per-insertion ticks
     * guaranteed, since junk lines are interchangeable. A call that
     * replaces every way — the usual case after a long fast-forward
     * — is therefore two fills; a partial call keeps the victim rule
     * and set order of one insertion at a time. `lines == 0` changes
     * nothing.
     *
     * A scan-resistant cache is the exception: it stamps each junk
     * line with its own tick and always takes the one-at-a-time
     * path. Its misses insert at tick 0, so once an invalidation
     * frees a way two real lines can tie, and then way order decides
     * which one goes. A shared tick would make misses take junk ways
     * in way order rather than insertion order, placing real lines
     * in other ways and changing that outcome.
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

    /** @return number of sets. */
    std::uint64_t numSets() const { return numSets_; }

    /**
     * Checkpoint state: packed tag words, LRU ticks and the
     * replacement/aging counters, plus the statistics (cumulative
     * counters must survive a checkpoint restore bit-identically).
     * Geometry is fixed by construction; only the way count is
     * stored, and a mismatch throws IoError on load, as does a
     * stored tick newer than the stored LRU clock (ageLines relies
     * on `++lruTick_` being newer than every resident line).
     */
    void state(StateIo &io);

  private:
    /**
     * Tag-store layout: one packed 8-byte word per way holding
     * `tag << 2 | dirty | valid` (synthetic addresses stay below
     * 2^58 — regions at 2^40 / 2^44 — so a line tag fits 62 bits),
     * and a parallel array of LRU ticks.
     *
     * Splitting tags from ticks keeps the hit scan — the single
     * hottest loop of detailed simulation — inside one host cache
     * line per set for 8-way caches, and lets it run branchlessly:
     * all ways are compared with conditional moves and at most one
     * can match, so the scan has no data-dependent early exit to
     * mispredict. Real tags are unique per set; a set may hold the
     * junk word (kJunkWord) many times, but it never equals the word
     * of a real tag.
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
     * way with the (first) smallest LRU tick — the order the
     * original combined scan produced.
     */
    std::uint32_t victimWay(const std::uint64_t *set_tags,
                            const std::uint64_t *set_lru) const;

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    std::string name_;
    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint32_t lineShift_;
    std::vector<std::uint64_t> tags_; //!< numSets_*assoc, set-major
    std::vector<std::uint64_t> lru_;  //!< higher = more recent
    std::uint64_t lruTick_ = 0;
    std::uint64_t ageCursor_ = 0;
    CacheStats stats_;
};

inline CacheAccessOutcome
Cache::access(Addr addr, bool is_write)
{
    ++stats_.accesses;
    const std::size_t base = setIndex(addr) * config_.assoc;
    std::uint64_t *const set_tags = &tags_[base];

    // A valid line with this tag matches `want` in one compare once
    // the dirty bit is masked out.
    const std::uint64_t want = packTag(tagOf(addr));

    const std::uint32_t hit_way = findWay(set_tags, want);
    if (hit_way != kNoWay) {
        ++stats_.hits;
        lru_[base + hit_way] = ++lruTick_;
        if (is_write)
            set_tags[hit_way] |= kDirtyBit;
        return {true, false};
    }

    ++stats_.misses;
    std::uint64_t *const set_lru = &lru_[base];
    const std::uint32_t victim = victimWay(set_tags, set_lru);
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
    set_lru[victim] = config_.scanResistantInsert ? 0 : ++lruTick_;
    return out;
}

} // namespace tp::mem

#endif // TP_MEMORY_CACHE_HH
