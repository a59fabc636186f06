/**
 * @file
 * Unit tests for the memory hierarchy: cache geometry, LRU and
 * invalidation behaviour, prepollution/aging, service ports, DRAM,
 * coherence and the prefetcher.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/arch_config.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/hierarchy.hh"

namespace tp::mem {
namespace {

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64B lines = 512 B.
    return CacheConfig{512, 2, 64, 3, 0};
}

TEST(Cache, HitAfterFill)
{
    Cache c("t", smallCache());
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13f, false).hit); // same line
    EXPECT_FALSE(c.access(0x140, false).hit); // next line
}

TEST(Cache, LruEvictionOrder)
{
    Cache c("t", smallCache());
    // Three lines mapping to the same set (set stride = 4*64 = 256).
    c.access(0x0, false);
    c.access(0x100, false);
    c.access(0x0, false);        // touch A again: B is LRU
    c.access(0x200, false);      // evicts B
    EXPECT_TRUE(c.access(0x0, false).hit);
    EXPECT_FALSE(c.contains(0x100));
    EXPECT_TRUE(c.contains(0x200));
}

TEST(Cache, DirtyVictimReportsWriteback)
{
    Cache c("t", smallCache());
    c.access(0x0, true); // dirty
    c.access(0x100, false);
    const auto out = c.access(0x200, false); // evicts dirty 0x0
    EXPECT_TRUE(out.writebackVictim);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c("t", smallCache());
    c.access(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40)); // second time: nothing there
    EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(Cache, StatsCount)
{
    Cache c("t", smallCache());
    c.access(0x0, false);
    c.access(0x0, false);
    c.access(0x40, false);
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_NEAR(c.stats().hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(Cache, OccupancyTracksFills)
{
    Cache c("t", smallCache());
    EXPECT_DOUBLE_EQ(c.occupancy(), 0.0);
    c.access(0x0, false);
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0 / 8.0);
}

TEST(Cache, PrepolluteFillsEverythingWithoutHits)
{
    Cache c("t", smallCache());
    c.prepollute();
    EXPECT_DOUBLE_EQ(c.occupancy(), 1.0);
    // Junk lines never hit; real accesses still miss and allocate.
    EXPECT_FALSE(c.access(0x0, false).hit);
    EXPECT_TRUE(c.access(0x0, false).hit);
}

TEST(Cache, PrepolluteVictimsEvictBeforeRealLines)
{
    Cache c("t", smallCache());
    c.prepollute();
    c.access(0x0, false); // evicts junk, not...
    c.access(0x100, false);
    // Both real lines must coexist (2 ways): junk got evicted.
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_TRUE(c.contains(0x100));
}

TEST(Cache, AgeLinesDisplacesLru)
{
    Cache c("t", smallCache());
    c.access(0x0, false);
    c.access(0x40, false);
    c.ageLines(8); // full capacity of junk at MRU
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, AgeLinesPartialKeepsMru)
{
    Cache c("t", CacheConfig{512, 2, 64, 3, 0});
    // Fill set 0 with two lines; age only one line into set 0.
    c.access(0x0, false);   // set 0
    c.access(0x100, false); // set 0
    c.access(0x0, false);   // A is MRU
    c.ageLines(1);          // one junk line into set 0: evicts B
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache("t", CacheConfig{500, 2, 64, 3, 0}), SimError);
    EXPECT_THROW(Cache("t", CacheConfig{512, 2, 60, 3, 0}), SimError);
    EXPECT_THROW(Cache("t", CacheConfig{512, 0, 64, 3, 0}), SimError);
    // One set of 255 ways: past Cache::kMaxAssoc.
    EXPECT_THROW(Cache("t", CacheConfig{255 * 64, 255, 64, 3, 0}),
                 SimError);
}

/**
 * Reference model of a cache whose junk lines are *not* anonymous:
 * every junk line gets a unique tag counting up from 2^50, and every
 * junk insertion its own LRU tick, round-robin over the sets with
 * the aging victim rule. Cache shares one junk word, gives the junk
 * of one aging call in one set one stamp and ages into victimWay;
 * through its public interface it must be indistinguishable from
 * this model.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config),
          numSets_(config.sizeBytes / config.lineBytes / config.assoc),
          ways_(numSets_ * config.assoc)
    {}

    CacheAccessOutcome
    access(Addr addr, bool is_write)
    {
        ++stats_.accesses;
        Way *const set = setOf(addr);
        if (Way *const hit = find(set, addr)) {
            ++stats_.hits;
            hit->lru = ++tick_;
            hit->dirty = hit->dirty || is_write;
            return {true, false};
        }
        ++stats_.misses;
        return {false, replace(set, addr, is_write)};
    }

    void
    fill(Addr addr)
    {
        Way *const set = setOf(addr);
        if (find(set, addr) != nullptr)
            return;
        replace(set, addr, false);
        ++stats_.prefetchFills;
    }

    bool
    invalidate(Addr addr)
    {
        Way *const w = find(setOf(addr), addr);
        if (w == nullptr)
            return false;
        *w = Way{};
        ++stats_.invalidations;
        return true;
    }

    bool
    contains(Addr addr)
    {
        return find(setOf(addr), addr) != nullptr;
    }

    void
    prepollute()
    {
        for (Way &w : ways_)
            w = Way{nextJunkTag_++, true, false, 0};
    }

    void
    ageLines(std::uint64_t lines)
    {
        lines = std::min<std::uint64_t>(lines, ways_.size());
        for (std::uint64_t i = 0; i < lines; ++i) {
            Way *const set =
                &ways_[(cursor_++ % numSets_) * config_.assoc];
            // The first invalid way at index >= 1, else way 0 if it
            // is invalid, else the first strict-minimum tick.
            std::uint32_t victim = 0;
            for (std::uint32_t w = 1; w < config_.assoc; ++w) {
                if (!set[w].valid) {
                    victim = w;
                    break;
                }
                if (set[victim].valid && set[w].lru < set[victim].lru)
                    victim = w;
            }
            set[victim] = Way{nextJunkTag_++, true, false, ++tick_};
        }
    }

    double
    occupancy() const
    {
        const auto valid =
            std::count_if(ways_.begin(), ways_.end(),
                          [](const Way &w) { return w.valid; });
        return double(valid) / double(ways_.size());
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    Way *
    setOf(Addr addr)
    {
        const Addr line = addr / config_.lineBytes;
        return &ways_[(line % numSets_) * config_.assoc];
    }

    Way *
    find(Way *set, Addr addr)
    {
        const Addr tag = addr / config_.lineBytes;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }

    /** Evict the victim of `set` for `addr`; @return dirty victim. */
    bool
    replace(Way *set, Addr addr, bool is_write)
    {
        // First invalid way, else the first strict-minimum tick.
        std::uint32_t victim = 0;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            if (!set[w].valid) {
                if (set[victim].valid)
                    victim = w;
            } else if (set[victim].valid &&
                       set[w].lru < set[victim].lru) {
                victim = w;
            }
        }
        bool dirty_victim = false;
        if (set[victim].valid) {
            ++stats_.evictions;
            if (set[victim].dirty) {
                ++stats_.writebacks;
                dirty_victim = true;
            }
        }
        set[victim] =
            Way{addr / config_.lineBytes, true, is_write, ++tick_};
        return dirty_victim;
    }

    CacheConfig config_;
    std::uint64_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    std::uint64_t cursor_ = 0;
    Addr nextJunkTag_ = Addr{1} << 50;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.writebacks, want.writebacks);
    EXPECT_EQ(got.invalidations, want.invalidations);
    EXPECT_EQ(got.prefetchFills, want.prefetchFills);
}

/** Parameter: the associativity. */
class AnonymousJunk : public testing::TestWithParam<std::uint32_t>
{};

/**
 * Random sequences of every operation — demand accesses, prefetch
 * fills, invalidations, partial and full aging, prepollution — drive
 * Cache and the reference model alike; after each one, outcomes,
 * residency of every address in play, occupancy and statistics must
 * agree.
 */
TEST_P(AnonymousJunk, MatchesUniqueJunkReference)
{
    const std::uint32_t assoc = GetParam();
    constexpr std::uint64_t kSets = 4;
    constexpr std::uint32_t kLine = 64;
    const CacheConfig cfg{kSets * assoc * kLine, assoc, kLine, 1, 0};
    const std::uint64_t lines = kSets * assoc;
    // Three lines per way compete for each set.
    const std::uint64_t footprint = 3 * lines;

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Cache c("t", cfg);
        ReferenceCache ref(cfg);
        Rng rng(seed);
        for (int op = 0; op < 1500; ++op) {
            SCOPED_TRACE("seed " + std::to_string(seed) + ", op " +
                         std::to_string(op));
            const Addr addr = rng.nextBounded(footprint) * kLine +
                              rng.nextBounded(kLine);
            const std::uint64_t pick = rng.nextBounded(100);
            std::string what;
            if (pick < 55) {
                const bool write = rng.nextBounded(3) == 0;
                what = "access";
                const CacheAccessOutcome got = c.access(addr, write);
                const CacheAccessOutcome want = ref.access(addr, write);
                EXPECT_EQ(got.hit, want.hit);
                EXPECT_EQ(got.writebackVictim, want.writebackVictim);
            } else if (pick < 70) {
                what = "fill";
                c.fill(addr);
                ref.fill(addr);
            } else if (pick < 82) {
                what = "invalidate";
                EXPECT_EQ(c.invalidate(addr), ref.invalidate(addr));
            } else if (pick < 95) {
                // Partial aging: up to just under the whole cache.
                const std::uint64_t n = rng.nextBounded(lines);
                what = "ageLines(" + std::to_string(n) + ")";
                c.ageLines(n);
                ref.ageLines(n);
            } else if (pick < 99) {
                // Full aging, sometimes asking for more than fits.
                const std::uint64_t n = lines + rng.nextBounded(3);
                what = "ageLines(" + std::to_string(n) + ")";
                c.ageLines(n);
                ref.ageLines(n);
            } else {
                what = "prepollute";
                c.prepollute();
                ref.prepollute();
            }
            for (std::uint64_t l = 0; l < footprint; ++l)
                ASSERT_EQ(c.contains(l * kLine), ref.contains(l * kLine))
                    << "after " << what << ": line " << l;
            ASSERT_DOUBLE_EQ(c.occupancy(), ref.occupancy())
                << "after " << what;
            expectSameStats(c.stats(), ref.stats());
            if (HasFailure())
                return;
        }
    }
}

/**
 * Renumbering stress: in a one-set cache every touch advances the
 * same 8-bit clock, so each seed's 20,000 operations renumber the
 * set's stamps many times (see Cache's layout comment). Full aging
 * restarts the clock, so here it is rare, as is prepollution. After
 * every operation Cache must still match the u64-tick reference.
 */
TEST_P(AnonymousJunk, OneSetRenumberingMatchesReference)
{
    const std::uint32_t assoc = GetParam();
    constexpr std::uint32_t kLine = 64;
    const CacheConfig cfg{assoc * kLine, assoc, kLine, 1, 0};
    const std::uint64_t footprint = 3 * assoc;

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Cache c("t", cfg);
        ReferenceCache ref(cfg);
        Rng rng(seed);
        for (int op = 0; op < 20000; ++op) {
            const Addr addr = rng.nextBounded(footprint) * kLine;
            const std::uint64_t pick = rng.nextBounded(1000);
            if (pick < 600) {
                const bool write = rng.nextBounded(3) == 0;
                const CacheAccessOutcome got = c.access(addr, write);
                const CacheAccessOutcome want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << seed << "/" << op;
                ASSERT_EQ(got.writebackVictim, want.writebackVictim)
                    << seed << "/" << op;
            } else if (pick < 750) {
                c.fill(addr);
                ref.fill(addr);
            } else if (pick < 870) {
                ASSERT_EQ(c.invalidate(addr), ref.invalidate(addr))
                    << seed << "/" << op;
            } else if (pick < 998) {
                const std::uint64_t n = rng.nextBounded(assoc);
                c.ageLines(n);
                ref.ageLines(n);
            } else if (pick < 999) {
                c.ageLines(assoc);
                ref.ageLines(assoc);
            } else {
                c.prepollute();
                ref.prepollute();
            }
            for (std::uint64_t l = 0; l < footprint; ++l)
                ASSERT_EQ(c.contains(l * kLine), ref.contains(l * kLine))
                    << seed << "/" << op << ": line " << l;
        }
        expectSameStats(c.stats(), ref.stats());
    }
}

/**
 * The widest legal set: once its kMaxAssoc ways hold distinct
 * stamps, a renumbering leaves the clock at 254, so every second
 * touch renumbers again and the one free stamp is all there is.
 */
TEST(CacheStamps, RenumberingAtMaxAssocMatchesReference)
{
    constexpr std::uint32_t kWays = Cache::kMaxAssoc;
    const CacheConfig cfg{kWays * 64, kWays, 64, 1, 0}; // one set
    Cache c("t", cfg);
    ReferenceCache ref(cfg);
    Rng rng(3);
    for (int op = 0; op < 5000; ++op) {
        const Addr a = rng.nextBounded(kWays + kWays / 4) * 64;
        ASSERT_EQ(c.access(a, false).hit, ref.access(a, false).hit)
            << "op " << op;
    }
    expectSameStats(c.stats(), ref.stats());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AnonymousJunk, testing::Values(2u, 8u, 16u, 20u),
    [](const testing::TestParamInfo<std::uint32_t> &info) {
        return std::to_string(info.param) + "wayLru";
    });

TEST(ServicePort, NoContentionWhenIdle)
{
    ServicePort p(4);
    EXPECT_EQ(p.request(100), 0u);
    EXPECT_EQ(p.request(104), 0u);
}

TEST(ServicePort, QueuesBackToBackRequests)
{
    ServicePort p(4);
    EXPECT_EQ(p.request(100), 0u); // busy until 104
    EXPECT_EQ(p.request(100), 4u); // waits 4
    EXPECT_EQ(p.request(100), 8u); // waits 8
}

TEST(ServicePort, ZeroPeriodMeansInfiniteBandwidth)
{
    ServicePort p(0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(p.request(5), 0u);
}

TEST(Dram, LatencyIncludesQueueing)
{
    Dram d(DramConfig{100, 8, 1});
    EXPECT_EQ(d.access(0, 0), 100u);
    EXPECT_EQ(d.access(0, 0), 108u);
    EXPECT_EQ(d.requests(), 2u);
    EXPECT_DOUBLE_EQ(d.meanQueueDelay(), 4.0);
}

TEST(Dram, ZeroPeriodCountsNothing)
{
    Dram d(DramConfig{100, 0, 1});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(d.access(0, 5), 100u);
    EXPECT_EQ(d.requests(), 0u); // not even counted
    EXPECT_EQ(d.meanQueueDelay(), 0.0);
}

TEST(Dram, ChannelsInterleaveByLine)
{
    Dram d(DramConfig{100, 8, 2});
    // Consecutive lines hit different channels: no queueing.
    EXPECT_EQ(d.access(0, 0), 100u);
    EXPECT_EQ(d.access(64, 0), 100u);
    EXPECT_EQ(d.access(128, 0), 108u); // back on channel 0
}

TEST(Dram, RejectsZeroChannels)
{
    EXPECT_THROW(Dram(DramConfig{100, 8, 0}), SimError);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : config_(cpu::highPerformanceConfig().memory),
          h_(config_, 4)
    {
    }

    MemoryConfig config_;
    Hierarchy h_;
};

TEST_F(HierarchyTest, L1HitIsFast)
{
    h_.access(0, 0x1000, false, 0);
    const AccessResult r = h_.access(0, 0x1000, false, 10);
    EXPECT_EQ(static_cast<int>(r.level),
              static_cast<int>(HitLevel::L1));
    EXPECT_EQ(r.latency, config_.l1.latency);
}

TEST_F(HierarchyTest, ColdMissGoesToDram)
{
    // Use an address no prefetcher could have predicted.
    const AccessResult r = h_.access(0, 0x9990040, false, 0);
    EXPECT_EQ(static_cast<int>(r.level),
              static_cast<int>(HitLevel::Mem));
    EXPECT_GE(r.latency, config_.dram.latency);
}

TEST_F(HierarchyTest, RemoteCoreMissesOwnL1)
{
    const Addr shared = kSharedRegionBase + 0x40;
    h_.access(0, shared, false, 0);
    const AccessResult r = h_.access(1, shared, false, 100);
    EXPECT_NE(static_cast<int>(r.level),
              static_cast<int>(HitLevel::L1));
}

TEST_F(HierarchyTest, StoreInvalidatesRemoteCopies)
{
    const Addr shared = kSharedRegionBase + 0x80;
    h_.access(0, shared, false, 0);
    h_.access(1, shared, false, 10);
    // Core 1 writes: core 0's copy must be invalidated.
    h_.access(1, shared, true, 20);
    const AccessResult r = h_.access(0, shared, false, 30);
    EXPECT_NE(static_cast<int>(r.level),
              static_cast<int>(HitLevel::L1));
    EXPECT_GE(h_.stats().coherenceInvalidations, 1u);
}

TEST_F(HierarchyTest, PrivateAddressesNotCoherenceTracked)
{
    const Addr priv = 0x5000; // below kSharedRegionBase
    h_.access(0, priv, false, 0);
    h_.access(1, priv, true, 10);
    // Core 0 still hits its own L1: no invalidation for private data.
    const AccessResult r = h_.access(0, priv, false, 20);
    EXPECT_EQ(static_cast<int>(r.level),
              static_cast<int>(HitLevel::L1));
    EXPECT_EQ(h_.stats().coherenceInvalidations, 0u);
}

TEST_F(HierarchyTest, UpgradeAddsLatency)
{
    const Addr shared = kSharedRegionBase + 0xc0;
    h_.access(0, shared, false, 0);
    h_.access(1, shared, false, 10);
    const AccessResult hit_only = h_.access(1, shared, false, 20);
    const AccessResult upgrade = h_.access(1, shared, true, 30);
    EXPECT_GE(upgrade.latency,
              hit_only.latency + config_.upgradeLatency);
}

TEST_F(HierarchyTest, StreamPrefetcherCatchesStrides)
{
    // Two misses establish the stride; the third confirms it and
    // prefetches ahead, so the fourth access hits in L1.
    const Addr base = 0x400000;
    h_.access(0, base, false, 0);
    h_.access(0, base + 64, false, 100);
    h_.access(0, base + 128, false, 200);
    const AccessResult r = h_.access(0, base + 192, false, 300);
    EXPECT_EQ(static_cast<int>(r.level),
              static_cast<int>(HitLevel::L1));
    EXPECT_GT(h_.stats().l1.prefetchFills, 0u);
}

TEST_F(HierarchyTest, SharedBandwidthCreatesContention)
{
    // Saturate the L3 port from many cores at the same instant; the
    // aggregate latency must exceed the no-contention sum.
    Cycles no_contention = 0;
    {
        Hierarchy solo(config_, 4);
        no_contention =
            solo.access(0, 0x8880000, false, 0).latency;
    }
    Cycles total = 0;
    for (ThreadId c = 0; c < 4; ++c)
        total += h_.access(c, 0x8880000 + c * 4096, false, 0).latency;
    EXPECT_GT(total, 4 * config_.l1.latency + no_contention);
}

TEST_F(HierarchyTest, AgingEvictsFrozenWarmState)
{
    const Addr a = 0x3000;
    h_.access(0, a, false, 0);
    EXPECT_TRUE(h_.access(0, a, false, 10).level == HitLevel::L1);
    // Age far more than every cache's capacity.
    h_.applyFastForwardAging(1ULL << 30);
    const AccessResult r = h_.access(0, a, false, 20);
    EXPECT_EQ(static_cast<int>(r.level),
              static_cast<int>(HitLevel::Mem));
}

TEST(Hierarchy, LowPowerConfigHasNoL3)
{
    const MemoryConfig cfg = cpu::lowPowerConfig().memory;
    Hierarchy h(cfg, 2);
    const AccessResult r = h.access(0, 0x7770000, false, 0);
    EXPECT_EQ(static_cast<int>(r.level),
              static_cast<int>(HitLevel::Mem));
    // Second core shares the L2: it can hit there.
    const AccessResult r2 = h.access(1, 0x7770000, false, 100);
    EXPECT_EQ(static_cast<int>(r2.level),
              static_cast<int>(HitLevel::L2));
}

TEST(Hierarchy, RejectsTooManyCores)
{
    const MemoryConfig cfg = cpu::highPerformanceConfig().memory;
    EXPECT_THROW(Hierarchy(cfg, 65), SimError);
    EXPECT_THROW(Hierarchy(cfg, 0), SimError);
}

} // namespace
} // namespace tp::mem
