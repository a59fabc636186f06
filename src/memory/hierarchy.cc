#include "memory/hierarchy.hh"

#include <bit>

#include "common/logging.hh"

namespace tp::mem {

Hierarchy::Hierarchy(const MemoryConfig &config,
                     std::uint32_t num_cores)
    : config_(config),
      dram_(config.dram),
      bus_(config.busServicePeriod),
      l2Port_(config.l2Shared ? config.l2.servicePeriod : 0),
      l3Port_(config.hasL3 ? config.l3.servicePeriod : 0)
{
    if (num_cores == 0)
        fatal("hierarchy needs at least one core");
    if (num_cores > 64)
        fatal("hierarchy supports at most 64 cores (sharers bitmask)");

    l1s_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c)
        l1s_.emplace_back("l1-" + std::to_string(c), config_.l1);

    if (config_.l2Shared) {
        l2s_.emplace_back("l2-shared", config_.l2);
    } else {
        l2s_.reserve(num_cores);
        for (std::uint32_t c = 0; c < num_cores; ++c)
            l2s_.emplace_back("l2-" + std::to_string(c), config_.l2);
    }

    if (config_.hasL3)
        l3_ = std::make_unique<Cache>("l3", config_.l3);

    // Resolve the per-core L2 slice once; l2s_ never reallocates
    // after this point.
    l2Of_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c)
        l2Of_.push_back(config_.l2Shared ? &l2s_[0] : &l2s_[c]);

    prefetchers_.resize(num_cores);

    // Start from steady-state occupancy (see Cache::prepollute).
    for (Cache &c : l1s_)
        c.prepollute();
    for (Cache &c : l2s_)
        c.prepollute();
    if (l3_)
        l3_->prepollute();
}

void
Hierarchy::prefetchLine(ThreadId core, Addr addr)
{
    l1s_[core].fill(addr);
    l2For(core).fill(addr);
    if (l3_)
        l3_->fill(addr);
}

void
Hierarchy::notifyMiss(ThreadId core, Addr addr)
{
    Prefetcher &pf = prefetchers_[core];
    const auto line = static_cast<std::int64_t>(addr >> 6);
    const std::int64_t delta = line - pf.lastLine;
    if (pf.lastLine >= 0 && delta == pf.lastDelta && delta != 0 &&
        delta >= -8 && delta <= 8) {
        // Hint the host lines of every set the fills below will
        // scan before performing any of them, so their host-memory
        // latencies overlap instead of serializing (no simulated
        // effect; see Cache::hostPrefetch).
        for (std::uint32_t d = 1; d <= config_.prefetchDegree; ++d) {
            const std::int64_t target = line + delta * d;
            if (target > 0) {
                const Addr a = static_cast<Addr>(target) << 6;
                l1s_[core].hostPrefetch(a);
                l2Of_[core]->hostPrefetch(a);
                if (l3_)
                    l3_->hostPrefetch(a);
            }
        }
        for (std::uint32_t d = 1; d <= config_.prefetchDegree; ++d) {
            const std::int64_t target = line + delta * d;
            if (target > 0)
                prefetchLine(core,
                             static_cast<Addr>(target) << 6);
        }
    }
    pf.lastDelta = delta;
    pf.lastLine = line;
}

Cache &
Hierarchy::l2For(ThreadId core)
{
    return *l2Of_[core];
}

AccessResult
Hierarchy::access(ThreadId core, Addr addr, bool is_write, Cycles now)
{
    tp_assert(core < l1s_.size());

    const bool coherent =
        addr >= config_.coherentBase && addr < config_.coherentEnd;

    Cycles lat = config_.l1.latency;
    HitLevel level = HitLevel::L1;

    // Writebacks of dirty victims are counted in the cache stats but
    // charged no bandwidth: write traffic drains through buffers in
    // the gaps between demand fetches. This keeps steady-state timing
    // close to warmed timing, as in the paper's setup where tasks are
    // large relative to cache capacity.
    const CacheAccessOutcome l1_out = l1s_[core].access(addr, is_write);
    if (!l1_out.hit) {
        // Overlap the host-memory latency of the L2/L3 set scans
        // below with the prefetcher/bus bookkeeping (host-only
        // hint, no simulated effect).
        l2Of_[core]->hostPrefetch(addr);
        if (l3_)
            l3_->hostPrefetch(addr);
        if (config_.streamPrefetch)
            notifyMiss(core, addr);
        // Below-L1 traffic crosses the interconnect.
        lat += bus_.request(now + lat);

        Cache &l2 = *l2Of_[core];
        if (config_.l2Shared)
            lat += l2Port_.request(now + lat);
        lat += config_.l2.latency;
        const CacheAccessOutcome l2_out = l2.access(addr, is_write);
        if (l2_out.hit) {
            level = HitLevel::L2;
        } else {
            bool need_dram = true;
            if (l3_) {
                lat += l3Port_.request(now + lat);
                lat += config_.l3.latency;
                const CacheAccessOutcome l3_out =
                    l3_->access(addr, is_write);
                if (l3_out.hit) {
                    level = HitLevel::L3;
                    need_dram = false;
                }
            }
            if (need_dram) {
                lat += dram_.access(addr, now + lat);
                level = HitLevel::Mem;
            }
        }
    }

    if (coherent) {
        const Addr line = addr >> 6;
        std::uint64_t &mask = sharers_[line];
        if (is_write) {
            if (mask & ~(1ULL << core)) {
                invalidateRemote(core, addr);
                lat += config_.upgradeLatency;
            }
            mask = 1ULL << core;
        } else {
            mask |= 1ULL << core;
        }
    }

    return {lat, level};
}

void
Hierarchy::invalidateRemote(ThreadId core, Addr line_addr)
{
    std::uint64_t *mask = sharers_.find(line_addr >> 6);
    if (mask == nullptr)
        return;
    std::uint64_t others = *mask & ~(1ULL << core);
    while (others) {
        const int c = std::countr_zero(others);
        others &= others - 1;
        l1s_[static_cast<std::size_t>(c)].invalidate(line_addr);
        if (!config_.l2Shared)
            l2s_[static_cast<std::size_t>(c)].invalidate(line_addr);
        ++coherenceInvalidations_;
    }
    *mask = 1ULL << core;
}

void
Hierarchy::applyFastForwardAging(std::uint64_t skipped_insts,
                                 double bytes_per_inst)
{
    const auto total_lines = static_cast<std::uint64_t>(
        double(skipped_insts) * bytes_per_inst / 64.0);
    const std::uint64_t per_core =
        total_lines / std::max<std::uint64_t>(l1s_.size(), 1);
    for (Cache &c : l1s_)
        c.ageLines(per_core);
    for (Cache &c : l2s_)
        c.ageLines(config_.l2Shared ? total_lines : per_core);
    if (l3_)
        l3_->ageLines(total_lines);
}

void
Hierarchy::state(StateIo &io)
{
    for (Cache &c : l1s_)
        c.state(io);
    for (Cache &c : l2s_)
        c.state(io);
    if (l3_)
        l3_->state(io);
    dram_.state(io);
    bus_.state(io);
    l2Port_.state(io);
    l3Port_.state(io);
    sharers_.state(io);
    io.pod(coherenceInvalidations_);
    for (Prefetcher &pf : prefetchers_) {
        io.pod(pf.lastLine);
        io.pod(pf.lastDelta);
    }
}

namespace {

void
accumulate(CacheStats &into, const CacheStats &from)
{
    into.accesses += from.accesses;
    into.hits += from.hits;
    into.misses += from.misses;
    into.evictions += from.evictions;
    into.writebacks += from.writebacks;
    into.invalidations += from.invalidations;
    into.prefetchFills += from.prefetchFills;
}

} // namespace

HierarchyStats
Hierarchy::stats() const
{
    HierarchyStats s;
    for (const Cache &c : l1s_)
        accumulate(s.l1, c.stats());
    for (const Cache &c : l2s_)
        accumulate(s.l2, c.stats());
    if (l3_)
        accumulate(s.l3, l3_->stats());
    s.dramRequests = dram_.requests();
    s.dramMeanQueueDelay = dram_.meanQueueDelay();
    s.coherenceInvalidations = coherenceInvalidations_;
    return s;
}

void
Hierarchy::clearStats()
{
    for (Cache &c : l1s_)
        c.clearStats();
    for (Cache &c : l2s_)
        c.clearStats();
    if (l3_)
        l3_->clearStats();
    // Port/DRAM counters reset with reservations preserved would skew
    // mean queue delay; keep them cumulative instead.
}

double
Hierarchy::l1Occupancy() const
{
    double sum = 0.0;
    for (const Cache &c : l1s_)
        sum += c.occupancy();
    return sum / double(l1s_.size());
}

double
Hierarchy::sharedOccupancy() const
{
    if (l3_)
        return l3_->occupancy();
    if (config_.l2Shared)
        return l2s_[0].occupancy();
    return 1.0;
}

} // namespace tp::mem
