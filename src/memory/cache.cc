#include "memory/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace tp::mem {

Cache::Cache(std::string name, const CacheConfig &config)
    : name_(std::move(name)), config_(config)
{
    if (config_.lineBytes == 0 ||
        !std::has_single_bit(config_.lineBytes)) {
        fatal("cache '%s': line size must be a power of two",
              name_.c_str());
    }
    if (config_.assoc == 0)
        fatal("cache '%s': associativity must be positive",
              name_.c_str());
    const std::uint64_t line_capacity =
        config_.sizeBytes / config_.lineBytes;
    if (line_capacity == 0 || line_capacity % config_.assoc != 0) {
        fatal("cache '%s': size %llu not divisible into %u ways",
              name_.c_str(),
              static_cast<unsigned long long>(config_.sizeBytes),
              config_.assoc);
    }
    numSets_ = line_capacity / config_.assoc;
    if (!std::has_single_bit(numSets_))
        fatal("cache '%s': number of sets must be a power of two",
              name_.c_str());
    lineShift_ =
        static_cast<std::uint32_t>(std::countr_zero(config_.lineBytes));
    tags_.assign(numSets_ * config_.assoc, 0);
    lru_.assign(numSets_ * config_.assoc, 0);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

std::uint32_t
Cache::victimWay(const std::uint64_t *set_tags,
                 const std::uint64_t *set_lru) const
{
    // Order matters for replay equivalence: the first invalid way
    // wins; otherwise the first way carrying the strictly smallest
    // LRU tick (ties keep the earlier way).
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if (!validWord(set_tags[w])) {
            if (validWord(set_tags[victim]))
                victim = w;
        } else if (validWord(set_tags[victim]) &&
                   set_lru[w] < set_lru[victim]) {
            victim = w;
        }
    }
    return victim;
}

void
Cache::fill(Addr addr)
{
    const std::uint64_t want = packTag(tagOf(addr));
    const std::size_t base = setIndex(addr) * config_.assoc;
    std::uint64_t *const set_tags = &tags_[base];
    if (findWay(set_tags, want) != kNoWay)
        return; // already resident; leave LRU untouched

    std::uint64_t *const set_lru = &lru_[base];
    const std::uint32_t victim = victimWay(set_tags, set_lru);
    const std::uint64_t victim_tag = set_tags[victim];
    if (validWord(victim_tag)) {
        ++stats_.evictions;
        if (dirtyWord(victim_tag))
            ++stats_.writebacks;
    }
    set_tags[victim] = want;
    set_lru[victim] = config_.scanResistantInsert ? 0 : ++lruTick_;
    ++stats_.prefetchFills;
}

bool
Cache::contains(Addr addr) const
{
    const std::uint64_t want = packTag(tagOf(addr));
    return findWay(&tags_[setIndex(addr) * config_.assoc], want) !=
           kNoWay;
}

bool
Cache::invalidate(Addr addr)
{
    const std::uint64_t want = packTag(tagOf(addr));
    std::uint64_t *const set_tags =
        &tags_[setIndex(addr) * config_.assoc];
    const std::uint32_t w = findWay(set_tags, want);
    if (w == kNoWay)
        return false;
    set_tags[w] = 0;
    ++stats_.invalidations;
    return true;
}

void
Cache::prepollute()
{
    // Oldest LRU position: evicted before anything the program
    // touches.
    std::fill(tags_.begin(), tags_.end(), kJunkWord);
    std::fill(lru_.begin(), lru_.end(), 0);
}

void
Cache::ageLines(std::uint64_t lines)
{
    lines = std::min<std::uint64_t>(lines, tags_.size());
    if (lines == 0)
        return;
    // Scan-resistant caches stamp every junk line with its own tick
    // (see the header comment).
    const bool per_line = config_.scanResistantInsert;
    const std::uint64_t tick = per_line ? 0 : ++lruTick_;
    // The cursor still advances by `lines`: it decides which sets a
    // later partial aging hits.
    if (lines == tags_.size() && !per_line) {
        // Every way is replaced, whatever the cursor.
        std::fill(tags_.begin(), tags_.end(), kJunkWord);
        std::fill(lru_.begin(), lru_.end(), tick);
        ageCursor_ += lines;
        return;
    }
    for (std::uint64_t i = 0; i < lines; ++i) {
        const std::uint64_t set = ageCursor_++ % numSets_;
        const std::size_t base = set * config_.assoc;
        std::uint64_t *const set_tags = &tags_[base];
        std::uint64_t *const set_lru = &lru_[base];
        // First invalid way, else first strict-minimum LRU (the
        // original scan's break-on-invalid order).
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < config_.assoc; ++w) {
            if (!validWord(set_tags[w])) {
                victim = w;
                break;
            }
            if (validWord(set_tags[victim]) &&
                set_lru[w] < set_lru[victim])
                victim = w;
        }
        set_tags[victim] = kJunkWord;
        set_lru[victim] = per_line ? ++lruTick_ : tick;
    }
}

void
Cache::state(StateIo &io)
{
    io.count(tags_.size(), ("cache '" + name_ + "' way count").c_str());
    io.block(tags_);
    io.block(lru_);
    io.pod(lruTick_);
    if (io.loading() &&
        *std::max_element(lru_.begin(), lru_.end()) > lruTick_)
        io.corrupt("LRU tick");
    io.pod(ageCursor_);
    io.pod(stats_.accesses);
    io.pod(stats_.hits);
    io.pod(stats_.misses);
    io.pod(stats_.evictions);
    io.pod(stats_.writebacks);
    io.pod(stats_.invalidations);
    io.pod(stats_.prefetchFills);
}

double
Cache::occupancy() const
{
    std::uint64_t valid = 0;
    for (const std::uint64_t t : tags_)
        valid += validWord(t) ? 1 : 0;
    return tags_.empty() ? 0.0
                         : double(valid) / double(tags_.size());
}

} // namespace tp::mem
