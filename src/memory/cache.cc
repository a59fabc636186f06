#include "memory/cache.hh"

#include <algorithm>
#include <array>
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
    if (config_.assoc > kMaxAssoc)
        fatal("cache '%s': associativity %u above %u",
              name_.c_str(), config_.assoc, kMaxAssoc);
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
    stamps_.assign(numSets_ * config_.assoc, 0);
    clocks_.assign(numSets_, 0);
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
                 const std::uint8_t *set_stamps) const
{
    // Order matters for replay equivalence: the first invalid way
    // wins; otherwise the first way carrying the strictly smallest
    // stamp (ties keep the earlier way). One key orders both — 0 for
    // an invalid way, stamp + 1 for a valid one — so a select-only
    // scan for the first strict minimum picks the same way without
    // branches.
    const auto key = [set_tags, set_stamps](std::uint32_t w) {
        return (std::uint32_t{set_stamps[w]} + 1) &
               (0u - static_cast<std::uint32_t>(set_tags[w] & kValidBit));
    };
    std::uint32_t victim = 0;
    std::uint32_t best = key(0);
    for (std::uint32_t w = 1; w < config_.assoc; ++w) {
        const std::uint32_t k = key(w);
        const bool older = k < best;
        victim = older ? w : victim;
        best = older ? k : best;
    }
    return victim;
}

void
Cache::renumber(std::uint64_t set)
{
    std::uint8_t *const set_stamps = &stamps_[set * config_.assoc];
    // rank[s]: 1 + the number of distinct nonzero stamps below s.
    // At most kMaxAssoc of them, so the clock ends below 255.
    std::array<std::uint8_t, kMaxStamp + 1> rank{};
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
        rank[set_stamps[w]] = 1;
    std::uint8_t m = 0;
    for (std::size_t s = 1; s < rank.size(); ++s) {
        if (rank[s])
            rank[s] = ++m;
    }
    rank[0] = 0; // zeros stay 0
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
        set_stamps[w] = rank[set_stamps[w]];
    clocks_[set] = m;
}

void
Cache::fill(Addr addr)
{
    const std::uint64_t want = packTag(tagOf(addr));
    const std::uint64_t set = setIndex(addr);
    const std::size_t base = set * config_.assoc;
    std::uint64_t *const set_tags = &tags_[base];
    if (findWay(set_tags, want) != kNoWay)
        return; // already resident; leave LRU untouched

    std::uint8_t *const set_stamps = &stamps_[base];
    const std::uint32_t victim = victimWay(set_tags, set_stamps);
    const std::uint64_t victim_tag = set_tags[victim];
    if (validWord(victim_tag)) {
        ++stats_.evictions;
        if (dirtyWord(victim_tag))
            ++stats_.writebacks;
    }
    set_tags[victim] = want;
    set_stamps[victim] = newStamp(set);
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
    std::fill(stamps_.begin(), stamps_.end(), 0);
}

void
Cache::ageLines(std::uint64_t lines)
{
    lines = std::min<std::uint64_t>(lines, tags_.size());
    if (lines == 0)
        return;
    // The cursor still advances by `lines`: it decides which sets a
    // later partial aging hits.
    if (lines == tags_.size()) {
        // Every way is replaced, whatever the cursor.
        std::fill(tags_.begin(), tags_.end(), kJunkWord);
        std::fill(stamps_.begin(), stamps_.end(), 1);
        std::fill(clocks_.begin(), clocks_.end(), 1);
        ageCursor_ += lines;
        return;
    }
    for (std::uint64_t i = 0; i < lines; ++i) {
        const std::uint64_t set = ageCursor_++ & (numSets_ - 1);
        const std::size_t base = set * config_.assoc;
        std::uint64_t *const set_tags = &tags_[base];
        std::uint8_t *const set_stamps = &stamps_[base];
        const std::uint32_t victim = victimWay(set_tags, set_stamps);
        set_tags[victim] = kJunkWord;
        // The cursor visits every set once in the first numSets_
        // lines, so a later visit reuses the set's newest stamp.
        set_stamps[victim] = i < numSets_ ? newStamp(set) : clocks_[set];
    }
}

void
Cache::state(StateIo &io)
{
    io.count(tags_.size(), ("cache '" + name_ + "' way count").c_str());
    io.block(tags_);
    io.block(stamps_);
    io.block(clocks_);
    if (io.loading()) {
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            const std::uint8_t *const s = &stamps_[set * config_.assoc];
            if (*std::max_element(s, s + config_.assoc) > clocks_[set])
                io.corrupt("LRU stamp");
        }
    }
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
