/**
 * @file
 * Open-addressing hash map for hot simulator lookups.
 *
 * std::unordered_map pays a pointer chase per node and a modulo per
 * lookup; on the coherence directory — consulted once per coherent
 * memory access — that is the dominant cost. FlatMap64 stores
 * key/value slots in one contiguous power-of-two array with linear
 * probing and Fibonacci hashing: a lookup is one multiply, one shift
 * and (almost always) one cache line touch.
 *
 * Scope is deliberately narrow: 64-bit keys, no erase (the two users
 * — the sharers directory and tests — only insert, update and
 * clear), and one reserved key value (kEmptyKey) that cannot be
 * stored. Iteration order is unspecified and nothing in the
 * simulator may depend on it.
 */

#ifndef TP_COMMON_FLAT_MAP_HH
#define TP_COMMON_FLAT_MAP_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/binary_io.hh"
#include "common/logging.hh"

namespace tp {

/** See file comment. */
template <typename V>
class FlatMap64
{
  public:
    /** Reserved key; asserting callers never store it. */
    static constexpr std::uint64_t kEmptyKey = ~0ULL;

    explicit FlatMap64(std::size_t initial_capacity = 1024)
    {
        std::size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
    }

    /** @return the value slot for `key`, inserting V{} if absent. */
    V &
    operator[](std::uint64_t key)
    {
        tp_assert(key != kEmptyKey);
        std::size_t i = indexOf(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == kEmptyKey) {
                if (count_ + 1 > (mask_ + 1) - ((mask_ + 1) >> 2)) {
                    grow();
                    i = indexOf(key);
                    continue;
                }
                slots_[i].key = key;
                slots_[i].value = V{};
                ++count_;
                return slots_[i].value;
            }
            i = (i + 1) & mask_;
        }
        return slots_[i].value;
    }

    /** @return pointer to `key`'s value, or nullptr if absent. */
    V *
    find(std::uint64_t key)
    {
        std::size_t i = indexOf(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == kEmptyKey)
                return nullptr;
            i = (i + 1) & mask_;
        }
        return &slots_[i].value;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap64 *>(this)->find(key);
    }

    /** Drop all entries, keeping the current capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s = Slot{};
        count_ = 0;
    }

    /** @return number of stored entries. */
    std::size_t size() const { return count_; }

    /** @return slot-array capacity (for tests/benchmarks). */
    std::size_t capacity() const { return mask_ + 1; }

    /**
     * Serialize capacity, entry count and the raw slot array (V must
     * be a POD value type). Saving the slots verbatim preserves the
     * probe layout, so a restored map behaves exactly like the saved
     * one — including when the next grow() triggers. Throws IoError
     * on an implausible stored geometry.
     */
    void
    state(StateIo &io)
    {
        std::uint64_t cap = slots_.size();
        io.pod(cap);
        io.pod<std::uint64_t>(count_);
        if (io.loading()) {
            if (cap < 16 || (cap & (cap - 1)) != 0 || count_ > cap ||
                cap > (1ULL << 40))
                io.corrupt("flat-map geometry");
            slots_.assign(static_cast<std::size_t>(cap), Slot{});
            mask_ = static_cast<std::size_t>(cap) - 1;
        }
        static_assert(std::has_unique_object_representations_v<Slot>,
                      "slots are stored as their raw bytes");
        io.block(slots_);
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    /** Fibonacci (multiplicative) hash onto the slot array. */
    std::size_t
    indexOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask_;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        mask_ = slots_.size() - 1;
        count_ = 0;
        for (Slot &s : old) {
            if (s.key != kEmptyKey)
                (*this)[s.key] = std::move(s.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t count_ = 0;
};

} // namespace tp

#endif // TP_COMMON_FLAT_MAP_HH
