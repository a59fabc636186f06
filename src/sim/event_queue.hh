/**
 * @file
 * Indexed min-heap over per-core event times.
 *
 * Engine::run picks the lagging core before every quantum; a linear
 * scan is O(numThreads) per event and dominated the event loop at
 * high thread counts (the paper's 64-thread configurations pay it
 * hundreds of millions of times). CoreEventQueue keeps each active
 * core's next-event time in a binary heap with an index from core id
 * to heap position, so the lagging core is O(1) to read and key
 * updates are O(log numThreads).
 *
 * Ordering is (time, core id) lexicographic — exactly the order the
 * replaced `for` scan with a strict `<` comparison produced — so
 * simulations are bit-identical to the scan-based engine.
 */

#ifndef TP_SIM_EVENT_QUEUE_HH
#define TP_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/binary_io.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace tp::sim {

/** See file comment. */
class CoreEventQueue
{
  public:
    explicit CoreEventQueue(std::uint32_t num_cores)
        : pos_(num_cores, kAbsent), key_(num_cores, 0)
    {
        heap_.reserve(num_cores);
    }

    /** Insert `core` or reposition it under its new key. */
    void
    update(ThreadId core, Cycles key)
    {
        tp_assert(core < pos_.size());
        key_[core] = key;
        std::size_t i = pos_[core];
        if (i == kAbsent) {
            i = heap_.size();
            heap_.push_back(core);
            pos_[core] = i;
            siftUp(i);
            return;
        }
        // The key may have moved either way; try both directions
        // (exactly one of the sifts will do work).
        siftUp(i);
        siftDown(pos_[core]);
    }

    /** Remove `core`; no-op when it is not queued. */
    void
    remove(ThreadId core)
    {
        tp_assert(core < pos_.size());
        const std::size_t i = pos_[core];
        if (i == kAbsent)
            return;
        const std::size_t last = heap_.size() - 1;
        if (i != last) {
            heap_[i] = heap_[last];
            pos_[heap_[i]] = i;
        }
        heap_.pop_back();
        pos_[core] = kAbsent;
        if (i < heap_.size()) {
            const ThreadId moved = heap_[i];
            siftUp(i);
            siftDown(pos_[moved]);
        }
    }

    /** @return true when no core is queued. */
    bool empty() const { return heap_.empty(); }

    /** @return number of queued cores. */
    std::size_t size() const { return heap_.size(); }

    /** @return the queued core with the smallest (key, id). */
    ThreadId
    top() const
    {
        tp_assert(!heap_.empty());
        return heap_[0];
    }

    /** @return the key of top(). */
    Cycles
    topKey() const
    {
        tp_assert(!heap_.empty());
        return key_[heap_[0]];
    }

    /** @return whether `core` is currently queued. */
    bool
    contains(ThreadId core) const
    {
        tp_assert(core < pos_.size());
        return pos_[core] != kAbsent;
    }

    /**
     * Checkpoint the heap array and every key verbatim, preserving
     * the exact heap layout (top order and all future sift paths).
     * The core count is fixed by construction; loading throws
     * IoError on out-of-range or duplicate ids.
     */
    void
    state(StateIo &io)
    {
        std::uint64_t n = heap_.size();
        io.pod(n);
        if (io.loading()) {
            if (n > pos_.size())
                io.corrupt("event-queue size");
            heap_.resize(static_cast<std::size_t>(n));
        }
        io.block(heap_);
        if (io.loading()) {
            std::fill(pos_.begin(), pos_.end(), kAbsent);
            for (std::size_t i = 0; i < heap_.size(); ++i) {
                const ThreadId id = heap_[i];
                if (id >= pos_.size() || pos_[id] != kAbsent)
                    io.corrupt("event-queue entry");
                pos_[id] = i;
            }
        }
        io.block(key_);
    }

  private:
    static constexpr std::size_t kAbsent =
        static_cast<std::size_t>(-1);

    /** Strict weak order: (key, core id) lexicographic. */
    bool
    before(ThreadId a, ThreadId b) const
    {
        return key_[a] != key_[b] ? key_[a] < key_[b] : a < b;
    }

    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(heap_[i], heap_[parent]))
                break;
            swapAt(i, parent);
            i = parent;
        }
    }

    void
    siftDown(std::size_t i)
    {
        for (;;) {
            std::size_t smallest = i;
            const std::size_t l = 2 * i + 1;
            const std::size_t r = 2 * i + 2;
            if (l < heap_.size() && before(heap_[l], heap_[smallest]))
                smallest = l;
            if (r < heap_.size() && before(heap_[r], heap_[smallest]))
                smallest = r;
            if (smallest == i)
                return;
            swapAt(i, smallest);
            i = smallest;
        }
    }

    void
    swapAt(std::size_t a, std::size_t b)
    {
        std::swap(heap_[a], heap_[b]);
        pos_[heap_[a]] = a;
        pos_[heap_[b]] = b;
    }

    std::vector<ThreadId> heap_;   //!< binary heap of core ids
    std::vector<std::size_t> pos_; //!< core id -> heap position
    std::vector<Cycles> key_;      //!< core id -> event time
};

} // namespace tp::sim

#endif // TP_SIM_EVENT_QUEUE_HH
