/**
 * @file
 * Bounded exponential backoff for polling loops.
 *
 * Processes that watch files published by other processes (the
 * dispatch coordinator and its runners, harness/dispatch) have no
 * event to wait on — they poll. A fixed short interval burns a CPU
 * core while a fleet of runners grinds through a long shard; a fixed long interval adds
 * latency to every result. PollBackoff gives the standard compromise:
 * each fruitless poll doubles the sleep up to a cap, and any progress
 * resets it to the minimum, so a busy stream is tailed near-instantly
 * while an idle coordinator converges to the cap.
 */

#ifndef TP_COMMON_BACKOFF_HH
#define TP_COMMON_BACKOFF_HH

#include <chrono>
#include <thread>

#include "common/logging.hh"

namespace tp {

/** See file comment. */
class PollBackoff
{
  public:
    /**
     * @param min sleep after a poll that made progress (and the
     *            first fruitless one)
     * @param max cap the doubling converges to
     */
    PollBackoff(std::chrono::milliseconds min,
                std::chrono::milliseconds max)
        : min_(min), max_(max), current_(min)
    {
        tp_assert(min.count() > 0 && max >= min);
    }

    /** The poll made progress: drop back to the minimum interval. */
    void reset() { current_ = min_; }

    /** @return the interval the next fruitless poll should sleep. */
    std::chrono::milliseconds current() const { return current_; }

    /**
     * Advance the schedule one fruitless poll: @return the interval
     * to sleep now, doubling the next one up to the cap.
     */
    std::chrono::milliseconds
    next()
    {
        const std::chrono::milliseconds sleep = current_;
        current_ = std::min(max_, current_ * 2);
        return sleep;
    }

    /** Sleep for next() (the convenience most call sites want). */
    void sleep() { std::this_thread::sleep_for(next()); }

  private:
    std::chrono::milliseconds min_;
    std::chrono::milliseconds max_;
    std::chrono::milliseconds current_;
};

} // namespace tp

#endif // TP_COMMON_BACKOFF_HH
