/**
 * @file
 * Main-memory latency/bandwidth model and the shared-resource
 * contention primitive (ServicePort).
 *
 * Contention is what couples per-task IPC to the number of threads
 * executing concurrently — the effect behind TaskPoint's
 * "resample when the thread count changes" trigger (paper Fig. 4a).
 */

#ifndef TP_MEMORY_DRAM_HH
#define TP_MEMORY_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/binary_io.hh"
#include "common/types.hh"

namespace tp::mem {

/**
 * A serially reusable resource with a fixed service period.
 *
 * Requests arriving while the port is busy queue up: the returned
 * delay is the wait until the port is free. Used for shared caches,
 * the memory bus and DRAM channels.
 */
class ServicePort
{
  public:
    /** @param period cycles each request occupies the port (0 = ∞ bw) */
    explicit ServicePort(Cycles period) : period_(period) {}

    /**
     * Reserve the port for one request arriving at `now`.
     * @return queueing delay (0 if the port was idle)
     */
    Cycles
    request(Cycles now)
    {
        if (period_ == 0)
            return 0;
        ++requests_;
        const Cycles start = now > nextFree_ ? now : nextFree_;
        nextFree_ = start + period_;
        const Cycles delay = start - now;
        totalQueueCycles_ += delay;
        return delay;
    }

    /** @return configured service period. */
    Cycles period() const { return period_; }

    /** @return total requests served. */
    std::uint64_t requests() const { return requests_; }

    /** @return cumulative queueing cycles over all requests. */
    Cycles totalQueueCycles() const { return totalQueueCycles_; }

    /** @return mean queueing delay per request. */
    double
    meanQueueDelay() const
    {
        return requests_ ? double(totalQueueCycles_) / double(requests_)
                         : 0.0;
    }

    /** Checkpoint reservation + counter state (period is fixed). */
    void
    state(StateIo &io)
    {
        io.pod(nextFree_);
        io.pod(requests_);
        io.pod(totalQueueCycles_);
    }

  private:
    Cycles period_;
    Cycles nextFree_ = 0;
    std::uint64_t requests_ = 0;
    Cycles totalQueueCycles_ = 0;
};

/** DRAM timing configuration. */
struct DramConfig
{
    Cycles latency = 180;      //!< idle access latency (cycles)
    Cycles servicePeriod = 4;  //!< cycles per line transfer (bandwidth)
    std::uint32_t channels = 2; //!< independent channels (address-hashed)
};

/** Multi-channel DRAM with per-channel bandwidth contention. */
class Dram
{
  public:
    explicit Dram(const DramConfig &config);

    /**
     * Access one line.
     * @param addr line-granular address (channel hash input)
     * @param now  request time
     * @return total latency including queueing
     */
    Cycles access(Addr addr, Cycles now);

    /** @return total requests across channels. */
    std::uint64_t requests() const;

    /** @return mean queueing delay across channels. */
    double meanQueueDelay() const;

    /** @return configuration. */
    const DramConfig &config() const { return config_; }

    /** Checkpoint every channel's state (channel count is fixed). */
    void
    state(StateIo &io)
    {
        for (ServicePort &p : channels_)
            p.state(io);
    }

  private:
    DramConfig config_;
    std::vector<ServicePort> channels_;
};

} // namespace tp::mem

#endif // TP_MEMORY_DRAM_HH
