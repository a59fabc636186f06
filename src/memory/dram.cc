#include "memory/dram.hh"

#include "common/logging.hh"

namespace tp::mem {

Dram::Dram(const DramConfig &config) : config_(config)
{
    if (config_.channels == 0)
        fatal("DRAM needs at least one channel");
    channels_.reserve(config_.channels);
    for (std::uint32_t c = 0; c < config_.channels; ++c)
        channels_.emplace_back(config_.servicePeriod);
}

Cycles
Dram::access(Addr addr, Cycles now)
{
    // Hash line address across channels; the shift skips line offset
    // bits so consecutive lines interleave.
    const std::size_t ch =
        static_cast<std::size_t>((addr >> 6) % channels_.size());
    const Cycles queue = channels_[ch].request(now);
    return config_.latency + queue;
}

std::uint64_t
Dram::requests() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch.requests();
    return total;
}

double
Dram::meanQueueDelay() const
{
    std::uint64_t reqs = 0;
    Cycles queue = 0;
    for (const auto &ch : channels_) {
        reqs += ch.requests();
        queue += ch.totalQueueCycles();
    }
    return reqs ? double(queue) / double(reqs) : 0.0;
}

} // namespace tp::mem
