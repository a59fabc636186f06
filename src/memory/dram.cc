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
    if (config_.servicePeriod != 0) {
        ++requests_;
        queueCycles_ += queue;
    }
    return config_.latency + queue;
}

} // namespace tp::mem
