#include "cpu/arch_config.hh"

#include "common/logging.hh"

namespace tp::cpu {

ArchConfig
highPerformanceConfig()
{
    ArchConfig a;
    a.name = "highperf";
    a.core = CoreConfig{168, 4, 4};

    a.memory.l1 = mem::CacheConfig{32 * 1024, 8, 64, 4, 0};
    a.memory.l2 = mem::CacheConfig{2 * 1024 * 1024, 8, 64, 11, 0};
    a.memory.l2Shared = false;
    a.memory.hasL3 =
        true;
    a.memory.l3 = mem::CacheConfig{20 * 1024 * 1024, 20, 64, 28, 2};
    a.memory.dram = mem::DramConfig{180, 4, 8};
    a.memory.upgradeLatency = 12;
    a.memory.busServicePeriod = 1;
    return a;
}

ArchConfig
lowPowerConfig()
{
    ArchConfig a;
    a.name = "lowpower";
    a.core = CoreConfig{40, 3, 3};

    a.memory.l1 = mem::CacheConfig{32 * 1024, 2, 64, 4, 0};
    a.memory.l2 = mem::CacheConfig{1024 * 1024, 16, 64, 21, 4};
    a.memory.l2Shared = true;
    a.memory.hasL3 = false;
    a.memory.dram = mem::DramConfig{220, 16, 1};
    a.memory.upgradeLatency = 16;
    a.memory.busServicePeriod = 2;
    return a;
}

ArchConfig
archConfigByName(const std::string &name)
{
    if (name == "highperf")
        return highPerformanceConfig();
    if (name == "lowpower")
        return lowPowerConfig();
    fatal("unknown architecture '%s' (expected 'highperf' or "
          "'lowpower')", name.c_str());
}

} // namespace tp::cpu
