/**
 * @file
 * Fundamental scalar types shared by every TaskPoint module.
 *
 * These aliases intentionally mirror the vocabulary of trace-driven
 * architectural simulators (cycles, addresses, thread/core identifiers)
 * so that interfaces document their units in the type system.
 */

#ifndef TP_COMMON_TYPES_HH
#define TP_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace tp {

/** Simulated time expressed in core clock cycles. */
using Cycles = std::uint64_t;

/** Number of dynamic instructions. */
using InstCount = std::uint64_t;

/** Byte address in the simulated (synthetic) address space. */
using Addr = std::uint64_t;

/** Identifier of a simulated hardware thread / core. */
using ThreadId = std::uint32_t;

/** Identifier of a task type (one per task declaration statement). */
using TaskTypeId = std::uint32_t;

/** Identifier of a task instance (one per dynamic task creation). */
using TaskInstanceId = std::uint64_t;

/** Sentinel for "no cycle value"; used for unscheduled events. */
inline constexpr Cycles kNoCycle = std::numeric_limits<Cycles>::max();

/** Sentinel for "no thread". */
inline constexpr ThreadId kNoThread =
    std::numeric_limits<ThreadId>::max();

/** Sentinel for "no task instance". */
inline constexpr TaskInstanceId kNoTaskInstance =
    std::numeric_limits<TaskInstanceId>::max();

/** Sentinel for "no task type". */
inline constexpr TaskTypeId kNoTaskType =
    std::numeric_limits<TaskTypeId>::max();

/**
 * Infinite sampling period: turns the periodic policy into the paper's
 * "lazy sampling" special case (Section III-C).
 */
inline constexpr std::uint64_t kInfinitePeriod =
    std::numeric_limits<std::uint64_t>::max();

/**
 * The synthetic address-space layout, one definition for the trace
 * generators that place data and the memory hierarchy that tracks
 * coherence. Task types' shared regions start at kSharedRegionBase
 * (trace::sharedRegionBase); per-instance private regions start at
 * kPrivateRegionBase. Only [kSharedRegionBase, kPrivateRegionBase)
 * is coherence-tracked: a private region is accessed by exactly one
 * task at a time.
 */
inline constexpr Addr kSharedRegionBase = 1ULL << 40;
inline constexpr Addr kPrivateRegionBase = 1ULL << 44;

} // namespace tp

#endif // TP_COMMON_TYPES_HH
