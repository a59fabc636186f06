/**
 * @file
 * Deterministic fault injection for durability boundaries.
 *
 * Every place the harness makes state durable — result-cache
 * publishes, checkpoint records, worker stream appends, dispatch
 * spool renames, heartbeat writes, subprocess spawns — carries a
 * named fault site. A FaultPlan maps those site names to
 * occurrence-indexed actions (short write, torn rename, bit flip,
 * simulated errno, delay, process abort), so a failure scenario is a
 * small text file that replays exactly: the Nth hit of a site in a
 * process fires the same fault every run, and corruption positions
 * derive from the plan seed, never from wall-clock or PID state.
 *
 * Activation mirrors the trace observers' null-object discipline:
 * with no plan installed, a FAULT_POINT compiles to one relaxed
 * atomic pointer load and a never-taken branch — the hot paths pay
 * nothing (the BM_FaultPointInactive micro benchmark in
 * bench/micro_simulator.cc measures the per-call cost). Plans load from `--fault-plan=<file>` or the
 * TASKPOINT_FAULT_PLAN environment variable; the CLI layer exports
 * the variable so spawned workers and runners inherit the plan,
 * and an optional `once` marker prefix arbitrates fleet-wide faults
 * (e.g. "exactly one runner aborts") through O_CREAT|O_EXCL claims.
 */

#ifndef TP_COMMON_FAULT_INJECTION_HH
#define TP_COMMON_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tp::fault {

/** What a matched fault rule does at its site. */
enum class FaultKind : std::uint8_t {
    /** Truncate `arg` bytes (at least one) off the written file. */
    ShortWrite,
    /** Publish only a prefix: truncate the file to half its size. */
    TornRename,
    /** Flip one plan-seeded bit near the end of the written bytes. */
    BitFlip,
    /** The site simulates its operation failing with errno `arg`. */
    ErrnoFault,
    /** Sleep `arg` milliseconds at the site (wedge simulation). */
    Delay,
    /** SIGKILL the process at the site. */
    Abort,
};

/** Stable lowercase token for `kind` (the plan-file spelling). */
const char *faultKindName(FaultKind kind);

struct FaultAction
{
    FaultKind kind = FaultKind::Delay;
    /** Bytes for ShortWrite, errno for ErrnoFault, ms for Delay. */
    std::uint64_t arg = 0;
};

/** One scheduled fault: the `occurrence`-th hit of `site` fires. */
struct FaultRule
{
    std::string site;
    /** 1-based index into the site's per-process hit sequence. */
    std::uint64_t occurrence = 1;
    FaultAction action;
};

/**
 * A complete, serializable fault schedule. The text format is
 * line-oriented so shell tests can generate plans with a heredoc:
 *
 *     taskpoint-fault-plan v1
 *     seed 42
 *     once /tmp/chaos/fired
 *     on worker.stream.append 1 abort
 *     on result_cache.publish 2 errno ENOSPC
 *     on checkpoint.record 1 bit-flip
 *     on dispatch.publish 1 torn-rename
 *     on worker.stream.append 3 short-write 7
 *     on worker.stream.append 1 delay 120000
 *
 * Blank lines and `#` comments are ignored. Actions: `short-write
 * N`, `torn-rename`, `bit-flip`, `errno ENOSPC|EIO|<number>`,
 * `delay MS`, `abort`.
 */
struct FaultPlan
{
    /** Drives corruption positions (bit-flip offsets). */
    std::uint64_t seed = 1;
    /**
     * When non-empty: before a rule fires, the process must create
     * `<oncePrefix>.<site>.<occurrence>` with O_CREAT|O_EXCL; losers
     * of that race skip the fault. This makes "exactly one of the
     * fleet" schedules deterministic in effect even though which
     * process wins is not.
     */
    std::string oncePrefix;
    std::vector<FaultRule> rules;
};

/** Parse the text format; throws IoError naming `name` on damage. */
FaultPlan parseFaultPlan(std::istream &in, const std::string &name);
FaultPlan parseFaultPlan(const std::string &text,
                         const std::string &name);

/** Load and parse `path`; throws IoError on damage or a bad read. */
FaultPlan loadFaultPlan(const std::string &path);

/** Serialize back to the text format (parse round-trips exactly). */
std::string formatFaultPlan(const FaultPlan &plan);

/**
 * Counts site hits against a plan and decides what fires. One
 * injector is installed process-wide; sites reach it through
 * FAULT_POINT / FAULT_CHECK, never directly.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    /**
     * Record one hit of `site` and return the rule scheduled for
     * this occurrence, or nullptr. Delay and Abort are performed
     * here (a site needs no handling code for them); data kinds are
     * returned for the site to apply via corruptFile/corruptBytes
     * or its own errno-failure simulation. Every firing is logged
     * with site name and occurrence, so chaos tests can grep a
     * campaign's stderr for exactly what was injected.
     */
    const FaultRule *fire(const char *site);

    /** Per-process hits of `site` so far (tests). */
    std::uint64_t hits(const std::string &site) const;

    const FaultPlan &plan() const { return plan_; }

  private:
    FaultPlan plan_;
    mutable std::mutex mu_;
    std::map<std::string, std::uint64_t> hits_;
};

namespace detail {
/** Non-owning fast-path pointer; see active(). */
extern std::atomic<FaultInjector *> g_injector;
} // namespace detail

/**
 * True when a fault plan is installed. This is the entire hot-path
 * cost of an instrumented site: one relaxed load of a pointer that
 * is null in every production run.
 */
inline bool
active()
{
    return detail::g_injector.load(std::memory_order_relaxed) !=
           nullptr;
}

/** Slow path behind FAULT_POINT; see FaultInjector::fire. */
const FaultRule *fire(const char *site);

/**
 * Install `plan` as the process-wide schedule, replacing any
 * previous one (hit counters restart). Not safe to call while
 * other threads are inside fire(); install at startup or in
 * single-threaded tests.
 */
void installFaultPlan(FaultPlan plan);

/** Remove the installed plan (same caveat as installFaultPlan). */
void clearFaultPlan();

/** Plan-file path inherited by spawned workers and runners. */
inline constexpr const char *kFaultPlanEnvVar =
    "TASKPOINT_FAULT_PLAN";

/**
 * Install the plan named by TASKPOINT_FAULT_PLAN if one is set and
 * no injector is active yet (idempotent, so every CliArgs
 * construction may call it). Fatal if the variable names an
 * unreadable or malformed plan — a chaos run with a broken schedule
 * must not silently run fault-free.
 */
void initFaultPlanFromEnv();

/**
 * Apply a file-corrupting rule to `path`, which the site just
 * finished writing: ShortWrite truncates action.arg bytes (at least
 * one, at most the whole file), TornRename truncates to half,
 * BitFlip flips one plan-seeded bit within the last 64 bytes so
 * appended stream tails are actually damaged. @return true if the
 * file changed; false for other kinds or an empty/missing file.
 */
bool corruptFile(const FaultRule &rule, const std::string &path);

/** Same, for a serialized buffer the site has not yet written. */
bool corruptBytes(const FaultRule &rule, std::string &bytes);

/** "ENOSPC", "EIO", or the number, for injected-error messages. */
std::string errnoToken(std::uint64_t err);

} // namespace tp::fault

/**
 * Durability-boundary hook for sites with no data to corrupt (or
 * that only care about delay/abort): one pointer check when idle.
 */
#define FAULT_POINT(site)                                             \
    do {                                                              \
        if (::tp::fault::active()) [[unlikely]]                       \
            (void)::tp::fault::fire(site);                            \
    } while (0)

/**
 * Hook for sites that apply data faults themselves:
 *
 *     if (const tp::fault::FaultRule *r = FAULT_CHECK("x.y")) { ... }
 *
 * Evaluates to nullptr for the cost of one pointer check when no
 * plan is installed.
 */
#define FAULT_CHECK(site)                                             \
    (::tp::fault::active() ? ::tp::fault::fire(site) : nullptr)

#endif // TP_COMMON_FAULT_INJECTION_HH
