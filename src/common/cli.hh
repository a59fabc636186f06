/**
 * @file
 * Minimal command-line parsing for benches and examples.
 *
 * All experiment binaries accept `--key=value` / `--flag` options.
 * Each binary declares its options as CliOption{name, help}; from
 * that declaration CliArgs generates a `--help` screen (printed to
 * stdout, exit 0), and unknown options are fatal — with a pointer to
 * `--help` — so typos cannot silently run the wrong experiment.
 */

#ifndef TP_COMMON_CLI_HH
#define TP_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tp {

/** One allowed option: its name and a one-line help text. */
struct CliOption
{
    std::string name;
    std::string help;

    // Implicit from a bare name so option lists can mix described
    // options with plain string literals.
    CliOption(const char *option_name) : name(option_name) {}
    CliOption(std::string option_name) : name(std::move(option_name))
    {}
    CliOption(std::string option_name, std::string help_text)
        : name(std::move(option_name)), help(std::move(help_text))
    {}
};

/** Parsed command line with typed accessors and defaults. */
class CliArgs
{
  public:
    /**
     * Parse argv. Accepted forms: `--key=value`, `--flag`.
     *
     * `--help` (always accepted) prints the generated option list to
     * stdout and exits 0. Anything not in `options` is a fatal user
     * error suggesting `--help`.
     */
    CliArgs(int argc, const char *const *argv,
            const std::vector<CliOption> &options);

    /** @return true if --name was present (with or without value). */
    bool has(const std::string &name) const;

    /** @return string value of --name, or fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /** @return integer value of --name, or fallback. */
    std::int64_t getInt(const std::string &name,
                        std::int64_t fallback) const;

    /** @return unsigned value of --name, or fallback. */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t fallback) const;

    /**
     * @return unsigned value of --name constrained to [lo, hi], or
     *         fallback when absent. A present value outside the
     *         range is a fatal user error naming the allowed range,
     *         so a typo'd `--repeat=1e9` cannot silently run for
     *         hours. The fallback itself is not range-checked.
     */
    std::uint64_t getUintIn(const std::string &name,
                            std::uint64_t fallback, std::uint64_t lo,
                            std::uint64_t hi) const;

    /**
     * @return double value of --name, or fallback. Non-finite
     *         values ('inf', 'nan') and values overflowing a double
     *         are fatal user errors.
     */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * @return double value of --name constrained to [lo, hi], or
     *         fallback when absent (see getUintIn for rationale).
     */
    double getDoubleIn(const std::string &name, double fallback,
                       double lo, double hi) const;

    /** @return comma-separated list value, or fallback. */
    std::vector<std::string>
    getList(const std::string &name,
            const std::vector<std::string> &fallback) const;

    /**
     * @return the generated --help text: usage line plus one aligned
     *         row per option (exposed for tests).
     */
    static std::string
    helpText(const std::string &prog,
             const std::vector<CliOption> &options);

  private:
    std::map<std::string, std::string> values_;
};

/** Split a string on a delimiter, dropping empty fields. */
std::vector<std::string> splitString(const std::string &s, char delim);

/** Canonical name of the worker-count option ("jobs"). */
extern const char *const kJobsOption;

/**
 * Canonical name of the multi-process option ("workers"). Drivers
 * that can run a plan as a local dispatch campaign list it and build
 * their executor with harness::executorFromCli().
 */
extern const char *const kWorkersOption;

/**
 * Canonical names of the result-cache options ("cache-dir",
 * "cache"). Drivers that batch simulations list both among their
 * options and build their executor with harness::executorFromCli(),
 * which opens the cache.
 */
extern const char *const kCacheDirOption;
extern const char *const kCacheModeOption;

/** Canonical name of the adaptive-target option ("target-error"). */
extern const char *const kTargetErrorOption;

/**
 * Canonical name of the warm-state checkpoint-store option
 * ("checkpoint-dir"). Drivers that batch sampled simulations list it
 * and open the store with harness::openCheckpointDir().
 */
extern const char *const kCheckpointDirOption;

/**
 * Canonical name of the fault-tolerance budget option
 * ("max-retries"): steal/re-split rounds per shard lineage before a
 * dispatch campaign (`--workers` or taskpoint_dispatch) fails.
 */
extern const char *const kMaxRetriesOption;

/**
 * Canonical names of the trace-report options: "trace-out" writes a
 * merged Chrome trace-event JSON of every executed job, "trace-stats"
 * writes per-core timeline statistics CSV (see
 * harness/trace_report.hh). Both are execution-environment options —
 * they never change plan digests or deterministic report columns.
 */
extern const char *const kTraceOutOption;
extern const char *const kTraceStatsOption;

/**
 * Canonical name of the fault-injection option ("fault-plan"): path
 * of a deterministic fault schedule (common/fault_injection.hh).
 * Every CliArgs construction also honors the TASKPOINT_FAULT_PLAN
 * environment variable, so binaries that do not list the option —
 * and spawned workers and runners — still load the plan; the flag
 * form re-exports the variable so children inherit it.
 */
extern const char *const kFaultPlanOption;

/** --jobs with its canonical help text. */
CliOption jobsCliOption();

/** --workers with its canonical help text. */
CliOption workersCliOption();

/** --cache-dir / --cache with their canonical help texts. */
CliOption cacheDirCliOption();
CliOption cacheModeCliOption();

/** --target-error with its canonical help text. */
CliOption targetErrorCliOption();

/** --checkpoint-dir with its canonical help text. */
CliOption checkpointDirCliOption();

/** --max-retries with its canonical help text. */
CliOption maxRetriesCliOption();

/** --trace-out / --trace-stats with their canonical help texts. */
CliOption traceOutCliOption();
CliOption traceStatsCliOption();

/** --fault-plan with its canonical help text. */
CliOption faultPlanCliOption();

/**
 * Lineage attempt budget from `--max-retries=N` (range-validated to
 * [1, 100]); absent means `fallback`. The binary must list
 * kMaxRetriesOption among its allowed options for users to set it.
 */
std::size_t maxRetriesFlag(const CliArgs &args,
                           std::size_t fallback = 3);

/**
 * Worker count from `--jobs=N` / `--jobs=auto`.
 *
 * `auto` (or 0) selects the host's hardware concurrency; absent means
 * `fallback`. The binary must list kJobsOption among its allowed
 * options.
 */
std::size_t jobsFlag(const CliArgs &args, std::size_t fallback = 1);

/**
 * Local runner count from `--workers=N` / `--workers=auto`.
 *
 * `auto` selects the host's hardware concurrency; absent or
 * `--workers=0` means run in-process. The binary must list
 * kWorkersOption among its allowed options.
 */
std::size_t workersFlag(const CliArgs &args);

/**
 * Adaptive sampling target from `--target-error=1%` / `=0.01`.
 *
 * Accepts a percentage (trailing '%') or a bare fraction; the result
 * is always the fraction (0.01 for both spellings above) and must
 * land in (0, 1). Absent means `fallback` (default 0 = adaptive
 * sampling off). The binary must list kTargetErrorOption among its
 * allowed options.
 */
double targetErrorFlag(const CliArgs &args, double fallback = 0.0);

} // namespace tp

#endif // TP_COMMON_CLI_HH
