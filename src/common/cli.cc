#include "common/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/fault_injection.hh"
#include "common/logging.hh"

namespace tp {

std::vector<std::string>
splitString(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::string
CliArgs::helpText(const std::string &prog,
                  const std::vector<CliOption> &options)
{
    std::vector<CliOption> all = options;
    all.emplace_back("help", "show this help and exit");

    std::size_t width = 0;
    for (const CliOption &o : all)
        width = std::max(width, o.name.size());

    std::string text =
        "usage: " + prog + " [--OPTION[=VALUE]]...\n\noptions:\n";
    for (const CliOption &o : all) {
        text += "  --" + o.name;
        text.append(width - o.name.size() + 2, ' ');
        text += o.help + "\n";
    }
    return text;
}

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::vector<CliOption> &options)
{
    const std::string prog =
        argc > 0 ? std::string(argv[0]) : "taskpoint";
    const auto slash = prog.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? prog : prog.substr(slash + 1);

    // First pass: collect tokens and spot --help, which wins over
    // any validation so `--help` works even next to a typo or a
    // stray positional argument.
    std::string positional;
    std::vector<std::pair<std::string, std::string>> parsed;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (positional.empty())
                positional = arg;
            continue;
        }
        arg = arg.substr(2);
        std::string key = arg;
        std::string value = "1";
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        }
        if (key == "help") {
            std::fputs(helpText(base, options).c_str(), stdout);
            std::exit(0);
        }
        parsed.emplace_back(std::move(key), std::move(value));
    }
    if (!positional.empty())
        fatal("unexpected positional argument '%s' (try --help)",
              positional.c_str());

    for (auto &[key, value] : parsed) {
        const bool known = std::any_of(
            options.begin(), options.end(),
            [&key](const CliOption &o) { return o.name == key; });
        if (!known)
            fatal("unknown option '--%s'; run '%s --help' to list "
                  "the options this binary understands",
                  key.c_str(), base.c_str());
        values_[key] = std::move(value);
    }

    // Fault-plan activation (common/fault_injection.hh). The flag
    // wins over the environment and re-exports it so spawned
    // workers and runners inherit the schedule; with only the
    // variable set, install once (idempotent across repeated CliArgs
    // constructions, which must not reset fault occurrence counts).
    const std::string faultPlan = getString(kFaultPlanOption, "");
    if (!faultPlan.empty()) {
        ::setenv(fault::kFaultPlanEnvVar, faultPlan.c_str(), 1);
        fault::installFaultPlan(fault::loadFaultPlan(faultPlan));
    } else {
        fault::initFaultPlanFromEnv();
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name,
                   const std::string &fallback) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (it->second.empty() || end == nullptr || *end != '\0')
        fatal("option --%s expects an integer, got '%s'",
              name.c_str(), it->second.c_str());
    if (errno == ERANGE)
        fatal("option --%s value '%s' is out of range",
              name.c_str(), it->second.c_str());
    return v;
}

std::uint64_t
CliArgs::getUint(const std::string &name, std::uint64_t fallback) const
{
    const std::int64_t v =
        getInt(name, static_cast<std::int64_t>(fallback));
    if (v < 0)
        fatal("option --%s expects a non-negative integer",
              name.c_str());
    return static_cast<std::uint64_t>(v);
}

std::uint64_t
CliArgs::getUintIn(const std::string &name, std::uint64_t fallback,
                   std::uint64_t lo, std::uint64_t hi) const
{
    if (!has(name))
        return fallback;
    const std::uint64_t v = getUint(name, fallback);
    if (v < lo || v > hi)
        fatal("option --%s must be in [%llu, %llu], got %llu",
              name.c_str(), static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi),
              static_cast<unsigned long long>(v));
    return v;
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || end == nullptr || *end != '\0')
        fatal("option --%s expects a number, got '%s'",
              name.c_str(), it->second.c_str());
    // strtod happily parses 'inf' and 'nan', and overflow yields
    // +-HUGE_VAL with ERANGE; none of them is a usable knob value.
    if (errno == ERANGE || !std::isfinite(v))
        fatal("option --%s expects a finite number, got '%s'",
              name.c_str(), it->second.c_str());
    return v;
}

double
CliArgs::getDoubleIn(const std::string &name, double fallback,
                     double lo, double hi) const
{
    if (!has(name))
        return fallback;
    const double v = getDouble(name, fallback);
    if (v < lo || v > hi)
        fatal("option --%s must be in [%g, %g], got %g",
              name.c_str(), lo, hi, v);
    return v;
}

const char *const kJobsOption = "jobs";
const char *const kWorkersOption = "workers";
const char *const kCacheDirOption = "cache-dir";
const char *const kCacheModeOption = "cache";
const char *const kTargetErrorOption = "target-error";
const char *const kCheckpointDirOption = "checkpoint-dir";
const char *const kMaxRetriesOption = "max-retries";
const char *const kTraceOutOption = "trace-out";
const char *const kTraceStatsOption = "trace-stats";
const char *const kFaultPlanOption = "fault-plan";

CliOption
jobsCliOption()
{
    return {kJobsOption,
            "simulation worker threads: N, or 'auto' for the host's "
            "hardware concurrency (default 1)"};
}

CliOption
workersCliOption()
{
    return {kWorkersOption,
            "run the plan as a local dispatch campaign: N spawns N "
            "taskpoint_dispatch runners on a temp spool, 'auto' uses "
            "the host's hardware concurrency, 0 runs in-process "
            "(default 0)"};
}

CliOption
cacheDirCliOption()
{
    return {kCacheDirOption,
            "directory of the shared on-disk result cache (created "
            "on first use)"};
}

CliOption
cacheModeCliOption()
{
    return {kCacheModeOption,
            "result-cache mode: off, ro or rw (default rw when "
            "--cache-dir is given, off otherwise)"};
}

std::size_t
jobsFlag(const CliArgs &args, std::size_t fallback)
{
    if (!args.has(kJobsOption))
        return fallback == 0 ? 1 : fallback;
    std::size_t n;
    if (args.getString(kJobsOption, "") == "auto")
        n = 0;
    else
        n = static_cast<std::size_t>(args.getUint(kJobsOption, 1));
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 1;
    }
    return n;
}

CliOption
targetErrorCliOption()
{
    return {kTargetErrorOption,
            "adaptive sampling: target relative CI half-width, as a "
            "percentage ('1%') or fraction ('0.01'); absent = "
            "adaptive sampling off"};
}

double
targetErrorFlag(const CliArgs &args, double fallback)
{
    if (!args.has(kTargetErrorOption))
        return fallback;
    std::string v = args.getString(kTargetErrorOption, "");
    bool percent = false;
    if (!v.empty() && v.back() == '%') {
        percent = true;
        v.pop_back();
    }
    char *end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (v.empty() || end == nullptr || *end != '\0')
        fatal("option --%s expects a percentage like '1%%' or a "
              "fraction like '0.01', got '%s'",
              kTargetErrorOption,
              args.getString(kTargetErrorOption, "").c_str());
    const double frac = percent ? parsed / 100.0 : parsed;
    if (!(frac > 0.0) || frac >= 1.0)
        fatal("option --%s must be in (0%%, 100%%), got '%s'",
              kTargetErrorOption,
              args.getString(kTargetErrorOption, "").c_str());
    return frac;
}

CliOption
checkpointDirCliOption()
{
    return {kCheckpointDirOption,
            "directory of the warm-state checkpoint store (created "
            "on first use): a first sampled run records a checkpoint "
            "at every sample boundary; later runs split each job "
            "into slices restoring them, in parallel, with "
            "byte-identical results"};
}

CliOption
maxRetriesCliOption()
{
    return {kMaxRetriesOption,
            "steal/re-split rounds per shard lineage before a "
            "--workers or taskpoint_dispatch campaign fails "
            "(default 3, range 1-100)"};
}

CliOption
traceOutCliOption()
{
    return {kTraceOutOption,
            "write a Chrome trace-event JSON timeline of every "
            "executed job to this file (load in chrome://tracing or "
            "Perfetto); observational only — deterministic report "
            "columns stay byte-identical"};
}

CliOption
traceStatsCliOption()
{
    return {kTraceStatsOption,
            "write per-core timeline statistics (busy/idle/mode/"
            "phase-occupancy cycles per core and job) to this file "
            "as CSV; observational only, fully deterministic"};
}

CliOption
faultPlanCliOption()
{
    return {kFaultPlanOption,
            "load a deterministic fault-injection schedule from "
            "this file and export TASKPOINT_FAULT_PLAN so spawned "
            "workers and runners inherit it (chaos testing; see "
            "README)"};
}

std::size_t
maxRetriesFlag(const CliArgs &args, std::size_t fallback)
{
    return static_cast<std::size_t>(
        args.getUintIn(kMaxRetriesOption, fallback, 1, 100));
}

std::size_t
workersFlag(const CliArgs &args)
{
    if (!args.has(kWorkersOption))
        return 0;
    if (args.getString(kWorkersOption, "") == "auto") {
        const std::size_t n = std::thread::hardware_concurrency();
        return n == 0 ? 1 : n;
    }
    // --workers=0 is an explicit "in-process" request.
    return static_cast<std::size_t>(
        args.getUint(kWorkersOption, 0));
}

std::vector<std::string>
CliArgs::getList(const std::string &name,
                 const std::vector<std::string> &fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    return splitString(it->second, ',');
}

} // namespace tp
