/**
 * @file
 * Measurement support of taskpoint_bench: the host clock,
 * sample summaries, the named metric table, the correctness ledger
 * and the in-memory span log of traced runs.
 *
 * Everything here measures the simulator from outside: spans wrap
 * calls the benchmark makes into public functions, so the program
 * itself carries no benchmark hooks.
 */

#ifndef TPBENCH_MEASURE_HH
#define TPBENCH_MEASURE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tpbench {

/** @return host steady-clock time in seconds. */
double now();

/** @return a / b, or 0 when b is 0 (an empty denominator). */
double ratio(double a, double b);

/** Median, quartiles and size of a sample. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

/** @return the summary of `xs` (all zero when empty). */
Summary summarize(const std::vector<double> &xs);

/** Named metrics, in the order first set, each with its unit. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    /** Set (or overwrite) one metric; a non-finite value panics. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** @return the value of `name`; panics when it was never set. */
    double get(const std::string &name) const;

    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/**
 * Counts the jobs whose outputs were checked and the ones that were
 * wrong, keeping the first few failure descriptions for stderr.
 */
class Checker
{
  public:
    /** One job was checked; `ok` false counts it as failed. */
    void job(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &problems() const
    {
        return problems_;
    }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
};

/**
 * Spans of one traced run, kept in memory and written out at the end
 * as Chrome trace-event JSON. A span opened while another is open
 * becomes its child; spans of one simulation job carry the job's
 * index. Single-threaded: traced passes run their jobs serially.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span inside the innermost open one; @return its id. */
    std::size_t open(const std::string &name, std::int64_t job);

    /**
     * Close span `id`, which must be the innermost open span.
     * @return its duration in seconds
     */
    double close(std::size_t id);

    /** @return the summed duration of every span called `name`. */
    double total(const std::string &name) const;

    /**
     * Write every span as a complete ("X") event: host microseconds
     * since the log was created, `args.parent` (span id or -1),
     * `args.job` (job index or -1) and `args.self_us`, the span's
     * duration minus its children's. Panics when a span is open.
     */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        std::int64_t parent = -1;
        std::int64_t job = -1;
    };

    double origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> openStack_;
};

/**
 * Scoped span on an optional log: with a null log it only measures
 * its own duration, so untraced passes share the traced code path.
 */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name,
              std::int64_t job = -1);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** End the span now; @return its duration in seconds. */
    double close();

  private:
    SpanLog *log_;
    std::size_t id_ = 0;
    double start_;
    bool open_ = true;
};

/**
 * @return peak resident memory in MB: this process plus the largest
 *         child it (or a waited-for descendant) reaped.
 */
double peakRssMb();

/**
 * @return the result line: one JSON object with the keys correct,
 *         attempted, failed and metrics (each {"value", "unit"}),
 *         numbers written in shortest round-trip form.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics &metrics);

} // namespace tpbench

#endif // TPBENCH_MEASURE_HH
