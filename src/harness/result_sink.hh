/**
 * @file
 * Streaming consumption of batch results.
 *
 * BatchRunner::run(plan, sink) delivers each finished BatchResult to
 * a ResultSink in submission order as soon as it is deliverable,
 * instead of materializing the whole batch in one vector. Reports
 * over huge plans therefore hold only what their sink accumulates:
 * a StatsSink is O(1), a TableSink keeps formatted rows only, and a
 * TeeSink composes several consumers over one pass. CollectingSink
 * restores the collect-everything behaviour where a driver really
 * needs random access to all results.
 *
 * Sinks are called from the thread that invoked run() — begin(),
 * every consume() and end() are strictly sequential, so sinks need no
 * locking. If a job throws, the exception propagates from run()
 * without end() being called.
 */

#ifndef TP_HARNESS_RESULT_SINK_HH
#define TP_HARNESS_RESULT_SINK_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/statistics.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "sim/trace_observer.hh"

namespace tp::harness {

/** Outcome of one JobSpec, delivered in submission order. */
struct BatchResult
{
    std::size_t index = 0;
    std::string label;
    std::optional<SampledOutcome> sampled;
    std::optional<sim::SimResult> reference;
    /** Present iff mode == Both. */
    std::optional<ErrorSpeedup> comparison;
    /** The reference was replayed from the result cache. */
    bool referenceFromCache = false;
    /** The sampled outcome was replayed from the result cache. */
    bool sampledFromCache = false;
    /** Host seconds the whole job spent on its worker. */
    double hostSeconds = 0.0;
    /**
     * Execution timeline of the job's primary run (the sampled run
     * for Sampled/Both jobs, the reference for Reference-only jobs).
     * Present iff the batch ran with BatchOptions::collectTimelines
     * and the run actually executed (cache replays carry none).
     * Consumed by the trace sinks (harness/trace_report.hh); the
     * report sinks above ignore it, keeping CSV/JSON reports
     * byte-identical with tracing on or off.
     */
    std::optional<sim::JobTimeline> timeline;
};

/** See file comment. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Called once before the first result. */
    virtual void
    begin(std::size_t totalJobs)
    {
        (void)totalJobs;
    }

    /** Called once per job, in submission order. */
    virtual void consume(BatchResult &&result) = 0;

    /** Called once after the last result. */
    virtual void end() {}
};

/** Collects every result into a vector (the pre-streaming shape). */
class CollectingSink final : public ResultSink
{
  public:
    void
    begin(std::size_t totalJobs) override
    {
        results_.reserve(totalJobs);
    }

    void
    consume(BatchResult &&result) override
    {
        results_.push_back(std::move(result));
    }

    const std::vector<BatchResult> &results() const
    {
        return results_;
    }

    /** @return the collected results, leaving the sink empty. */
    std::vector<BatchResult>
    take()
    {
        return std::move(results_);
    }

  private:
    std::vector<BatchResult> results_;
};

/** Adapts a callable into a sink (ad-hoc streaming consumers). */
class FunctionSink final : public ResultSink
{
  public:
    explicit FunctionSink(std::function<void(BatchResult &&)> fn)
        : fn_(std::move(fn))
    {}

    void
    consume(BatchResult &&result) override
    {
        fn_(std::move(result));
    }

  private:
    std::function<void(BatchResult &&)> fn_;
};

/**
 * Renders the standard batch summary table — one row per job with
 * predicted cycles, detailed-instruction fraction and, for Both-mode
 * jobs, the error/speedup comparison — holding only the formatted
 * rows. Prints the table in end() unless printing is disabled.
 */
class TableSink final : public ResultSink
{
  public:
    explicit TableSink(const std::string &title,
                       bool printAtEnd = true);

    void consume(BatchResult &&result) override;
    void end() override;

    const TextTable &table() const { return table_; }

  private:
    TextTable table_;
    bool printAtEnd_;
};

/** Accumulates errorPct of Both-mode results in O(1) memory. */
class StatsSink final : public ResultSink
{
  public:
    void consume(BatchResult &&result) override;

    /** @return errorPct statistics over all Both-mode results. */
    const RunningStats &errorStats() const { return errorStats_; }

    /** @return number of results consumed (any mode). */
    std::size_t jobs() const { return jobs_; }

  private:
    RunningStats errorStats_;
    std::size_t jobs_ = 0;
};

/**
 * Streams results as CSV rows — the machine-readable batch report.
 *
 * One header row, then one row per result in submission order:
 *
 *   index,label,sampled_cycles,reference_cycles,error_pct,
 *   detail_fraction,ref_cached,sam_cached,wall_speedup,host_seconds
 *
 * Cells of absent optionals are empty. Every column left of
 * wall_speedup is deterministic (identical for any worker/process
 * count over one plan); the host-timing columns come last so
 * scripts diffing runs can strip them with a single cut(1). Labels
 * are RFC-4180-quoted when they contain a comma, quote or newline.
 */
class CsvSink final : public ResultSink
{
  public:
    /** Stream variant; `out` must outlive the sink. */
    explicit CsvSink(std::ostream &out);

    /** File variant; fatal when the file cannot be created. */
    explicit CsvSink(const std::string &path);

    ~CsvSink() override;

    void begin(std::size_t totalJobs) override;
    void consume(BatchResult &&result) override;

  private:
    std::unique_ptr<std::ostream> owned_;
    std::ostream &out_;
};

/**
 * Streams results as one JSON array of row objects (keys as in the
 * CsvSink columns; absent optionals are null). Written
 * incrementally — begin() opens the array, each consume() appends
 * one object, end() closes it — so arbitrarily long batches stream
 * in O(1) sink memory.
 */
class JsonSink final : public ResultSink
{
  public:
    /** Stream variant; `out` must outlive the sink. */
    explicit JsonSink(std::ostream &out);

    /** File variant; fatal when the file cannot be created. */
    explicit JsonSink(const std::string &path);

    ~JsonSink() override;

    void begin(std::size_t totalJobs) override;
    void consume(BatchResult &&result) override;
    void end() override;

  private:
    std::unique_ptr<std::ostream> owned_;
    std::ostream &out_;
    bool first_ = true;
};

/**
 * Fans one result stream out to several sinks (not owned; must
 * outlive the run). All but the last sink receive a copy; the last
 * receives the moved original.
 */
class TeeSink final : public ResultSink
{
  public:
    explicit TeeSink(std::vector<ResultSink *> sinks);

    void begin(std::size_t totalJobs) override;
    void consume(BatchResult &&result) override;
    void end() override;

  private:
    std::vector<ResultSink *> sinks_;
};

/**
 * Reassembles an unordered, possibly duplicated result stream into
 * the ordered stream a ResultSink expects — the merge half of the
 * dispatch coordinator (harness/dispatch).
 *
 * Results arrive from concurrently tailed task streams in whatever
 * order runners finish, and fault handling can produce the same
 * plan index twice: a job stolen from a straggler can be finished by
 * both the thief and the original runner. Executions
 * are deterministic, so duplicates are bit-identical by
 * construction; the merger delivers the first arrival of each index
 * and drops the rest, parking out-of-order results until their
 * index is next. The inner sink observes exactly the
 * begin/consume/end sequence of an in-process run.
 */
class ResultMerger
{
  public:
    /** Calls sink.begin(totalJobs); sink must outlive the merger. */
    ResultMerger(ResultSink &sink, std::size_t totalJobs);

    /**
     * Accept one result (any order, duplicates allowed), delivering
     * every newly in-order result to the sink.
     *
     * @return true when the result was new, false for a duplicate
     *         (dropped). An index beyond totalJobs panics — streams
     *         are checksummed, so that is a coordinator bug.
     */
    bool offer(BatchResult &&result);

    /** @return whether `index` has already been offered. */
    bool collected(std::size_t index) const;

    /** @return results delivered to the sink so far. */
    std::size_t delivered() const { return delivered_; }

    /** @return whether every job's result has been delivered. */
    bool complete() const { return delivered_ == total_; }

    /** Calls sink.end(); panics unless complete(). */
    void finish();

  private:
    ResultSink &sink_;
    std::size_t total_;
    std::vector<bool> seen_;
    std::map<std::size_t, BatchResult> pending_;
    std::size_t nextDeliver_ = 0;
    std::size_t delivered_ = 0;
};

/**
 * Render a batch as a TextTable (the TableSink format, for drivers
 * that already hold a result vector).
 */
TextTable batchSummaryTable(const std::string &title,
                            const std::vector<BatchResult> &results);

/** Accumulate errorPct of all Both-mode results (common/statistics). */
RunningStats batchErrorStats(const std::vector<BatchResult> &results);

// Helpers shared by the file-writing sinks here and in
// harness/trace_report.

/** Open `path` for writing; fatal on failure (user-supplied path). */
std::unique_ptr<std::ostream> openReportFile(const std::string &path);

/** RFC-4180 quoting: wrap iff the cell needs it. */
std::string csvCell(const std::string &s);

/**
 * Shortest-repr double: %.17g round-trips every double, but prints
 * 0.5 as 0.5, so identical values always render identically — the
 * property machine-diffable reports need.
 */
std::string fmtReportDouble(double v);

} // namespace tp::harness

#endif // TP_HARNESS_RESULT_SINK_HH
