/**
 * @file
 * Report sinks over BatchResult timelines (see
 * BatchOptions::collectTimelines and sim/trace_observer.hh).
 *
 * Both sinks consume the JobTimeline riding each BatchResult and
 * ignore everything else, so they compose with the ordinary report
 * sinks through a TeeSink without changing a byte of the CSV/JSON
 * reports. They work identically in-process, under --workers=N and
 * under a dispatch campaign: timelines serialize into the runners'
 * result streams, so the coordinator-side sink merges the slices of
 * a whole campaign into one document. harness::Executor owns the
 * sinks a command line names and feeds them every run's results,
 * numbered run-wide.
 *
 * Results without a timeline (cache replays, checkpoint slice
 * groups) contribute nothing — the merged trace covers exactly the
 * jobs that actually simulated.
 */

#ifndef TP_HARNESS_TRACE_REPORT_HH
#define TP_HARNESS_TRACE_REPORT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "harness/result_sink.hh"
#include "sim/trace_observer.hh"

namespace tp::harness {

/**
 * Merges every consumed timeline into one Chrome trace-event JSON
 * document (chrome://tracing / Perfetto loadable): one trace-event
 * process per job — named "job <index>: <label>" — with a track per
 * core, a sampling-phase track and cumulative memory counters. The
 * document contains no wall-clock fields and jobs arrive in
 * submission order, so it is byte-stable across reruns and worker
 * counts. The document is closed in end() (or the destructor).
 */
class ChromeTraceSink final : public ResultSink
{
  public:
    /** File variant; fatal when the file cannot be created. */
    explicit ChromeTraceSink(const std::string &path);

    /** Stream variant; `out` must outlive the sink. */
    explicit ChromeTraceSink(std::ostream &out);

    ~ChromeTraceSink() override;

    void consume(BatchResult &&result) override;
    void end() override;

  private:
    std::unique_ptr<std::ostream> owned_;
    std::unique_ptr<sim::ChromeTraceStream> stream_;
};

/**
 * Streams per-core timeline statistics as CSV — one row per
 * (job, core):
 *
 *   index,label,core,tasks,busy_cycles,idle_cycles,
 *   detailed_mode_cycles,fast_mode_cycles,warmup_phase_cycles,
 *   sampling_phase_cycles,fastforward_phase_cycles,
 *   detailed_phase_cycles,busy_fraction
 *
 * Mode columns split busy cycles by simulation mode; phase columns
 * split them by the sampling phase they fell into (the *_phase
 * columns sum to busy_cycles; detailed_phase_cycles carries the
 * whole run for reference simulations). Every column is
 * deterministic — no host timing — so reports diff cleanly across
 * worker counts and reruns. Jobs without a timeline emit no rows.
 */
class TimelineStatsSink final : public ResultSink
{
  public:
    /** File variant; fatal when the file cannot be created. */
    explicit TimelineStatsSink(const std::string &path);

    /** Stream variant; `out` must outlive the sink. */
    explicit TimelineStatsSink(std::ostream &out);

    ~TimelineStatsSink() override;

    void begin(std::size_t totalJobs) override;
    void consume(BatchResult &&result) override;

  private:
    std::unique_ptr<std::ostream> owned_;
    std::ostream &out_;
};

} // namespace tp::harness

#endif // TP_HARNESS_TRACE_REPORT_HH
