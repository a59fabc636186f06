#include "harness/trace_report.hh"

#include <ostream>

#include "common/logging.hh"

namespace tp::harness {

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : owned_(openReportFile(path)),
      stream_(std::make_unique<sim::ChromeTraceStream>(*owned_))
{
}

ChromeTraceSink::ChromeTraceSink(std::ostream &out)
    : stream_(std::make_unique<sim::ChromeTraceStream>(out))
{
}

ChromeTraceSink::~ChromeTraceSink() = default;

void
ChromeTraceSink::consume(BatchResult &&r)
{
    if (!r.timeline)
        return; // cache replay or slice group: nothing simulated
    sim::emitTimelineEvents(
        *stream_, r.index,
        strprintf("job %zu: %s", r.index, r.label.c_str()),
        *r.timeline);
}

void
ChromeTraceSink::end()
{
    stream_->close();
}

TimelineStatsSink::TimelineStatsSink(const std::string &path)
    : owned_(openReportFile(path)), out_(*owned_)
{
}

TimelineStatsSink::TimelineStatsSink(std::ostream &out) : out_(out) {}

TimelineStatsSink::~TimelineStatsSink() = default;

void
TimelineStatsSink::begin(std::size_t totalJobs)
{
    (void)totalJobs;
    out_ << "index,label,core,tasks,busy_cycles,idle_cycles,"
            "detailed_mode_cycles,fast_mode_cycles,"
            "warmup_phase_cycles,sampling_phase_cycles,"
            "fastforward_phase_cycles,detailed_phase_cycles,"
            "busy_fraction\n";
}

void
TimelineStatsSink::consume(BatchResult &&r)
{
    if (!r.timeline)
        return;
    const sim::JobTimeline &t = *r.timeline;
    const std::vector<sim::CoreTimelineStats> stats =
        sim::computeCoreStats(t);
    for (std::uint32_t c = 0; c < t.cores; ++c) {
        const sim::CoreTimelineStats &s = stats[c];
        const Cycles idle =
            t.totalCycles > s.busy ? t.totalCycles - s.busy
                                   : Cycles{0};
        const double busyFrac =
            t.totalCycles > 0
                ? static_cast<double>(s.busy) /
                      static_cast<double>(t.totalCycles)
                : 0.0;
        out_ << r.index << ',' << csvCell(r.label) << ',' << c << ','
             << s.tasks << ',' << s.busy << ',' << idle << ','
             << s.detailedBusy << ',' << s.fastBusy << ','
             << s.phaseBusy[sim::kWarmupPhase] << ','
             << s.phaseBusy[sim::kSamplingPhase] << ','
             << s.phaseBusy[sim::kFastForwardPhase] << ','
             << s.phaseBusy[sim::kDetailedOnlyPhase] << ','
             << fmtReportDouble(busyFrac) << '\n';
    }
    out_.flush();
}

} // namespace tp::harness
