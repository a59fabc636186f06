#include "harness/result_sink.hh"

#include <fstream>
#include <ostream>

#include "common/logging.hh"

namespace tp::harness {

std::unique_ptr<std::ostream>
openReportFile(const std::string &path)
{
    auto out = std::make_unique<std::ofstream>(path,
                                               std::ios::trunc);
    if (!*out)
        fatal("cannot open report file '%s' for writing",
              path.c_str());
    return out;
}

std::string
csvCell(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string quoted = "\"";
    for (char c : s) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

std::string
fmtReportDouble(double v)
{
    std::string s = strprintf("%.17g", v);
    for (int prec = 1; prec < 17; ++prec) {
        std::string candidate = strprintf("%.*g", prec, v);
        if (std::stod(candidate) == v) {
            s = candidate;
            break;
        }
    }
    return s;
}

namespace {

/** JSON string literal (quotes, backslashes, control chars). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

const std::vector<std::string> kSummaryHeader = {
    "#",         "label",   "cycles",  "detail frac",
    "error [%]", "speedup", "host [s]"};

std::vector<std::string>
summaryRow(const BatchResult &r)
{
    const sim::SimResult *primary =
        r.sampled ? &r.sampled->result
                  : (r.reference ? &*r.reference : nullptr);
    return {std::to_string(r.index), r.label,
            primary ? fmtCount(primary->totalCycles) : "-",
            primary ? fmtDouble(primary->detailFraction(), 3) : "-",
            r.comparison ? fmtDouble(r.comparison->errorPct, 2)
                         : "-",
            r.comparison ? fmtDouble(r.comparison->wallSpeedup, 1)
                         : "-",
            fmtDouble(r.hostSeconds, 2)};
}

} // namespace

TableSink::TableSink(const std::string &title, bool printAtEnd)
    : table_(title), printAtEnd_(printAtEnd)
{
    table_.setHeader(kSummaryHeader);
}

void
TableSink::consume(BatchResult &&result)
{
    table_.addRow(summaryRow(result));
}

void
TableSink::end()
{
    if (printAtEnd_)
        table_.print();
}

void
StatsSink::consume(BatchResult &&result)
{
    ++jobs_;
    if (result.comparison)
        errorStats_.add(result.comparison->errorPct);
}

CsvSink::CsvSink(std::ostream &out) : out_(out) {}

CsvSink::CsvSink(const std::string &path)
    : owned_(openReportFile(path)), out_(*owned_)
{
}

CsvSink::~CsvSink() = default;

void
CsvSink::begin(std::size_t totalJobs)
{
    (void)totalJobs;
    out_ << "index,label,sampled_cycles,reference_cycles,error_pct,"
            "detail_fraction,ref_cached,sam_cached,wall_speedup,"
            "host_seconds\n";
}

void
CsvSink::consume(BatchResult &&r)
{
    const sim::SimResult *primary =
        r.sampled ? &r.sampled->result : nullptr;
    out_ << r.index << ',' << csvCell(r.label) << ',';
    if (primary)
        out_ << primary->totalCycles;
    out_ << ',';
    if (r.reference)
        out_ << r.reference->totalCycles;
    out_ << ',';
    if (r.comparison)
        out_ << fmtReportDouble(r.comparison->errorPct);
    out_ << ',';
    if (primary)
        out_ << fmtReportDouble(primary->detailFraction());
    else if (r.reference)
        out_ << fmtReportDouble(r.reference->detailFraction());
    out_ << ',' << (r.referenceFromCache ? 1 : 0) << ','
         << (r.sampledFromCache ? 1 : 0) << ',';
    if (r.comparison)
        out_ << fmtReportDouble(r.comparison->wallSpeedup);
    out_ << ',' << fmtReportDouble(r.hostSeconds) << '\n';
    out_.flush();
}

JsonSink::JsonSink(std::ostream &out) : out_(out) {}

JsonSink::JsonSink(const std::string &path)
    : owned_(openReportFile(path)), out_(*owned_)
{
}

JsonSink::~JsonSink() = default;

void
JsonSink::begin(std::size_t totalJobs)
{
    (void)totalJobs;
    first_ = true;
    out_ << "[";
}

void
JsonSink::consume(BatchResult &&r)
{
    out_ << (first_ ? "\n" : ",\n");
    first_ = false;
    const sim::SimResult *primary =
        r.sampled ? &r.sampled->result : nullptr;
    out_ << "  {\"index\": " << r.index
         << ", \"label\": " << jsonString(r.label)
         << ", \"sampled_cycles\": ";
    if (primary)
        out_ << primary->totalCycles;
    else
        out_ << "null";
    out_ << ", \"reference_cycles\": ";
    if (r.reference)
        out_ << r.reference->totalCycles;
    else
        out_ << "null";
    out_ << ", \"error_pct\": ";
    if (r.comparison)
        out_ << fmtReportDouble(r.comparison->errorPct);
    else
        out_ << "null";
    out_ << ", \"detail_fraction\": ";
    if (primary)
        out_ << fmtReportDouble(primary->detailFraction());
    else if (r.reference)
        out_ << fmtReportDouble(r.reference->detailFraction());
    else
        out_ << "null";
    out_ << ", \"ref_cached\": "
         << (r.referenceFromCache ? "true" : "false")
         << ", \"sam_cached\": "
         << (r.sampledFromCache ? "true" : "false")
         << ", \"wall_speedup\": ";
    if (r.comparison)
        out_ << fmtReportDouble(r.comparison->wallSpeedup);
    else
        out_ << "null";
    out_ << ", \"host_seconds\": " << fmtReportDouble(r.hostSeconds)
         << "}";
}

void
JsonSink::end()
{
    out_ << "\n]\n";
    out_.flush();
}

TeeSink::TeeSink(std::vector<ResultSink *> sinks)
    : sinks_(std::move(sinks))
{
}

void
TeeSink::begin(std::size_t totalJobs)
{
    for (ResultSink *s : sinks_)
        s->begin(totalJobs);
}

void
TeeSink::consume(BatchResult &&result)
{
    if (sinks_.empty())
        return;
    for (std::size_t i = 0; i + 1 < sinks_.size(); ++i)
        sinks_[i]->consume(BatchResult(result));
    sinks_.back()->consume(std::move(result));
}

void
TeeSink::end()
{
    for (ResultSink *s : sinks_)
        s->end();
}

ResultMerger::ResultMerger(ResultSink &sink, std::size_t totalJobs)
    : sink_(sink), total_(totalJobs), seen_(totalJobs, false)
{
    sink_.begin(totalJobs);
}

bool
ResultMerger::offer(BatchResult &&result)
{
    tp_assert(result.index < total_);
    if (seen_[result.index])
        return false; // deterministic duplicate; first arrival won
    seen_[result.index] = true;
    pending_.emplace(result.index, std::move(result));
    while (!pending_.empty() &&
           pending_.begin()->first == nextDeliver_) {
        auto node = pending_.extract(pending_.begin());
        sink_.consume(std::move(node.mapped()));
        ++nextDeliver_;
        ++delivered_;
    }
    return true;
}

bool
ResultMerger::collected(std::size_t index) const
{
    tp_assert(index < total_);
    return seen_[index];
}

void
ResultMerger::finish()
{
    tp_assert(complete());
    sink_.end();
}

TextTable
batchSummaryTable(const std::string &title,
                  const std::vector<BatchResult> &results)
{
    TextTable t(title);
    t.setHeader(kSummaryHeader);
    for (const BatchResult &r : results)
        t.addRow(summaryRow(r));
    return t;
}

RunningStats
batchErrorStats(const std::vector<BatchResult> &results)
{
    RunningStats stats;
    for (const BatchResult &r : results) {
        if (r.comparison)
            stats.add(r.comparison->errorPct);
    }
    return stats;
}

} // namespace tp::harness
