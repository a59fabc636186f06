#include "measure.hh"

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>

#include "common/logging.hh"
#include "common/statistics.hh"
#include "sim/trace_observer.hh"

namespace tpbench {

namespace {

/** Shortest text that reads back as exactly `v`. */
std::string
numberText(double v)
{
    char buf[64];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

Summary
summarize(const std::vector<double> &xs)
{
    Summary s;
    s.n = xs.size();
    if (xs.empty())
        return s;
    s.median = tp::percentile(xs, 50.0);
    s.q1 = tp::percentile(xs, 25.0);
    s.q3 = tp::percentile(xs, 75.0);
    return s;
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    if (!std::isfinite(value))
        tp::panic("metric %s is not finite", name.c_str());
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

double
Metrics::get(const std::string &name) const
{
    for (const Entry &e : entries_) {
        if (e.name == name)
            return e.value;
    }
    tp::panic("metric %s was never set", name.c_str());
}

void
Checker::job(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (problems_.size() < 20)
        problems_.push_back(what);
}

SpanLog::SpanLog() : origin_(now()) {}

std::size_t
SpanLog::open(const std::string &name, std::int64_t job)
{
    Span s;
    s.name = name;
    s.start = now();
    s.parent = openStack_.empty()
                   ? -1
                   : static_cast<std::int64_t>(openStack_.back());
    // A span outside any job inherits its parent's job, so every span
    // of one job shares the job's index.
    s.job = job >= 0 || openStack_.empty()
                ? job
                : spans_[openStack_.back()].job;
    spans_.push_back(s);
    openStack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

double
SpanLog::close(std::size_t id)
{
    if (openStack_.empty() || openStack_.back() != id)
        tp::panic("span '%s' closed out of order",
                  id < spans_.size() ? spans_[id].name.c_str() : "?");
    openStack_.pop_back();
    spans_[id].end = now();
    return spans_[id].end - spans_[id].start;
}

double
SpanLog::total(const std::string &name) const
{
    double t = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            t += s.end - s.start;
    }
    return t;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    if (!openStack_.empty())
        tp::panic("trace written with span '%s' still open",
                  spans_[openStack_.back()].name.c_str());
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childTime[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    }
    std::ofstream out(path);
    if (!out)
        tp::fatal("cannot write trace file %s", path.c_str());
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = s.end - s.start;
        // Host time; one track per job, track 0 for the run itself.
        out << "{\"name\":" << tp::sim::jsonQuote(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.job + 1
            << ",\"ts\":" << numberText((s.start - origin_) * 1e6)
            << ",\"dur\":" << numberText(dur * 1e6)
            << ",\"args\":{\"parent\":" << s.parent
            << ",\"job\":" << s.job << ",\"self_us\":"
            << numberText((dur - childTime[i]) * 1e6) << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out.flush())
        tp::fatal("cannot write trace file %s", path.c_str());
}

SpanScope::SpanScope(SpanLog *log, const std::string &name,
                     std::int64_t job)
    : log_(log), start_(now())
{
    if (log_ != nullptr)
        id_ = log_->open(name, job);
}

SpanScope::~SpanScope()
{
    if (open_)
        close();
}

double
SpanScope::close()
{
    open_ = false;
    if (log_ != nullptr)
        return log_->close(id_);
    return now() - start_;
}

double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return double(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metrics::Entry &e : metrics.entries()) {
        out += first ? "" : ", ";
        first = false;
        out += tp::sim::jsonQuote(e.name) + ": {\"value\": " +
               numberText(e.value) +
               ", \"unit\": " + tp::sim::jsonQuote(e.unit) + "}";
    }
    out += "}}";
    return out;
}

} // namespace tpbench
