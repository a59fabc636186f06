#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/subprocess.hh"
#include "harness/batch_runner.hh"
#include "harness/dispatch.hh"
#include "harness/plan_shard.hh"
#include "harness/result_cache.hh"
#include "harness/result_sink.hh"
#include "layers.hh"
#include "sim/checkpoint.hh"
#include "sim/result_io.hh"
#include "workloads/workloads.hh"

namespace tpbench {

namespace {

namespace fs = std::filesystem;
using namespace tp;

/**
 * Host threads, or runner processes, a workload loads: the reference
 * machine has four cores, one left to this process and the system.
 */
constexpr std::size_t kLanes = 3;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 5;
/** Fewest measured passes per run, however long a pass takes. */
constexpr std::size_t kMinPasses = 2;
/** Instructions the isolation probes of a traced run replay. */
constexpr std::uint64_t kProbeBudget = 6'000'000;

/**
 * sampled-sweep and campaign: half the paper's instance counts keeps
 * a pass near 3 s, so a run repeats it; fast-forward and trace
 * generation still do most of the work (detail fraction ~2%).
 */
constexpr double kSweepScale = 0.5;
constexpr std::uint64_t kSweepPeriod = 250;
constexpr double kAdaptiveTarget = 0.01;
/**
 * paper-figure: the figure reproductions' reduced scale; quarter-length
 * tasks keep the cholesky reference, the critical path, near 2 s.
 */
constexpr double kFigureScale = 0.02;
constexpr double kFigureInstrScale = 0.25;
/**
 * checkpoint-slices: P=100 gives each long job tens of sample
 * boundaries (~270 MB of checkpoints over the five jobs).
 */
constexpr double kSliceScale = 0.125;
constexpr std::uint64_t kSlicePeriod = 100;

/** The simulated machine of every workload: high-perf, 8 cores. */
harness::RunSpec
machine()
{
    harness::RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 8;
    return spec;
}

/** Deterministic bytes of a result: everything but host wall time. */
std::string
fingerprint(sim::SimResult r)
{
    r.wallSeconds = 0.0;
    std::ostringstream os(std::ios::binary);
    sim::serializeResult(r, os);
    return os.str();
}

std::string
fingerprint(harness::SampledOutcome o)
{
    o.result.wallSeconds = 0.0;
    std::ostringstream os(std::ios::binary);
    sim::serializeSampledOutcome(o, os);
    return os.str();
}

std::string
fingerprint(const harness::BatchResult &r)
{
    std::string fp;
    if (r.reference)
        fp += "R" + fingerprint(*r.reference);
    if (r.sampled)
        fp += "S" + fingerprint(*r.sampled);
    return fp;
}

/** One measured pass. */
struct Pass
{
    double wall = 0.0;
    /** Instructions simulated, detailed plus fast-forwarded. */
    double simInsts = 0.0;
};

harness::BatchOptions
lanes()
{
    harness::BatchOptions o;
    o.jobs = kLanes;
    return o;
}

/** Run `plan` in-process; `wall` receives the host seconds. */
std::vector<harness::BatchResult>
runBatch(const harness::ExperimentPlan &plan,
         const harness::BatchOptions &options, double &wall,
         SpanLog *log, const char *span)
{
    harness::CollectingSink sink;
    SpanScope s(log, span);
    harness::BatchRunner(options).run(plan, sink);
    wall = s.close();
    return sink.take();
}

std::vector<double>
hostSeconds(const std::vector<harness::BatchResult> &results)
{
    std::vector<double> s;
    for (const harness::BatchResult &r : results)
        s.push_back(r.hostSeconds);
    return s;
}

/** Detailed share of the instructions of the sampled jobs. */
double
detailShare(const std::vector<harness::BatchResult> &results)
{
    double detailed = 0.0;
    double total = 0.0;
    for (const harness::BatchResult &r : results) {
        if (!r.sampled)
            continue;
        detailed += double(r.sampled->result.detailedInsts);
        total += double(r.sampled->result.detailedInsts) +
                 double(r.sampled->result.fastInsts);
    }
    return total > 0.0 ? detailed / total : 1.0;
}

/** A batch report's rows: columns 1-6 and the host seconds. */
struct CsvReport
{
    std::vector<std::string> rows;
    std::vector<double> hostSeconds;
};

CsvReport
parseCsv(std::istream &in)
{
    CsvReport report;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        // Labels here never hold commas, so a plain split is exact.
        std::vector<std::string> cells;
        std::stringstream ss(line);
        for (std::string cell; std::getline(ss, cell, ',');)
            cells.push_back(cell);
        if (cells.size() < 10)
            continue;
        std::string key;
        for (std::size_t c = 0; c < 6; ++c)
            key += cells[c] + ",";
        report.rows.push_back(key);
        report.hostSeconds.push_back(std::atof(cells[9].c_str()));
    }
    return report;
}

CsvReport
readCsv(const std::string &path)
{
    std::ifstream in(path);
    return parseCsv(in);
}

/** @return the last `max` bytes of a text file, for diagnostics. */
std::string
fileTail(const std::string &path, std::size_t max = 2000)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string s = ss.str();
    return s.size() > max ? s.substr(s.size() - max) : s;
}

/**
 * Run a command line to completion with its output in
 * `logBase`.out/.err; @return whether it exited 0.
 */
bool
runCommand(const std::vector<std::string> &argv,
           const std::string &logBase)
{
    SubprocessOptions so;
    so.stdoutPath = logBase + ".out";
    so.stderrPath = logBase + ".err";
    Subprocess child = Subprocess::spawn(argv, so);
    const ExitStatus st = child.wait();
    if (st.ok())
        return true;
    harness::progress(strprintf("%s failed (%s):\n%s", argv[0].c_str(),
                                st.describe().c_str(),
                                fileTail(so.stderrPath).c_str()));
    return false;
}

/** See the file comment of workloads.hh. */
class Workload
{
  public:
    explicit Workload(const RunOptions &opt) : opt_(opt) {}
    virtual ~Workload() = default;

    /** Build this run's inputs from the seed; timed as setup_s. */
    virtual void setup(SpanLog *log) = 0;

    /** One measured pass, checked against the first. */
    virtual Pass measure(Checker &check) = 0;

    /** Checks after the measured window, outside the timing. */
    virtual void finish(Checker &) {}

    /** Detailed share of the sampled jobs' instructions (1: none). */
    virtual double detailFraction() const = 0;

    /** One traced pass setting the workload's per-layer metrics. */
    virtual void traced(SpanLog &log, Checker &check, Metrics &m) = 0;

    /** The distinct input traces, valid after setup. */
    const std::vector<trace::TaskTrace> &traces() const
    {
        return traces_;
    }

    /** Digest of everything setup generated. */
    const std::string &inputDigest() const { return inputDigest_; }

  protected:
    /**
     * Digest every input trace, plus `extra` (a plan digest); the
     * last step of setup. One seed must always give the same inputs,
     * so every set-up of a run must reproduce it.
     */
    void
    digestInputs(SpanLog *log, const std::string &extra = "")
    {
        SpanScope s(log, "inputs.digest");
        std::string all = extra;
        for (const trace::TaskTrace &t : traces_)
            all += harness::traceDigest(t);
        inputDigest_ = hexDigest128(all);
    }

    /** Generate and validate one input trace. */
    void
    generate(const std::string &workload, const work::WorkloadParams &p,
             SpanLog *log, std::int64_t job)
    {
        {
            SpanScope s(log, "workloads.generate", job);
            traces_.push_back(work::generateWorkload(workload, p));
        }
        SpanScope s(log, "trace.validate", job);
        traces_.back().validate();
    }

    const RunOptions &opt_;
    const harness::RunSpec spec_ = machine();
    std::vector<trace::TaskTrace> traces_;

  private:
    std::string inputDigest_;
};

/**
 * detailed-core: the full-detailed engine on a memory-bound
 * (spmv), a compute-bound (dense matmul) and a coherence-heavy
 * (histogram) kernel, one after another on one host thread. Sampling,
 * the batch harness, the cache and checkpoints are bypassed.
 */
class DetailedCore final : public Workload
{
  public:
    using Workload::Workload;

    void
    setup(SpanLog *log) override
    {
        traces_.clear();
        for (std::size_t i = 0; i < std::size(kKernels); ++i) {
            work::WorkloadParams p;
            p.scale = kKernels[i].scale;
            p.instrScale = kKernels[i].instrScale;
            p.seed = harness::BatchRunner::jobSeed(opt_.seed, i);
            generate(kKernels[i].workload, p, log,
                     static_cast<std::int64_t>(i));
        }
        digestInputs(log);
    }

    Pass
    measure(Checker &check) override
    {
        Pass p;
        const double t0 = now();
        for (std::size_t i = 0; i < traces_.size(); ++i)
            p.simInsts += double(runKernel(i, nullptr, check).detailedInsts);
        p.wall = now() - t0;
        return p;
    }

    double detailFraction() const override { return 1.0; }

    void
    traced(SpanLog &log, Checker &check, Metrics &m) override
    {
        double plain = 0.0;
        double observed = 0.0;
        double insts = 0.0;
        std::vector<JobOutcome> jobs;
        for (std::size_t i = 0; i < traces_.size(); ++i) {
            const auto id = static_cast<std::int64_t>(i);
            // Untraced runs right before and after the observed one,
            // so the comparison sees the same host load and neither
            // side always runs second on a warm host.
            const auto untraced = [&] {
                SpanScope s(&log, "untraced_run", id);
                runKernel(i, nullptr, check);
                plain += s.close() / 2.0;
            };
            untraced();
            {
                SpanScope s(&log, "sim.runDetailed", id);
                PhaseClock clock(log, id);
                const sim::SimResult r = runKernel(i, &clock, check);
                observed += s.close();
                insts += double(r.detailedInsts);
                jobs.push_back({"detailed", r, {}, {}});
            }
            untraced();
        }
        setLayer(m, "sim.observer_overhead_pct",
                 100.0 * ratio(observed - plain, plain));
        simulatedLayers(jobs, m);
        engineLayers(log, insts, 0.0, m);
    }

  private:
    struct Kernel
    {
        const char *workload;
        double scale;
        double instrScale;
    };
    static constexpr Kernel kKernels[] = {
        {"sparse-matrix-vector-multiplication", 0.02, 0.5},
        {"dense-matrix-multiplication", 0.05, 1.0},
        {"histogram", 0.1, 1.0},
    };

    /** Kernel `i` once, checked against its trace and first run. */
    sim::SimResult
    runKernel(std::size_t i, sim::TraceObserver *observer,
              Checker &check)
    {
        const sim::SimResult r =
            harness::runDetailed(traces_[i], spec_, observer);
        const std::string fp = fingerprint(r);
        if (prints_.size() <= i)
            prints_.push_back(fp);
        check.job(r.detailedInsts == traces_[i].totalInstructions() &&
                      r.fastInsts == 0 && fp == prints_[i],
                  strprintf("%s differs from its trace or the first "
                            "pass",
                            kKernels[i].workload));
        return r;
    }

    std::vector<std::string> prints_;
};

/** A workload whose pass executes one ExperimentPlan. */
class PlanWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    setup(SpanLog *log) override
    {
        plan_ = buildPlan();
        traces_.clear();
        jobTrace_.clear();
        std::map<std::string, std::size_t> seen;
        for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
            const harness::JobSpec job = seeded(i);
            const work::WorkloadParams &p = job.workloadParams;
            const std::string key =
                strprintf("%s/%a/%a/%llu", job.workload.c_str(), p.scale,
                          p.instrScale,
                          static_cast<unsigned long long>(p.seed));
            const auto [it, fresh] = seen.emplace(key, traces_.size());
            if (fresh)
                generate(job.workload, p, log,
                         static_cast<std::int64_t>(i));
            jobTrace_.push_back(it->second);
        }
        digestInputs(log, harness::planDigest(plan_));
    }

  protected:
    virtual harness::ExperimentPlan buildPlan() const = 0;

    /** Job `i` with the plan's seed policy applied. */
    harness::JobSpec
    seeded(std::size_t i) const
    {
        harness::JobSpec job = plan_.jobs[i];
        if (plan_.deriveSeeds)
            harness::BatchRunner::applyDerivedSeed(job, plan_.baseSeed,
                                                   i);
        return job;
    }

    const trace::TaskTrace &
    jobTrace(std::size_t i) const
    {
        return traces_[jobTrace_[i]];
    }

    /** Instructions one execution of the plan simulates. */
    double
    planInsts() const
    {
        double n = 0.0;
        for (std::size_t i = 0; i < plan_.jobs.size(); ++i)
            n += double(jobTrace(i).totalInstructions());
        return n;
    }

    /**
     * Check one execution of the plan: every job produced the
     * outcomes its mode asks for, simulated exactly its trace's
     * instructions, and matches the first execution bit for bit.
     */
    void
    checkResults(const std::vector<harness::BatchResult> &results,
                 Checker &check, const char *pass)
    {
        if (results.size() != plan_.jobs.size()) {
            check.job(false, strprintf("%s: %zu results for %zu jobs",
                                       pass, results.size(),
                                       plan_.jobs.size()));
            return;
        }
        prints_.resize(plan_.jobs.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            const harness::BatchResult &r = results[i];
            const harness::BatchMode mode = plan_.jobs[i].mode;
            const InstCount insts = jobTrace(i).totalInstructions();
            bool ok = r.index == i &&
                      r.reference.has_value() ==
                          (mode != harness::BatchMode::Sampled) &&
                      r.sampled.has_value() ==
                          (mode != harness::BatchMode::Reference);
            if (ok && r.reference)
                ok = r.reference->detailedInsts == insts &&
                     r.reference->fastInsts == 0;
            if (ok && r.sampled)
                ok = r.sampled->result.detailedInsts +
                         r.sampled->result.fastInsts ==
                     insts;
            const std::string fp = fingerprint(r);
            if (prints_[i].empty())
                prints_[i] = fp;
            check.job(ok && fp == prints_[i],
                      strprintf("%s: job %zu (%s) differs from its "
                                "trace or the first pass",
                                pass, i, r.label.c_str()));
        }
    }

    /** JobOutcomes of an execution of the plan, for the layers. */
    std::vector<JobOutcome>
    outcomes(const std::vector<harness::BatchResult> &results) const
    {
        std::vector<JobOutcome> jobs;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const harness::BatchResult &r = results[i];
            if (r.reference)
                jobs.push_back({"detailed", *r.reference, {}, {}});
            if (r.sampled)
                jobs.push_back({policyName(plan_.jobs[i].sampling),
                                r.sampled->result, r.sampled, {}});
        }
        return jobs;
    }

    harness::ExperimentPlan plan_;
    /** Index into traces_ of each job's trace. */
    std::vector<std::size_t> jobTrace_;
    /** Each job's fingerprint in the first execution. */
    std::vector<std::string> prints_;
};

/** The 57-job plan of sampled-sweep and campaign. */
harness::ExperimentPlan
sweepPlan(std::uint64_t seed)
{
    harness::ExperimentPlan plan;
    plan.baseSeed = seed;
    plan.deriveSeeds = true;
    for (const work::WorkloadInfo &w : work::allWorkloads()) {
        for (const sampling::SamplingParams &params :
             {sampling::SamplingParams::lazy(),
              sampling::SamplingParams::periodic(kSweepPeriod),
              sampling::SamplingParams::adaptive(kAdaptiveTarget)}) {
            harness::JobSpec job;
            job.label = w.name + "/" + policyName(params);
            job.workload = w.name;
            job.workloadParams.scale = kSweepScale;
            job.spec = machine();
            job.sampling = params;
            job.mode = harness::BatchMode::Sampled;
            plan.jobs.push_back(job);
        }
    }
    return plan;
}

/**
 * sampled-sweep: the 57-job plan in-process, three threads. Sampling
 * control, fast-forward, engine scheduling and trace generation do the
 * work; the detailed hot path is a minor share.
 */
class SampledSweep final : public PlanWorkload
{
  public:
    using PlanWorkload::PlanWorkload;

    Pass
    measure(Checker &check) override
    {
        double wall = 0.0;
        const std::vector<harness::BatchResult> results =
            runBatch(plan_, lanes(), wall, nullptr, "");
        checkResults(results, check, "batch pass");
        detail_ = detailShare(results);
        return {wall, planInsts()};
    }

    double detailFraction() const override { return detail_; }

    void
    traced(SpanLog &log, Checker &check, Metrics &m) override
    {
        double wall = 0.0;
        const std::vector<harness::BatchResult> results =
            runBatch(plan_, lanes(), wall, &log, "harness.batch.run");
        checkResults(results, check, "batch pass");
        batchLayer(hostSeconds(results), wall, kLanes, m);

        // The same jobs again, serially, each under a PhaseClock.
        std::vector<JobOutcome> jobs;
        double detailed = 0.0;
        double fast = 0.0;
        for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
            const harness::JobSpec job = seeded(i);
            const auto id = static_cast<std::int64_t>(i);
            harness::SampledOutcome o;
            {
                SpanScope s(&log, "sim.runSampled", id);
                PhaseClock clock(log, id);
                o = harness::runSampled(jobTrace(i), job.spec,
                                        job.sampling, nullptr, &clock);
            }
            check.job(results.size() == plan_.jobs.size() &&
                          results[i].sampled &&
                          fingerprint(o) ==
                              fingerprint(*results[i].sampled),
                      strprintf("observed run of %s differs from the "
                                "batch pass",
                                job.label.c_str()));
            detailed += double(o.result.detailedInsts);
            fast += double(o.result.fastInsts);
            jobs.push_back(
                {policyName(job.sampling), o.result, o, {}});
        }
        simulatedLayers(jobs, m);
        engineLayers(log, detailed, fast, m);
    }

  protected:
    harness::ExperimentPlan
    buildPlan() const override
    {
        return sweepPlan(opt_.seed);
    }

  private:
    double detail_ = 1.0;
};

/**
 * campaign: the sampled-sweep plan, written to a plan file and run
 * through the command lines of both multi-process executors:
 * taskpoint_dispatch with three local runners, and replay_plan with
 * three workers. The simulation is sampled-sweep's, so what differs
 * is coordination: spawning, spool publish and claim, stream append
 * and tail, merging, and trace regeneration in every process.
 */
class Campaign final : public PlanWorkload
{
  public:
    using PlanWorkload::PlanWorkload;

    void
    setup(SpanLog *log) override
    {
        PlanWorkload::setup(log);
        SpanScope s(log, "harness.plan.serialize");
        harness::serializePlan(plan_, planPath());
    }

    Pass
    measure(Checker &check) override
    {
        // Alternate the order, so neither executor always runs on a
        // machine the other has just warmed.
        const bool dispatchFirst = passes_++ % 2 == 0;
        Pass p;
        for (const bool dispatch : {dispatchFirst, !dispatchFirst})
            p.wall += dispatch ? runDispatch(nullptr, check)
                               : runWorkers(nullptr, check);
        p.simInsts = 2.0 * planInsts();
        return p;
    }

    void
    finish(Checker &check) override
    {
        double wall = 0.0;
        const std::vector<harness::BatchResult> results =
            runBatch(plan_, lanes(), wall, nullptr, "");
        checkInProcess(results, check);
    }

    double detailFraction() const override { return detail_; }

    void
    traced(SpanLog &log, Checker &check, Metrics &m) override
    {
        const double dispatchWall = runDispatch(&log, check);
        const CsvReport dispatched = readCsv(csvPath("dispatch"));
        spoolLayer(m);
        const double workersWall = runWorkers(&log, check);
        double wall = 0.0;
        const std::vector<harness::BatchResult> results =
            runBatch(plan_, lanes(), wall, &log, "harness.batch.run");
        checkInProcess(results, check);

        setLayer(m, "harness.dispatch.wall_s", dispatchWall);
        setLayer(m, "harness.dispatch.overhead_s", dispatchWall - wall);
        setLayer(m, "harness.workers.wall_s", workersWall);
        setLayer(m, "harness.workers.overhead_s", workersWall - wall);
        // The runner fleet's busy share, from the report's job times.
        batchLayer(dispatched.hostSeconds, dispatchWall, kLanes, m);
        simulatedLayers(outcomes(results), m);
    }

  protected:
    harness::ExperimentPlan
    buildPlan() const override
    {
        return sweepPlan(opt_.seed);
    }

  private:
    std::string planPath() const
    {
        return opt_.workDir + "/campaign.tpplan";
    }
    std::string spoolDir() const { return opt_.workDir + "/spool"; }
    std::string
    csvPath(const char *executor) const
    {
        return opt_.workDir + "/" + executor + ".csv";
    }

    double
    runDispatch(SpanLog *log, Checker &check)
    {
        fs::remove_all(spoolDir());
        return runExecutor(
            log, "harness.dispatch.campaign", "dispatch",
            {opt_.binDir + "/taskpoint_dispatch", "--plan=" + planPath(),
             strprintf("--runners=%zu", kLanes), "--spool=" + spoolDir(),
             "--keep-spool", "--csv=" + csvPath("dispatch")},
            check);
    }

    double
    runWorkers(SpanLog *log, Checker &check)
    {
        return runExecutor(
            log, "harness.workers.campaign", "workers",
            {opt_.binDir + "/replay_plan", "--plan=" + planPath(),
             strprintf("--workers=%zu", kLanes),
             "--csv=" + csvPath("workers")},
            check);
    }

    /** Run one executor; check its report; @return its host s. */
    double
    runExecutor(SpanLog *log, const char *span, const char *executor,
                const std::vector<std::string> &argv, Checker &check)
    {
        fs::remove(csvPath(executor));
        SpanScope s(log, span);
        const bool ok =
            runCommand(argv, opt_.workDir + "/" + executor);
        const double wall = s.close();
        checkRows(readCsv(csvPath(executor)).rows, ok, executor, check);
        return wall;
    }

    /**
     * Check a report's deterministic columns row by row against the
     * first report of this run.
     */
    void
    checkRows(const std::vector<std::string> &rows, bool ran,
              const char *executor, Checker &check)
    {
        if (reference_.empty() && ran && rows.size() == plan_.jobs.size())
            reference_ = rows;
        for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
            check.job(ran && i < rows.size() &&
                          i < reference_.size() &&
                          rows[i] == reference_[i],
                      strprintf("%s: report row %zu (%s) differs",
                                executor, i,
                                plan_.jobs[i].label.c_str()));
        }
    }

    /** The in-process run of the plan must match every report. */
    void
    checkInProcess(const std::vector<harness::BatchResult> &results,
                   Checker &check)
    {
        checkResults(results, check, "in-process pass");
        detail_ = detailShare(results);
        std::stringstream csv;
        {
            harness::CsvSink sink(csv);
            sink.begin(results.size());
            for (harness::BatchResult r : results)
                sink.consume(std::move(r));
            sink.end();
        }
        checkRows(parseCsv(csv).rows, true, "in-process", check);
    }

    /** Spool layer of the last dispatch run, read from its files. */
    void
    spoolLayer(Metrics &m) const
    {
        double tasks = 0.0;
        double steals = 0.0;
        double bytes = 0.0;
        std::error_code ec;
        for (const fs::directory_entry &e : fs::directory_iterator(
                 harness::SpoolPaths(spoolDir()).results, ec)) {
            const std::optional<harness::DispatchTaskName> name =
                harness::parseTaskName(e.path().stem().string());
            if (!name)
                continue;
            tasks += 1.0;
            // A task of a later generation re-runs stolen work.
            steals += name->generation > 0;
            bytes += double(e.file_size(ec));
        }
        setLayer(m, "harness.dispatch.tasks", tasks);
        setLayer(m, "harness.dispatch.steal_tasks", steals);
        setLayer(m, "harness.dispatch.stream_bytes", bytes);
    }

    std::size_t passes_ = 0;
    std::vector<std::string> reference_;
    double detail_ = 1.0;
};

/**
 * paper-figure: what an architect runs to reproduce the
 * error-vs-speedup figures. Each of the 19 workloads gets a detailed
 * reference and lazy and adaptive sampled runs sharing one trace,
 * through a fresh result cache (cold, the timed pass), then again
 * from the warm cache. Detailed references are most of the work and
 * cholesky's is the critical path.
 */
class PaperFigure final : public PlanWorkload
{
  public:
    using PlanWorkload::PlanWorkload;

    Pass
    measure(Checker &check) override
    {
        double cold = 0.0;
        double warm = 0.0;
        const std::vector<harness::BatchResult> results =
            coldThenWarm(nullptr, check, cold, warm);
        detail_ = detailShare(results);
        return {cold, planInsts()};
    }

    double detailFraction() const override { return detail_; }

    void
    traced(SpanLog &log, Checker &check, Metrics &m) override
    {
        double cold = 0.0;
        double warm = 0.0;
        const std::vector<harness::BatchResult> results =
            coldThenWarm(&log, check, cold, warm);
        batchLayer(hostSeconds(results), cold, kLanes, m);
        setLayer(m, "harness.cache.warm_rerun_s", warm);
        setLayer(m, "harness.cache.warm_hit_frac", warmHitFrac_);

        // Serially again, calling the cache layer directly.
        fs::remove_all(cacheDir());
        std::vector<JobOutcome> jobs;
        double detailed = 0.0;
        double fast = 0.0;
        {
            harness::ResultCache cache(cacheOptions());
            std::vector<std::string> digests;
            for (const trace::TaskTrace &t : traces_) {
                SpanScope s(&log, "harness.cache.traceDigest");
                digests.push_back(harness::traceDigest(t));
            }
            for (const bool warmPass : {false, true}) {
                for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
                    JobOutcome o = cachedJob(log, cache,
                                             digests[jobTrace_[i]], i,
                                             warmPass, check);
                    if (warmPass)
                        continue;
                    detailed += double(o.result.detailedInsts);
                    fast += double(o.result.fastInsts);
                    jobs.push_back(std::move(o));
                }
            }
            setLayer(m, "harness.cache.bytes",
                     directoryBytes(cacheDir()));
        }
        setLayer(m, "harness.cache.digest_s",
                 log.total("harness.cache.traceDigest") +
                     log.total("harness.cache.key"));
        setLayer(m, "harness.cache.lookup_s",
                 log.total("harness.cache.lookup"));
        setLayer(m, "harness.cache.store_s",
                 log.total("harness.cache.store"));

        // Pair each sampled run with its workload's reference; jobs
        // holds the cold pass in plan order.
        const JobOutcome *reference = nullptr;
        std::map<std::string, std::size_t> worst;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            JobOutcome &j = jobs[i];
            if (j.policy == "detailed") {
                reference = &j;
                continue;
            }
            j.vsReference =
                harness::compare(reference->result, j.result);
            const auto [it, fresh] = worst.emplace(j.policy, i);
            if (!fresh && j.vsReference->errorPct >
                              jobs[it->second].vsReference->errorPct)
                it->second = i;
        }
        for (const auto &[policy, i] : worst)
            harness::progress(strprintf(
                "largest %s error %.2f%% (%s)", policy.c_str(),
                jobs[i].vsReference->errorPct,
                plan_.jobs[i].label.c_str()));
        simulatedLayers(jobs, m);
        engineLayers(log, detailed, fast, m);
    }

  protected:
    harness::ExperimentPlan
    buildPlan() const override
    {
        harness::ExperimentPlan plan;
        plan.baseSeed = opt_.seed;
        // One trace per workload, shared by its three jobs.
        plan.deriveSeeds = false;
        const std::vector<work::WorkloadInfo> &all = work::allWorkloads();
        // The longest references go first, as a figure reproduction should
        // schedule them, so the pass ends with short jobs draining
        // instead of one long reference starting late.
        std::vector<std::size_t> order;
        for (const char *first :
             {"cholesky", "checkSparseLU",
              "sparse-matrix-vector-multiplication"}) {
            for (std::size_t w = 0; w < all.size(); ++w) {
                if (all[w].name == first)
                    order.push_back(w);
            }
        }
        for (std::size_t w = 0; w < all.size(); ++w) {
            if (std::find(order.begin(), order.end(), w) == order.end())
                order.push_back(w);
        }
        for (const std::size_t w : order) {
            harness::JobSpec job;
            job.workload = all[w].name;
            job.workloadParams.scale = kFigureScale;
            job.workloadParams.instrScale = kFigureInstrScale;
            job.workloadParams.seed =
                harness::BatchRunner::jobSeed(opt_.seed, w);
            job.spec = machine();
            job.label = all[w].name + "/detailed";
            job.mode = harness::BatchMode::Reference;
            plan.jobs.push_back(job);
            job.mode = harness::BatchMode::Sampled;
            for (const sampling::SamplingParams &params :
                 {sampling::SamplingParams::lazy(),
                  sampling::SamplingParams::adaptive(kAdaptiveTarget)}) {
                job.sampling = params;
                job.label = all[w].name + "/" + policyName(params);
                plan.jobs.push_back(job);
            }
        }
        return plan;
    }

  private:
    std::string cacheDir() const { return opt_.workDir + "/cache"; }

    harness::ResultCacheOptions
    cacheOptions() const
    {
        harness::ResultCacheOptions o;
        o.dir = cacheDir();
        return o;
    }

    /**
     * The plan through BatchRunner on a fresh cache, then again on
     * the warm cache, which must serve every job unchanged.
     * @return the cold results
     */
    std::vector<harness::BatchResult>
    coldThenWarm(SpanLog *log, Checker &check, double &cold,
                 double &warm)
    {
        fs::remove_all(cacheDir());
        harness::BatchOptions o = lanes();
        std::vector<harness::BatchResult> results;
        {
            harness::ResultCache cache(cacheOptions());
            o.cache = &cache;
            results = runBatch(plan_, o, cold, log, "harness.batch.run");
        }
        checkResults(results, check, "cold pass");
        harness::ResultCache cache(cacheOptions());
        o.cache = &cache;
        const std::vector<harness::BatchResult> again =
            runBatch(plan_, o, warm, log, "harness.batch.warm_run");
        double hits = 0.0;
        for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
            const bool hit =
                i < again.size() &&
                (plan_.jobs[i].mode == harness::BatchMode::Reference
                     ? again[i].referenceFromCache
                     : again[i].sampledFromCache);
            hits += hit;
            check.job(hit && i < results.size() &&
                          fingerprint(again[i]) ==
                              fingerprint(results[i]),
                      strprintf("warm rerun of job %zu (%s) missed "
                                "the cache or differs",
                                i, plan_.jobs[i].label.c_str()));
        }
        warmHitFrac_ = ratio(hits, double(plan_.jobs.size()));
        return results;
    }

    /**
     * One job through the cache layer's public calls: key, lookup
     * and, on a miss, simulate and store. The warm pass must hit.
     */
    JobOutcome
    cachedJob(SpanLog &log, harness::ResultCache &cache,
              const std::string &digest, std::size_t i, bool warmPass,
              Checker &check)
    {
        const harness::JobSpec &job = plan_.jobs[i];
        const trace::TaskTrace &trace = jobTrace(i);
        const auto id = static_cast<std::int64_t>(i);
        SpanScope js(&log, warmPass ? "harness.job.warm"
                                    : "harness.job.cold",
                     id);
        const bool reference = job.mode == harness::BatchMode::Reference;
        std::string key;
        {
            SpanScope s(&log, "harness.cache.key");
            key = reference ? harness::resultCacheKey(digest, job.spec)
                            : harness::sampledCacheKey(digest, job.spec,
                                                       job.sampling);
        }
        JobOutcome out;
        out.policy = reference ? "detailed" : policyName(job.sampling);
        bool hit = false;
        if (reference) {
            std::optional<sim::SimResult> r;
            {
                SpanScope s(&log, "harness.cache.lookup");
                r = cache.lookup(key);
            }
            hit = r.has_value();
            if (!r) {
                {
                    SpanScope s(&log, "sim.runDetailed");
                    PhaseClock clock(log, id);
                    r = harness::runDetailed(trace, job.spec, &clock);
                }
                SpanScope s(&log, "harness.cache.store");
                cache.store(key, *r);
            }
            out.result = *r;
        } else {
            std::optional<harness::SampledOutcome> o;
            {
                SpanScope s(&log, "harness.cache.lookup");
                o = cache.lookupSampled(key);
            }
            hit = o.has_value();
            if (!o) {
                {
                    SpanScope s(&log, "sim.runSampled");
                    PhaseClock clock(log, id);
                    o = harness::runSampled(trace, job.spec,
                                            job.sampling, nullptr,
                                            &clock);
                }
                SpanScope s(&log, "harness.cache.store");
                cache.storeSampled(key, *o);
            }
            out.result = o->result;
            out.sampled = std::move(o);
        }
        const std::string fp = out.sampled ? "S" + fingerprint(*out.sampled)
                                           : "R" + fingerprint(out.result);
        const bool same = i < prints_.size() && fp == prints_[i];
        check.job(same && hit == warmPass,
                  strprintf("%s cache-layer run of job %zu (%s) "
                            "differs from the batch pass",
                            warmPass ? "warm" : "cold", i,
                            job.label.c_str()));
        return out;
    }

    double detail_ = 1.0;
    double warmHitFrac_ = 0.0;
};

/**
 * checkpoint-slices: five long sampled jobs with periodic
 * resampling record a warm-state checkpoint at every sample boundary
 * into a fresh store, then run again as per-interval slices restored
 * from it. Only here do checkpoint serialization, blob I/O and slice
 * expansion and merging do the work.
 */
class CheckpointSlices final : public PlanWorkload
{
  public:
    using PlanWorkload::PlanWorkload;

    Pass
    measure(Checker &check) override
    {
        double record = 0.0;
        double slice = 0.0;
        recordThenSlice(nullptr, check, record, slice);
        return {record + slice, 2.0 * planInsts()};
    }

    double detailFraction() const override { return detail_; }

    void
    traced(SpanLog &log, Checker &check, Metrics &m) override
    {
        double record = 0.0;
        double slice = 0.0;
        const std::vector<harness::BatchResult> sliced =
            recordThenSlice(&log, check, record, slice);
        setLayer(m, "harness.checkpoint.record_s", record);
        setLayer(m, "harness.checkpoint.slice_s", slice);
        setLayer(m, "harness.checkpoint.mb", storeBytes_ / 1e6);
        batchLayer(hostSeconds(sliced), slice, kLanes, m);

        // Serially again, with the benchmark's own checkpoint hooks.
        fs::remove_all(storeDir());
        const std::unique_ptr<harness::ResultCache> store =
            harness::openCheckpointDir(storeDir());
        const std::string memory =
            harness::memoryConfigDigest(spec_.arch.memory);
        std::vector<JobOutcome> jobs;
        double detailed = 0.0;
        double fast = 0.0;
        double bytes = 0.0;
        double boundaries = 0.0;
        for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
            const harness::JobSpec job = seeded(i);
            const std::string digest = harness::checkpointJobDigest(job);
            const auto id = static_cast<std::int64_t>(i);
            std::uint64_t last = 0;
            harness::SampledOutcome o;
            {
                SpanScope s(&log, "sim.runSampled", id);
                PhaseClock clock(log, id, false, true);
                sim::CheckpointHooks hooks;
                hooks.record = [&](sim::Checkpoint &&cp) {
                    clock.captured();
                    std::string blob;
                    {
                        SpanScope ss(&log, "sim.checkpoint.serialize");
                        blob = sim::serializeCheckpoint(cp);
                    }
                    SpanScope ss(&log, "harness.checkpoint.storeBlob");
                    store->storeBlob(harness::checkpointBlobKey(
                                         memory, digest, cp.boundary),
                                     blob);
                    last = cp.boundary;
                    bytes += double(blob.size());
                    boundaries += 1.0;
                };
                o = harness::runSampled(jobTrace(i), job.spec,
                                        job.sampling, &hooks, &clock);
            }
            {
                SpanScope s(&log, "harness.checkpoint.storeBlob", id);
                store->storeBlob(
                    harness::checkpointManifestKey(memory, digest),
                    harness::serializeCheckpointManifest(last));
            }
            check.job(i < prints_.size() &&
                          "S" + fingerprint(o) == prints_[i],
                      strprintf("hooked recording of %s differs from "
                                "the batch pass",
                                job.label.c_str()));
            detailed += double(o.result.detailedInsts);
            fast += double(o.result.fastInsts);
            jobs.push_back({policyName(job.sampling), o.result, o, {}});
        }

        harness::CheckpointExpansion ex;
        {
            SpanScope s(&log, "harness.plan_shard.expand");
            ex = harness::expandCheckpointSlices(plan_, *store, kLanes);
        }
        runSlices(log, *store, memory, ex, check);
        double slices = 0.0;
        for (const harness::JobSpec &job : ex.plan.jobs)
            slices += job.isSlice();
        setLayer(m, "harness.checkpoint.slices", slices);

        setLayer(m, "sim.checkpoint.serialize_s",
                 log.total("sim.checkpoint.capture") +
                     log.total("sim.checkpoint.serialize"));
        setLayer(m, "sim.checkpoint.deserialize_s",
                 log.total("sim.restore") +
                     log.total("sim.checkpoint.deserialize"));
        setLayer(m, "sim.checkpoint.bytes_per_boundary",
                 ratio(bytes, boundaries) / 1e6);
        setLayer(m, "harness.checkpoint.store_s",
                 log.total("harness.checkpoint.storeBlob"));
        setLayer(m, "harness.checkpoint.load_s",
                 log.total("harness.checkpoint.loadBlob"));
        setLayer(m, "harness.plan_shard.expand_s",
                 log.total("harness.plan_shard.expand"));
        simulatedLayers(jobs, m);
        // The slices simulate the recorded runs' instructions again.
        engineLayers(log, 2.0 * detailed, 2.0 * fast, m);
    }

  protected:
    harness::ExperimentPlan
    buildPlan() const override
    {
        harness::ExperimentPlan plan;
        plan.baseSeed = opt_.seed;
        plan.deriveSeeds = true;
        for (const char *w :
             {"sparse-matrix-vector-multiplication", "cholesky",
              "checkSparseLU", "n-body", "kmeans"}) {
            harness::JobSpec job;
            job.label = w;
            job.workload = w;
            job.workloadParams.scale = kSliceScale;
            job.spec = machine();
            job.sampling = sampling::SamplingParams::periodic(kSlicePeriod);
            job.mode = harness::BatchMode::Sampled;
            plan.jobs.push_back(job);
        }
        return plan;
    }

  private:
    std::string storeDir() const
    {
        return opt_.workDir + "/checkpoints";
    }

    /**
     * The plan through BatchRunner recording into a fresh store, then
     * again restoring slices from it; both must match the first
     * recording, and the second must really have been sliced.
     * @return the slice pass's results
     */
    std::vector<harness::BatchResult>
    recordThenSlice(SpanLog *log, Checker &check, double &record,
                    double &slice)
    {
        fs::remove_all(storeDir());
        harness::BatchOptions o = lanes();
        std::vector<harness::BatchResult> recorded;
        {
            const std::unique_ptr<harness::ResultCache> store =
                harness::openCheckpointDir(storeDir());
            o.checkpoints = store.get();
            recorded = runBatch(plan_, o, record, log,
                                "harness.batch.record_run");
        }
        checkResults(recorded, check, "recording pass");
        detail_ = detailShare(recorded);
        storeBytes_ = directoryBytes(storeDir());

        const std::unique_ptr<harness::ResultCache> store =
            harness::openCheckpointDir(storeDir());
        o.checkpoints = store.get();
        std::vector<harness::BatchResult> sliced =
            runBatch(plan_, o, slice, log, "harness.batch.slice_run");
        checkResults(sliced, check, "slice pass");
        check.job(harness::expandCheckpointSlices(plan_, *store, kLanes)
                      .expanded,
                  "the slice pass found no recorded checkpoints");
        return sliced;
    }

    /**
     * Run the slices of `ex` serially, restoring each from `store`,
     * merge them with SliceMergingSink and check the merged outcomes
     * against the recordings.
     */
    void
    runSlices(SpanLog &log, harness::ResultCache &store,
              const std::string &memory,
              const harness::CheckpointExpansion &ex, Checker &check)
    {
        harness::CollectingSink merged;
        harness::SliceMergingSink merging(merged, ex.groups);
        merging.begin(ex.plan.jobs.size());
        std::size_t k = 0;
        for (const harness::SliceGroup &g : ex.groups) {
            const auto id = static_cast<std::int64_t>(g.origIndex);
            for (std::uint32_t c = 0; c < g.count; ++c, ++k) {
                const harness::JobSpec &job = ex.plan.jobs[k];
                sim::Checkpoint cp;
                sim::CheckpointHooks hooks;
                hooks.stopBoundary = job.stopBoundary;
                SpanScope s(&log, "sim.runSlice", id);
                if (job.isSlice() && job.startBoundary > 0) {
                    const std::string key = harness::checkpointBlobKey(
                        memory, harness::checkpointJobDigest(job),
                        job.startBoundary);
                    std::optional<std::string> blob;
                    {
                        SpanScope ss(&log,
                                     "harness.checkpoint.loadBlob");
                        blob = store.loadBlob(key);
                    }
                    check.job(blob.has_value(),
                              strprintf("checkpoint %llu of %s is "
                                        "missing",
                                        static_cast<unsigned long long>(
                                            job.startBoundary),
                                        job.label.c_str()));
                    if (blob) {
                        SpanScope ss(&log, "sim.checkpoint.deserialize");
                        cp = sim::deserializeCheckpoint(*blob, key);
                        hooks.restore = &cp;
                    }
                }
                PhaseClock clock(log, id, hooks.restore != nullptr);
                harness::BatchResult r;
                r.index = k;
                r.label = job.label;
                r.sampled = harness::runSampled(
                    jobTrace(g.origIndex), job.spec, job.sampling,
                    job.isSlice() ? &hooks : nullptr, &clock);
                merging.consume(std::move(r));
            }
        }
        merging.end();
        for (const harness::BatchResult &r : merged.results()) {
            check.job(r.index < prints_.size() &&
                          fingerprint(r) == prints_[r.index],
                      strprintf("merged slices of %s differ from the "
                                "recording",
                                r.label.c_str()));
        }
    }

    double detail_ = 1.0;
    double storeBytes_ = 0.0;
};

std::unique_ptr<Workload>
makeWorkload(const RunOptions &opt)
{
    if (opt.workload == "detailed-core")
        return std::make_unique<DetailedCore>(opt);
    if (opt.workload == "sampled-sweep")
        return std::make_unique<SampledSweep>(opt);
    if (opt.workload == "campaign")
        return std::make_unique<Campaign>(opt);
    if (opt.workload == "paper-figure")
        return std::make_unique<PaperFigure>(opt);
    if (opt.workload == "checkpoint-slices")
        return std::make_unique<CheckpointSlices>(opt);
    fatal("unknown workload '%s'", opt.workload.c_str());
}

void
report(const char *metric, const std::vector<double> &xs,
       const char *unit)
{
    const Summary s = summarize(xs);
    harness::progress(strprintf("%s: median %.6g %s [q1 %.6g, q3 %.6g] "
                                "n=%zu",
                                metric, s.median, unit, s.q1, s.q3, s.n));
}

/** Set up several times, then repeat the pass for opt.seconds. */
void
runMeasured(Workload &w, const RunOptions &opt, Checker &check,
            Metrics &m)
{
    std::vector<double> setups;
    std::string inputs;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const double t0 = now();
        w.setup(nullptr);
        setups.push_back(now() - t0);
        if (k == 0)
            inputs = w.inputDigest();
        else
            check.job(w.inputDigest() == inputs,
                      "set-ups generated different inputs from one "
                      "seed");
    }
    harness::progress("inputs " + inputs);
    std::vector<double> walls;
    std::vector<double> mips;
    const double start = now();
    for (;;) {
        const Pass p = w.measure(check);
        walls.push_back(p.wall);
        mips.push_back(p.simInsts / p.wall / 1e6);
        harness::progress(strprintf("%s pass %zu: %.3f s",
                                    opt.workload.c_str(), walls.size(),
                                    p.wall));
        // Stop before a pass of typical length would overrun.
        if (walls.size() >= kMinPasses &&
            now() - start + summarize(walls).median > opt.seconds)
            break;
    }
    w.finish(check);

    report("wall_s", walls, "s");
    report("setup_s", setups, "s");
    report("sim_mips", mips, "Minst/s");
    m.set("wall_s", summarize(walls).median, "s");
    m.set("setup_s", summarize(setups).median, "s");
    m.set("sim_mips", summarize(mips).median, "Minst/s");
    m.set("detail_fraction", w.detailFraction(), "ratio");
    m.set("peak_rss_mb", peakRssMb(), "MB");
}

/** One traced pass; every per-layer metric, 0 where bypassed. */
void
runTraced(Workload &w, const RunOptions &opt, Checker &check, Metrics &m)
{
    for (const LayerMetric &l : layerMetrics())
        m.set(l.name, 0.0, l.unit);
    SpanLog log;
    {
        SpanScope s(&log, "setup");
        w.setup(&log);
    }
    harness::progress("inputs " + w.inputDigest());
    setLayer(m, "workloads.generate_s", log.total("workloads.generate"));
    double tasks = 0.0;
    for (const trace::TaskTrace &t : w.traces())
        tasks += double(t.size());
    setLayer(m, "workloads.tasks", tasks);
    {
        SpanScope s(&log, "probe.hot_path");
        probeHotPath(w.traces(), machine().arch, kProbeBudget, log, m);
    }
    w.traced(log, check, m);
    if (!opt.traceOut.empty())
        log.writeChromeTrace(opt.traceOut);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "detailed-core", "sampled-sweep", "campaign", "paper-figure",
        "checkpoint-slices"};
    return names;
}

void
runWorkload(const RunOptions &opt, Checker &check, Metrics &metrics)
{
    const std::unique_ptr<Workload> w = makeWorkload(opt);
    if (opt.traced)
        runTraced(*w, opt, check, metrics);
    else
        runMeasured(*w, opt, check, metrics);
}

} // namespace tpbench
