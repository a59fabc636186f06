/**
 * @file
 * Trace-observer battery (`ctest -L trace`): the Chrome trace-event
 * writer's exact JSON, the no-perturbation contract of attaching an
 * observer, JobTimeline (de)serialization including the BatchResult
 * wire format, per-core timeline statistics and the report sinks.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/binary_io.hh"
#include "harness/batch_runner.hh"
#include "harness/experiment.hh"
#include "harness/result_sink.hh"
#include "harness/trace_report.hh"
#include "sampling/taskpoint.hh"
#include "sim/trace_observer.hh"
#include "workloads/workloads.hh"

using namespace tp;

namespace {

work::WorkloadParams
smallParams()
{
    work::WorkloadParams wp;
    wp.scale = 0.02;
    wp.seed = 42;
    return wp;
}

harness::RunSpec
smallSpec()
{
    harness::RunSpec spec;
    spec.arch = cpu::highPerformanceConfig();
    spec.threads = 4;
    return spec;
}

/** A tiny handcrafted timeline with every feature populated. */
sim::JobTimeline
sampleTimeline()
{
    sim::JobTimeline t;
    t.cores = 2;
    t.totalCycles = 100;
    t.typeNames = {"init", "work \"quoted\""};
    t.tasks.push_back({/*id=*/7, /*type=*/0, /*core=*/0,
                       /*scheduled=*/0, /*start=*/5, /*end=*/30,
                       /*insts=*/1000,
                       static_cast<std::uint8_t>(sim::SimMode::Detailed),
                       /*ipc=*/1.5, /*readyAfter=*/3});
    t.tasks.push_back({/*id=*/8, /*type=*/1, /*core=*/1,
                       /*scheduled=*/10, /*start=*/20, /*end=*/90,
                       /*insts=*/4000,
                       static_cast<std::uint8_t>(sim::SimMode::Fast),
                       /*ipc=*/2.0, /*readyAfter=*/0});
    t.phases.push_back({0, sim::kWarmupPhase});
    t.phases.push_back({25, sim::kSamplingPhase});
    t.phases.push_back({60, sim::kFastForwardPhase});
    sim::TimelineSample s;
    s.boundary = 1;
    s.at = 60;
    s.l1Misses = 11;
    s.l2Misses = 5;
    s.l3Misses = 2;
    s.dramRequests = 9;
    s.coherenceInvalidations = 1;
    t.samples.push_back(s);
    return t;
}

bool
timelinesEqual(const sim::JobTimeline &a, const sim::JobTimeline &b)
{
    if (a.cores != b.cores || a.totalCycles != b.totalCycles ||
        a.typeNames != b.typeNames ||
        a.tasks.size() != b.tasks.size() ||
        a.phases.size() != b.phases.size() ||
        a.samples.size() != b.samples.size())
        return false;
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        const sim::TimelineTask &x = a.tasks[i];
        const sim::TimelineTask &y = b.tasks[i];
        if (x.id != y.id || x.type != y.type || x.core != y.core ||
            x.scheduled != y.scheduled || x.start != y.start ||
            x.end != y.end || x.insts != y.insts ||
            x.mode != y.mode || x.ipc != y.ipc ||
            x.readyAfter != y.readyAfter)
            return false;
    }
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        if (a.phases[i].at != b.phases[i].at ||
            a.phases[i].phase != b.phases[i].phase)
            return false;
    }
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        const sim::TimelineSample &x = a.samples[i];
        const sim::TimelineSample &y = b.samples[i];
        if (x.boundary != y.boundary || x.at != y.at ||
            x.l1Misses != y.l1Misses || x.l2Misses != y.l2Misses ||
            x.l3Misses != y.l3Misses ||
            x.dramRequests != y.dramRequests ||
            x.coherenceInvalidations != y.coherenceInvalidations)
            return false;
    }
    return true;
}

} // namespace

TEST(JsonQuote, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(sim::jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(sim::jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(sim::jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(sim::jsonQuote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
    EXPECT_EQ(sim::jsonQuote(std::string("x\x01y", 3)),
              "\"x\\u0001y\"");
}

TEST(ChromeTraceStream, ExactDocument)
{
    std::ostringstream out;
    sim::ChromeTraceStream stream(out);
    stream.metadata(1, 0, "process_name", "job 0");
    stream.sortIndex(1, 2, 5);
    stream.complete(1, 0, "work", "detailed", 10, 20, "\"id\":7");
    stream.complete(1, 1, "idle", "fast", 0, 0, "");
    stream.counter(1, "mem", 30, "\"l1\":4");
    stream.close();

    EXPECT_EQ(out.str(),
              "{\"traceEvents\":[\n"
              "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
              "\"name\":\"process_name\","
              "\"args\":{\"name\":\"job 0\"}},\n"
              "{\"ph\":\"M\",\"pid\":1,\"tid\":2,"
              "\"name\":\"thread_sort_index\","
              "\"args\":{\"sort_index\":5}},\n"
              "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"work\","
              "\"cat\":\"detailed\",\"ts\":10,\"dur\":20,"
              "\"args\":{\"id\":7}},\n"
              "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"idle\","
              "\"cat\":\"fast\",\"ts\":0,\"dur\":0},\n"
              "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"mem\","
              "\"ts\":30,\"args\":{\"l1\":4}}\n"
              "]}\n");
}

TEST(ChromeTraceStream, EmptyDocumentAndDoubleClose)
{
    std::ostringstream out;
    sim::ChromeTraceStream stream(out);
    stream.close();
    stream.close(); // idempotent
    EXPECT_EQ(out.str(), "{\"traceEvents\":[\n]}\n");
}

TEST(EmitTimelineEvents, ExactJson)
{
    std::ostringstream out;
    {
        sim::ChromeTraceStream stream(out);
        sim::emitTimelineEvents(stream, 3, "job 3: demo",
                                sampleTimeline());
    } // destructor closes

    EXPECT_EQ(
        out.str(),
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"job 3: demo\"}},\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"core 0\"}},\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,"
        "\"name\":\"thread_sort_index\","
        "\"args\":{\"sort_index\":0}},\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"core 1\"}},\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":1,"
        "\"name\":\"thread_sort_index\","
        "\"args\":{\"sort_index\":1}},\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":2,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"sampling phase\"}},\n"
        "{\"ph\":\"M\",\"pid\":3,\"tid\":2,"
        "\"name\":\"thread_sort_index\","
        "\"args\":{\"sort_index\":2}},\n"
        "{\"ph\":\"X\",\"pid\":3,\"tid\":2,\"name\":\"warmup\","
        "\"cat\":\"phase\",\"ts\":0,\"dur\":25},\n"
        "{\"ph\":\"X\",\"pid\":3,\"tid\":2,\"name\":\"sampling\","
        "\"cat\":\"phase\",\"ts\":25,\"dur\":35},\n"
        "{\"ph\":\"X\",\"pid\":3,\"tid\":2,\"name\":\"fast-forward\","
        "\"cat\":\"phase\",\"ts\":60,\"dur\":40},\n"
        "{\"ph\":\"X\",\"pid\":3,\"tid\":0,\"name\":\"init\","
        "\"cat\":\"detailed\",\"ts\":5,\"dur\":25,"
        "\"args\":{\"id\":7,\"insts\":1000,\"ipc\":1.5,"
        "\"scheduled\":0,\"ready_after\":3}},\n"
        "{\"ph\":\"X\",\"pid\":3,\"tid\":1,"
        "\"name\":\"work \\\"quoted\\\"\","
        "\"cat\":\"fast\",\"ts\":20,\"dur\":70,"
        "\"args\":{\"id\":8,\"insts\":4000,\"ipc\":2,"
        "\"scheduled\":10,\"ready_after\":0}},\n"
        "{\"ph\":\"C\",\"pid\":3,\"tid\":0,"
        "\"name\":\"mem (cumulative)\",\"ts\":60,"
        "\"args\":{\"l1_misses\":11,\"l2_misses\":5,"
        "\"l3_misses\":2,\"dram\":9,\"coh_inval\":1}}\n"
        "]}\n");
}

TEST(TraceObserver, AttachingObserversDoesNotPerturbRuns)
{
    const trace::TaskTrace trace =
        work::generateWorkload("histogram", smallParams());
    const harness::RunSpec spec = smallSpec();
    const sampling::SamplingParams params =
        sampling::SamplingParams::lazy();

    const sim::SimResult bareDet = harness::runDetailed(trace, spec);
    sim::NullTraceObserver null;
    const sim::SimResult nullDet =
        harness::runDetailed(trace, spec, &null);
    sim::TimelineRecorder recDet;
    const sim::SimResult recordedDet =
        harness::runDetailed(trace, spec, &recDet);

    for (const sim::SimResult *r : {&nullDet, &recordedDet}) {
        EXPECT_EQ(r->totalCycles, bareDet.totalCycles);
        EXPECT_EQ(r->detailedTasks, bareDet.detailedTasks);
        EXPECT_EQ(r->detailedInsts, bareDet.detailedInsts);
        EXPECT_EQ(r->memStats.l1.misses, bareDet.memStats.l1.misses);
    }

    const harness::SampledOutcome bareSam =
        harness::runSampled(trace, spec, params);
    sim::TimelineRecorder recSam;
    const harness::SampledOutcome recordedSam =
        harness::runSampled(trace, spec, params, nullptr, &recSam);
    EXPECT_EQ(recordedSam.result.totalCycles,
              bareSam.result.totalCycles);
    EXPECT_EQ(recordedSam.result.detailedTasks,
              bareSam.result.detailedTasks);
    EXPECT_EQ(recordedSam.result.fastTasks, bareSam.result.fastTasks);
    EXPECT_EQ(recordedSam.result.detailedInsts,
              bareSam.result.detailedInsts);
    EXPECT_EQ(recordedSam.result.fastInsts, bareSam.result.fastInsts);
}

TEST(TraceObserver, RecorderCapturesWholeRun)
{
    const trace::TaskTrace trace =
        work::generateWorkload("histogram", smallParams());
    const harness::RunSpec spec = smallSpec();

    sim::TimelineRecorder det;
    const sim::SimResult detRes =
        harness::runDetailed(trace, spec, &det);
    const sim::JobTimeline &dt = det.timeline();
    EXPECT_EQ(dt.cores, spec.threads);
    EXPECT_EQ(dt.totalCycles, detRes.totalCycles);
    EXPECT_EQ(dt.tasks.size(),
              detRes.detailedTasks + detRes.fastTasks);
    // A reference run has no phase structure: exactly one
    // detailed-only phase from cycle 0, and no sample boundaries.
    ASSERT_EQ(dt.phases.size(), 1u);
    EXPECT_EQ(dt.phases[0].at, 0u);
    EXPECT_EQ(dt.phases[0].phase, sim::kDetailedOnlyPhase);
    EXPECT_TRUE(dt.samples.empty());
    for (const sim::TimelineTask &task : dt.tasks) {
        EXPECT_LT(task.core, dt.cores);
        EXPECT_LE(task.scheduled, task.start);
        EXPECT_LE(task.start, task.end);
        EXPECT_LE(task.end, dt.totalCycles);
        EXPECT_EQ(task.mode,
                  static_cast<std::uint8_t>(sim::SimMode::Detailed));
    }

    sim::TimelineRecorder sam;
    const harness::SampledOutcome samRes = harness::runSampled(
        trace, spec, sampling::SamplingParams::lazy(), nullptr, &sam);
    const sim::JobTimeline &st = sam.timeline();
    EXPECT_EQ(st.totalCycles, samRes.result.totalCycles);
    EXPECT_EQ(st.tasks.size(),
              samRes.result.detailedTasks + samRes.result.fastTasks);
    // A sampled run starts in warmup and must reach fast-forward at
    // least once (that transition defines a sample boundary).
    ASSERT_FALSE(st.phases.empty());
    EXPECT_EQ(st.phases[0].phase, sim::kWarmupPhase);
    EXPECT_FALSE(st.samples.empty());
    std::uint64_t lastBoundary = 0;
    for (const sim::TimelineSample &s : st.samples) {
        EXPECT_GT(s.boundary, lastBoundary);
        lastBoundary = s.boundary;
    }
}

TEST(TraceObserver, ComputeCoreStatsInvariants)
{
    const trace::TaskTrace trace =
        work::generateWorkload("histogram", smallParams());
    const harness::RunSpec spec = smallSpec();

    sim::TimelineRecorder rec;
    (void)harness::runSampled(trace, spec,
                              sampling::SamplingParams::lazy(),
                              nullptr, &rec);
    const sim::JobTimeline &t = rec.timeline();
    const std::vector<sim::CoreTimelineStats> stats =
        sim::computeCoreStats(t);
    ASSERT_EQ(stats.size(), t.cores);

    std::uint64_t tasks = 0;
    for (const sim::CoreTimelineStats &c : stats) {
        tasks += c.tasks;
        EXPECT_EQ(c.busy, c.detailedBusy + c.fastBusy);
        Cycles phaseSum = 0;
        for (Cycles p : c.phaseBusy)
            phaseSum += p;
        // Phases cover the whole run from cycle 0, so every busy
        // cycle falls into exactly one phase.
        EXPECT_EQ(phaseSum, c.busy);
        EXPECT_LE(c.busy, t.totalCycles);
    }
    EXPECT_EQ(tasks, t.tasks.size());
}

TEST(TraceObserver, TimelineSerializationRoundTrip)
{
    const sim::JobTimeline t = sampleTimeline();
    std::ostringstream out(std::ios::binary);
    sim::serializeTimeline(t, out);
    const std::string bytes = out.str();

    std::istringstream in(bytes, std::ios::binary);
    BinaryReader r(in, "roundtrip");
    const sim::JobTimeline back = sim::deserializeTimeline(r);
    EXPECT_TRUE(timelinesEqual(t, back));

    // Truncation anywhere must throw, never crash.
    for (std::size_t cut : {std::size_t{4}, bytes.size() / 2,
                            bytes.size() - 1}) {
        std::istringstream tin(bytes.substr(0, cut),
                               std::ios::binary);
        BinaryReader tr(tin, "truncated");
        EXPECT_THROW((void)sim::deserializeTimeline(tr), IoError);
    }
}

TEST(TraceObserver, BatchResultWireFormatCarriesTimeline)
{
    harness::BatchResult r;
    r.index = 5;
    r.label = "wire";
    r.timeline = sampleTimeline();

    std::ostringstream out(std::ios::binary);
    harness::serializeBatchResult(r, out);
    std::istringstream in(out.str(), std::ios::binary);
    const harness::BatchResult back =
        harness::deserializeBatchResult(in, "wire-test");
    EXPECT_EQ(back.index, r.index);
    ASSERT_TRUE(back.timeline.has_value());
    EXPECT_TRUE(timelinesEqual(*r.timeline, *back.timeline));

    harness::BatchResult bare;
    bare.index = 6;
    bare.label = "no timeline";
    std::ostringstream out2(std::ios::binary);
    harness::serializeBatchResult(bare, out2);
    std::istringstream in2(out2.str(), std::ios::binary);
    const harness::BatchResult back2 =
        harness::deserializeBatchResult(in2, "wire-test");
    EXPECT_FALSE(back2.timeline.has_value());
}

TEST(TraceObserver, BatchRunnerCollectsTimelinesOnlyWhenAsked)
{
    harness::ExperimentPlan plan;
    for (const char *mode : {"sampled", "reference"}) {
        harness::JobSpec j;
        j.label = mode;
        j.workload = "histogram";
        j.workloadParams = smallParams();
        j.spec = smallSpec();
        j.sampling = sampling::SamplingParams::lazy();
        j.mode = std::string(mode) == "sampled"
                     ? harness::BatchMode::Sampled
                     : harness::BatchMode::Reference;
        plan.jobs.push_back(j);
    }

    harness::BatchOptions plainOpts;
    harness::CollectingSink plain;
    harness::BatchRunner(plainOpts).run(plan, plain);

    harness::BatchOptions tracedOpts;
    tracedOpts.collectTimelines = true;
    harness::CollectingSink traced;
    harness::BatchRunner(tracedOpts).run(plan, traced);

    ASSERT_EQ(plain.results().size(), 2u);
    ASSERT_EQ(traced.results().size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_FALSE(plain.results()[i].timeline.has_value());
        ASSERT_TRUE(traced.results()[i].timeline.has_value());
        EXPECT_FALSE(traced.results()[i].timeline->tasks.empty());
    }
    // Collecting timelines must not change the simulated outcome.
    EXPECT_EQ(traced.results()[0].sampled->result.totalCycles,
              plain.results()[0].sampled->result.totalCycles);
    EXPECT_EQ(traced.results()[1].reference->totalCycles,
              plain.results()[1].reference->totalCycles);
}

TEST(TimelineStatsSinkTest, ExactCsv)
{
    std::ostringstream out;
    harness::TimelineStatsSink sink(out);
    sink.begin(1);
    harness::BatchResult r;
    r.index = 2;
    r.label = "a,b"; // exercises RFC-4180 quoting
    r.timeline = sampleTimeline();
    sink.consume(std::move(r));

    // Core 0: one detailed task [5,30) = 25 cycles; warmup covers
    // [0,25) -> 20, sampling [25,60) -> 5. Core 1: one fast task
    // [20,90) = 70; warmup 5, sampling 35, fast-forward 30.
    EXPECT_EQ(out.str(),
              "index,label,core,tasks,busy_cycles,idle_cycles,"
              "detailed_mode_cycles,fast_mode_cycles,"
              "warmup_phase_cycles,sampling_phase_cycles,"
              "fastforward_phase_cycles,detailed_phase_cycles,"
              "busy_fraction\n"
              "2,\"a,b\",0,1,25,75,25,0,20,5,0,0,0.25\n"
              "2,\"a,b\",1,1,70,30,0,70,5,35,30,0,0.7\n");
}

TEST(TimelineStatsSinkTest, SkipsResultsWithoutTimeline)
{
    std::ostringstream out;
    harness::TimelineStatsSink sink(out);
    sink.begin(1);
    harness::BatchResult r;
    r.index = 0;
    r.label = "cache replay";
    sink.consume(std::move(r));
    EXPECT_EQ(out.str(),
              "index,label,core,tasks,busy_cycles,idle_cycles,"
              "detailed_mode_cycles,fast_mode_cycles,"
              "warmup_phase_cycles,sampling_phase_cycles,"
              "fastforward_phase_cycles,detailed_phase_cycles,"
              "busy_fraction\n");
}

TEST(ChromeTraceSinkTest, MergesJobsAndSkipsTimelineless)
{
    std::ostringstream out;
    {
        harness::ChromeTraceSink sink(out);
        sink.begin(3);
        harness::BatchResult a;
        a.index = 0;
        a.label = "first";
        a.timeline = sampleTimeline();
        sink.consume(std::move(a));
        harness::BatchResult skip;
        skip.index = 1;
        skip.label = "cached";
        sink.consume(std::move(skip));
        harness::BatchResult b;
        b.index = 2;
        b.label = "second";
        b.timeline = sampleTimeline();
        sink.consume(std::move(b));
        sink.end();
    }
    const std::string doc = out.str();
    EXPECT_NE(doc.find("\"job 0: first\""), std::string::npos);
    EXPECT_EQ(doc.find("\"job 1: cached\""), std::string::npos);
    EXPECT_NE(doc.find("\"job 2: second\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":2"), std::string::npos);
    EXPECT_EQ(doc.rfind("\n]}\n"), doc.size() - 4);
}
