/**
 * @file
 * Tests of the variance-aware adaptive sampling policy: the
 * stratified estimator on synthetic strata with known variances
 * (pilot → Neyman allocation → CI stopping rule), the controller
 * integration, serialization of params and diagnostics (including
 * v1-plan compatibility), and determinism across worker counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/binary_io.hh"
#include "common/logging.hh"
#include "cpu/arch_config.hh"
#include "harness/batch_runner.hh"
#include "harness/experiment.hh"
#include "harness/job_spec.hh"
#include "sampling/adaptive.hh"
#include "sampling/taskpoint.hh"
#include "sim/result_io.hh"
#include "trace/trace_builder.hh"
#include "workloads/workloads.hh"

namespace tp::sampling {
namespace {

AdaptiveConfig
cfg(double target = 0.01, std::uint64_t pilot = 4)
{
    AdaptiveConfig c;
    c.targetError = target;
    c.pilotSamples = pilot;
    return c;
}

TEST(StratifiedEstimator, RejectsBadConfig)
{
    const std::vector<StratumSpec> strata = {{1.0, 100}};
    EXPECT_THROW(StratifiedEstimator(strata, cfg(0.0)), SimError);
    EXPECT_THROW(StratifiedEstimator(strata, cfg(1.0)), SimError);
    EXPECT_THROW(StratifiedEstimator(strata, cfg(0.01, 1)), SimError);
    AdaptiveConfig bad_z = cfg();
    bad_z.confidenceZ = 0.0;
    EXPECT_THROW(StratifiedEstimator(strata, bad_z), SimError);
    // No weighted stratum at all.
    EXPECT_THROW(StratifiedEstimator({{0.0, 5}}, cfg()), SimError);
    // Weighted stratum that can never be sampled.
    EXPECT_THROW(StratifiedEstimator({{1.0, 0}}, cfg()), SimError);
}

TEST(StratifiedEstimator, PilotTargetsClampToCapacity)
{
    StratifiedEstimator e({{1.0, 100}, {1.0, 1}, {0.0, 0}},
                          cfg(0.01, 4));
    EXPECT_EQ(e.targets()[0], 4u);
    EXPECT_EQ(e.targets()[1], 1u); // singleton stratum: census of 1
    EXPECT_EQ(e.targets()[2], 0u); // weightless stratum ignored
    EXPECT_TRUE(e.needMore(0));
    EXPECT_TRUE(e.needMore(1));
    EXPECT_FALSE(e.needMore(2));
}

TEST(StratifiedEstimator, ZeroVarianceConvergesAfterPilot)
{
    StratifiedEstimator e({{3.0, 100}, {1.0, 100}}, cfg(0.01, 4));
    EXPECT_FALSE(e.converged()); // no data: half-width is infinite
    EXPECT_TRUE(std::isinf(e.relHalfWidth()));
    e.markSeen(1);
    for (int i = 0; i < 4; ++i)
        e.addSample(0, 2.0);
    // Stratum 1 seen but unsampled: not converged, no fake zero.
    EXPECT_FALSE(e.converged());
    for (int i = 0; i < 4; ++i)
        e.addSample(1, 4.0);
    EXPECT_TRUE(e.converged());
    EXPECT_DOUBLE_EQ(e.relHalfWidth(), 0.0);
    // Weighted mean CPI: (3*2 + 1*4) / 4.
    EXPECT_NEAR(e.estimateCpi(), 2.5, 1e-12);
    EXPECT_FALSE(e.needMore(0));
    EXPECT_FALSE(e.needMore(1));
}

TEST(StratifiedEstimator, UnseenStrataAreExcluded)
{
    // A stratum whose first instance has not arrived (e.g. gated on
    // dependencies) must not block the stopping rule: the CI covers
    // the seen subpopulation and the controller's new-type resample
    // handles the stratum when it appears.
    StratifiedEstimator e({{1.0, 100}, {9.0, 100}}, cfg(0.01, 2));
    e.addSample(0, 2.0);
    e.addSample(0, 2.0);
    EXPECT_TRUE(e.converged());
    EXPECT_DOUBLE_EQ(e.relHalfWidth(), 0.0);
    EXPECT_NEAR(e.estimateCpi(), 2.0, 1e-12);
    // Once the heavy stratum arrives, convergence is withdrawn
    // until it is measured too.
    e.markSeen(1);
    EXPECT_FALSE(e.converged());
    EXPECT_TRUE(e.needMore(1));
}

TEST(StratifiedEstimator, CensusStratumContributesNoError)
{
    // Stratum 0 has wild variance but only 3 instances: once all 3
    // are sampled there is no sampling error left in it.
    StratifiedEstimator e({{1.0, 3}, {1.0, 50}}, cfg(0.05, 3));
    e.addSample(0, 1.0);
    e.addSample(0, 10.0);
    e.addSample(0, 100.0);
    EXPECT_FALSE(e.needMore(0));
    for (int i = 0; i < 3; ++i)
        e.addSample(1, 2.0);
    EXPECT_TRUE(e.converged());
}

TEST(StratifiedEstimator, RelHalfWidthMatchesClosedForm)
{
    // One stratum, samples {1, 2, 3, 4}: mean 2.5, sample variance
    // 5/3, Var(T^) = s^2/n, half-width = z * sqrt(s^2/4) / 2.5.
    StratifiedEstimator e({{1.0, 1000}}, cfg(0.01, 4));
    for (double x : {1.0, 2.0, 3.0, 4.0})
        e.addSample(0, x);
    const double expect =
        1.96 * std::sqrt((5.0 / 3.0) / 4.0) / 2.5;
    EXPECT_NEAR(e.relHalfWidth(), expect, 1e-12);
    EXPECT_FALSE(e.converged());
}

TEST(StratifiedEstimator, NeymanAllocationFavorsHighVariance)
{
    // Equal weights; stratum 0 nearly constant, stratum 1 noisy.
    // After the pilot the reallocation must direct the additional
    // samples overwhelmingly at stratum 1.
    StratifiedEstimator e({{1.0, 100000}, {1.0, 100000}},
                          cfg(0.01, 4));
    const double lo[4] = {1.00, 1.01, 0.99, 1.00};
    const double hi[4] = {1.0, 3.0, 0.5, 2.5};
    for (int i = 0; i < 4; ++i) {
        e.addSample(0, lo[i]);
        e.addSample(1, hi[i]);
    }
    EXPECT_FALSE(e.converged());
    // Both strata met the pilot; asking triggers one reallocation.
    const bool zero_needs = e.needMore(0);
    EXPECT_TRUE(e.needMore(1));
    EXPECT_EQ(e.allocationRounds(), 1u);
    const std::uint64_t grow0 = e.targets()[0] - 4;
    const std::uint64_t grow1 = e.targets()[1] - 4;
    EXPECT_GT(grow1, 4 * std::max<std::uint64_t>(grow0, 1))
        << "t0=" << e.targets()[0] << " t1=" << e.targets()[1];
    // Stratum 0 may get a token allowance but must not dominate.
    (void)zero_needs;
}

TEST(StratifiedEstimator, StopsOnceTargetReached)
{
    // Feed a deterministic noisy stream into one stratum and check
    // the loop terminates by convergence, with a final half-width at
    // or below the target.
    StratifiedEstimator e({{1.0, 1000000}}, cfg(0.05, 4));
    std::uint64_t fed = 0;
    double x = 0.7;
    while (e.needMore(0) && fed < 100000) {
        // Deterministic pseudo-noise around CPI 1.0.
        x = x < 1.0 ? x + 0.45 : x - 0.55;
        e.addSample(0, 0.8 + 0.4 * x);
        ++fed;
    }
    ASSERT_LT(fed, 100000u) << "never converged";
    EXPECT_TRUE(e.converged());
    EXPECT_LE(e.relHalfWidth(), 0.05);
    EXPECT_GE(e.allocationRounds(), 1u);
    // And far fewer samples than the population.
    EXPECT_LT(fed, 2000u);
}

TEST(StratifiedEstimator, ResetRestartsPilotKeepsRounds)
{
    StratifiedEstimator e({{1.0, 100}}, cfg(0.01, 4));
    const double xs[4] = {1.0, 2.0, 1.5, 2.5};
    for (double v : xs)
        e.addSample(0, v);
    (void)e.needMore(0); // forces a reallocation round
    const std::uint64_t rounds = e.allocationRounds();
    EXPECT_GE(rounds, 1u);
    e.reset();
    EXPECT_EQ(e.samples(0), 0u);
    EXPECT_EQ(e.targets()[0], 4u);
    EXPECT_TRUE(e.needMore(0));
    EXPECT_EQ(e.allocationRounds(), rounds); // cumulative
}

// ---------------------------------------------------------------
// Controller integration.
// ---------------------------------------------------------------

trace::TaskTrace
twoTypeTrace(std::size_t n)
{
    trace::TraceBuilder b("two-type", 23);
    trace::KernelProfile compute;
    trace::KernelProfile memory;
    memory.loadFrac = 0.4;
    const auto ta = b.addTaskType("compute", compute);
    const auto tb = b.addTaskType("memory", memory);
    for (std::size_t i = 0; i < n; ++i)
        b.createTask(i % 3 == 0 ? tb : ta, 6000, 16 * 1024);
    return b.build();
}

harness::RunSpec
spec(std::uint32_t threads)
{
    harness::RunSpec s;
    s.arch = cpu::highPerformanceConfig();
    s.threads = threads;
    return s;
}

TEST(AdaptiveController, FactoryAndValidation)
{
    const SamplingParams p = SamplingParams::adaptive(0.02);
    EXPECT_TRUE(p.adaptiveEnabled());
    EXPECT_EQ(p.period, kInfinitePeriod);
    EXPECT_FALSE(SamplingParams::lazy().adaptiveEnabled());

    const trace::TaskTrace t = twoTypeTrace(50);
    SamplingParams bad = SamplingParams::adaptive(1.5);
    EXPECT_THROW(TaskPointController(t, bad), SimError);
    bad = SamplingParams::adaptive(0.02);
    bad.pilotSamples = 1;
    EXPECT_THROW(TaskPointController(t, bad), SimError);
}

TEST(AdaptiveController, ConvergesAndReportsDiagnostics)
{
    const trace::TaskTrace t = twoTypeTrace(400);
    const harness::SampledOutcome out = harness::runSampled(
        t, spec(4), SamplingParams::adaptive(0.02));

    EXPECT_EQ(out.stats.warmupTasks + out.stats.sampleTasks +
                  out.stats.fastTasks,
              400u);
    EXPECT_GT(out.stats.fastTasks, 200u);

    const AdaptiveDiagnostics &d = out.adaptive;
    EXPECT_TRUE(d.enabled);
    EXPECT_DOUBLE_EQ(d.targetError, 0.02);
    EXPECT_GT(d.stopCycle, 0u);
    ASSERT_EQ(d.strataSamples.size(), 2u);
    EXPECT_GE(d.strataSamples[0] + d.strataSamples[1], 4u);
    if (!d.cutoffStopped) {
        EXPECT_LE(d.finalRelHalfWidth, 0.02);
    }

    // The measured error against the detailed reference must be
    // consistent with the model staying accurate.
    const sim::SimResult ref = harness::runDetailed(t, spec(4));
    const harness::ErrorSpeedup es =
        harness::compare(ref, out.result);
    EXPECT_LT(es.errorPct, 8.0);
    EXPECT_LT(es.detailFraction, 0.9);
}

TEST(AdaptiveController, CheaperThanPeriodicAtComparableError)
{
    const trace::TaskTrace t = twoTypeTrace(600);
    const sim::SimResult ref = harness::runDetailed(t, spec(4));

    const harness::SampledOutcome per = harness::runSampled(
        t, spec(4), SamplingParams::periodic(20));
    const harness::SampledOutcome ada = harness::runSampled(
        t, spec(4), SamplingParams::adaptive(0.02));

    const double err_per =
        harness::compare(ref, per.result).errorPct;
    const double err_ada =
        harness::compare(ref, ada.result).errorPct;
    EXPECT_LT(ada.result.detailedInsts, per.result.detailedInsts);
    EXPECT_LT(err_ada, 8.0);
    EXPECT_LT(err_per, 8.0);
}

TEST(AdaptiveController, RareTypeFallsBackToCutoff)
{
    // A type that arrives every ~80 instances: the CI target cannot
    // be reached while it is missing, so the cutoff must end the
    // sampling phase instead of stalling it forever.
    trace::TraceBuilder b("rare-adaptive", 29);
    trace::KernelProfile k;
    const auto dom = b.addTaskType("dominant", k);
    const auto rare = b.addTaskType("rare", k);
    for (int i = 0; i < 400; ++i) {
        b.createTask(dom, 4000);
        if (i % 80 == 40)
            b.createTask(rare, 4000);
    }
    const trace::TaskTrace t = b.build();

    const harness::SampledOutcome out = harness::runSampled(
        t, spec(4), SamplingParams::adaptive(0.005));
    EXPECT_EQ(out.stats.warmupTasks + out.stats.sampleTasks +
                  out.stats.fastTasks,
              405u);
    EXPECT_GT(out.stats.fastTasks, 200u);
    EXPECT_TRUE(out.adaptive.enabled);
}

TEST(AdaptiveBudget, CapBoundsDetailCostWithDistinctStopReason)
{
    // Regression for the adaptive cost blowup: an unreachable CI
    // target on a high-variance workload (spmv, the worst offender)
    // keeps Neyman reallocation requesting samples; uncapped, the
    // run devolves toward full detail. The budget cap must close the
    // sampling phase at a bounded multiple of the lazy policy's
    // detailed-instruction cost and say so in the diagnostics.
    work::WorkloadParams wp;
    wp.scale = 0.02;
    wp.seed = 42;
    const trace::TaskTrace t = work::generateWorkload(
        "sparse-matrix-vector-multiplication", wp);

    const harness::SampledOutcome lazy =
        harness::runSampled(t, spec(8), SamplingParams::lazy());

    SamplingParams uncapped = SamplingParams::adaptive(0.0005);
    uncapped.detailBudgetMultiple = 0.0;
    const harness::SampledOutcome un =
        harness::runSampled(t, spec(8), uncapped);

    // The configurable cap (the 2.0 default) on the same run.
    const SamplingParams capped = SamplingParams::adaptive(0.0005);
    ASSERT_DOUBLE_EQ(capped.detailBudgetMultiple, 2.0);
    const harness::SampledOutcome cap =
        harness::runSampled(t, spec(8), capped);

    // Distinct stop reason: the budget, not convergence or the
    // rare-type cutoff.
    EXPECT_TRUE(cap.adaptive.budgetStopped);
    EXPECT_FALSE(cap.adaptive.cutoffStopped);
    EXPECT_FALSE(un.adaptive.budgetStopped);

    // The cap must actually bite, and must keep the adaptive run
    // within a small multiple of the lazy policy's detailed cost
    // (the budget is 2x the lazy-equivalent sampling budget; the
    // remainder is warmup and in-flight overshoot).
    EXPECT_LT(cap.result.detailedInsts, un.result.detailedInsts);
    EXPECT_LE(cap.result.detailedInsts,
              3 * lazy.result.detailedInsts)
        << "capped adaptive " << cap.result.detailedInsts
        << " vs lazy " << lazy.result.detailedInsts;
}

TEST(AdaptiveDiagnosticsText, StopReasonRanksBudgetThenCutoff)
{
    AdaptiveDiagnostics d;
    d.enabled = true;
    EXPECT_STREQ(stopReason(d), "CI target");
    d.cutoffStopped = true;
    EXPECT_STREQ(stopReason(d), "rare cutoff");
    d.budgetStopped = true;
    EXPECT_STREQ(stopReason(d), "budget cap");
    d.cutoffStopped = false;
    EXPECT_STREQ(stopReason(d), "budget cap");
}

TEST(AdaptiveDiagnosticsText, CiIsNotApplicableOnlyWhenNeverComputed)
{
    AdaptiveDiagnostics d;
    d.enabled = true;
    d.finalRelHalfWidth = 0.0246;
    EXPECT_EQ(reportedCi(d), "2.46%");
    d.budgetStopped = true;
    EXPECT_EQ(reportedCi(d), "2.46%");
    d.cutoffStopped = true;
    EXPECT_EQ(reportedCi(d), "2.46%");
    d.finalRelHalfWidth = 0.0;
    EXPECT_EQ(reportedCi(d), "n/a");
    // A zero half-width the CI target reached is a real 0.
    d.budgetStopped = false;
    d.cutoffStopped = false;
    EXPECT_EQ(reportedCi(d), "0.00%");
}

// ---------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------

TEST(AdaptiveSerialization, SamplingParamsRoundTrip)
{
    SamplingParams p = SamplingParams::adaptive(0.015);
    p.pilotSamples = 6;
    p.confidenceZ = 2.58;
    std::ostringstream bytes(std::ios::binary);
    BinaryWriter w(bytes);
    harness::writeSamplingParams(w, p);
    std::istringstream in(bytes.str(), std::ios::binary);
    BinaryReader r(in, "params");
    const SamplingParams q = harness::readSamplingParams(r);
    EXPECT_DOUBLE_EQ(q.targetError, 0.015);
    EXPECT_EQ(q.pilotSamples, 6u);
    EXPECT_DOUBLE_EQ(q.confidenceZ, 2.58);
    EXPECT_EQ(q.period, kInfinitePeriod);
}

TEST(AdaptiveSerialization, PlanRoundTripAndDigestSensitivity)
{
    harness::ExperimentPlan plan;
    harness::JobSpec j;
    j.label = "adaptive job";
    j.workload = "histogram";
    j.workloadParams.scale = 0.02;
    j.spec.arch = cpu::highPerformanceConfig();
    j.sampling = SamplingParams::adaptive(0.01);
    j.mode = harness::BatchMode::Both;
    plan.jobs.push_back(j);

    std::ostringstream bytes(std::ios::binary);
    harness::serializePlan(plan, bytes);
    std::istringstream in(bytes.str(), std::ios::binary);
    const harness::ExperimentPlan loaded =
        harness::deserializePlan(in, "mem");
    ASSERT_EQ(loaded.jobs.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.jobs[0].sampling.targetError, 0.01);
    EXPECT_EQ(harness::planDigest(loaded), harness::planDigest(plan));

    // The target error must be digest-relevant (cache keying).
    harness::ExperimentPlan other = plan;
    other.jobs[0].sampling.targetError = 0.02;
    EXPECT_NE(harness::planDigest(other), harness::planDigest(plan));
    EXPECT_NE(harness::jobSpecDigest(other.jobs[0]),
              harness::jobSpecDigest(plan.jobs[0]));
}

TEST(AdaptiveSerialization, V1PlanStillLoads)
{
    // A v1 plan (header only, zero jobs) must still deserialize:
    // the golden fixtures under tests/golden/ are v1 files.
    std::ostringstream bytes(std::ios::binary);
    BinaryWriter w(bytes);
    w.pod<std::uint64_t>(0x5450504c414e3101ULL); // kPlanMagic
    w.pod<std::uint32_t>(1);                     // format version 1
    w.pod<std::uint64_t>(42);                    // baseSeed
    writeBool(w, true);                          // deriveSeeds
    w.pod<std::uint64_t>(0);                     // job count
    std::istringstream in(bytes.str(), std::ios::binary);
    const harness::ExperimentPlan plan =
        harness::deserializePlan(in, "v1");
    EXPECT_EQ(plan.baseSeed, 42u);
    EXPECT_TRUE(plan.jobs.empty());

    // And a future version must fail loudly.
    std::ostringstream future(std::ios::binary);
    BinaryWriter fw(future);
    fw.pod<std::uint64_t>(0x5450504c414e3101ULL);
    fw.pod<std::uint32_t>(harness::kPlanFormatVersion + 1);
    std::istringstream fin(future.str(), std::ios::binary);
    EXPECT_THROW(harness::deserializePlan(fin, "future"), IoError);
}

TEST(AdaptiveSerialization, V1SamplingParamsGetDefaults)
{
    // Bytes written by the v1 encoder (no adaptive fields).
    SamplingParams p = SamplingParams::periodic(250);
    std::ostringstream bytes(std::ios::binary);
    BinaryWriter w(bytes);
    w.pod(p.warmup);
    w.pod<std::uint64_t>(p.historySize);
    w.pod(p.period);
    w.pod(p.rareCutoff);
    w.pod(p.concurrencyHysteresis);
    w.pod(p.concurrencyTolerance);
    std::istringstream in(bytes.str(), std::ios::binary);
    BinaryReader r(in, "v1-params");
    const SamplingParams q =
        harness::readSamplingParams(r, /*version=*/1);
    EXPECT_EQ(q.period, 250u);
    EXPECT_FALSE(q.adaptiveEnabled());
    EXPECT_EQ(q.pilotSamples, SamplingParams{}.pilotSamples);
}

TEST(AdaptiveSerialization, OutcomeDiagnosticsRoundTripBitIdentical)
{
    const trace::TaskTrace t = twoTypeTrace(200);
    const harness::SampledOutcome out = harness::runSampled(
        t, spec(4), SamplingParams::adaptive(0.02));
    ASSERT_TRUE(out.adaptive.enabled);

    std::ostringstream bytes(std::ios::binary);
    sim::serializeSampledOutcome(out, bytes);
    std::istringstream in(bytes.str(), std::ios::binary);
    const harness::SampledOutcome back =
        sim::deserializeSampledOutcome(in, "mem");

    EXPECT_EQ(back.adaptive.enabled, out.adaptive.enabled);
    EXPECT_DOUBLE_EQ(back.adaptive.targetError,
                     out.adaptive.targetError);
    EXPECT_DOUBLE_EQ(back.adaptive.finalRelHalfWidth,
                     out.adaptive.finalRelHalfWidth);
    EXPECT_EQ(back.adaptive.stopCycle, out.adaptive.stopCycle);
    EXPECT_EQ(back.adaptive.allocationRounds,
              out.adaptive.allocationRounds);
    EXPECT_EQ(back.adaptive.cutoffStopped,
              out.adaptive.cutoffStopped);
    EXPECT_EQ(back.adaptive.strataSamples,
              out.adaptive.strataSamples);

    std::ostringstream again(std::ios::binary);
    sim::serializeSampledOutcome(back, again);
    EXPECT_EQ(bytes.str(), again.str());
}

// ---------------------------------------------------------------
// Determinism across worker counts and cached replay.
// ---------------------------------------------------------------

std::string
outcomeBytes(const harness::BatchResult &r)
{
    // wallSeconds is host timing — the only field allowed to differ
    // between byte-identical runs.
    harness::SampledOutcome out = *r.sampled;
    out.result.wallSeconds = 0.0;
    std::ostringstream bytes(std::ios::binary);
    sim::serializeSampledOutcome(out, bytes);
    return bytes.str();
}

TEST(AdaptiveDeterminism, JobsParallelismAndCacheInvariant)
{
    harness::ExperimentPlan plan;
    plan.deriveSeeds = false;
    for (const char *name : {"histogram", "vector-operation"}) {
        for (double target : {0.02, 0.01}) {
            harness::JobSpec j;
            j.label = std::string(name) + " @" +
                      std::to_string(target);
            j.workload = name;
            j.workloadParams.scale = 0.02;
            j.workloadParams.seed = 42;
            j.spec.arch = cpu::highPerformanceConfig();
            j.spec.threads = 8;
            j.sampling = SamplingParams::adaptive(target);
            j.mode = harness::BatchMode::Sampled;
            plan.jobs.push_back(j);
        }
    }

    harness::BatchOptions serial;
    serial.jobs = 1;
    harness::CollectingSink a;
    harness::BatchRunner(serial).run(plan, a);

    harness::BatchOptions parallel;
    parallel.jobs = 4;
    harness::CollectingSink b;
    harness::BatchRunner(parallel).run(plan, b);

    ASSERT_EQ(a.results().size(), plan.jobs.size());
    ASSERT_EQ(b.results().size(), plan.jobs.size());
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        ASSERT_TRUE(a.results()[i].sampled.has_value());
        EXPECT_EQ(outcomeBytes(a.results()[i]),
                  outcomeBytes(b.results()[i]))
            << plan.jobs[i].label;
    }
}

} // namespace
} // namespace tp::sampling
