/**
 * @file
 * Tests for the supervised execution layer: FaultPlan parsing and
 * deterministic injection, Supervisor retry/deadline/report
 * semantics, simulator cancellation, trace-sink degradation, and
 * sweep checkpoint/resume (bit-identical to an uninterrupted run).
 *
 * Every test that injects faults uses an explicit FaultPlan
 * instance, so a process-wide JSMT_FAULT_PLAN (the CI
 * fault-injection job sets one) can never flip an assertion; one
 * test exercises the global plan on purpose.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "exec/run_cache.h"
#include "harness/experiments.h"
#include "harness/solo.h"
#include "jvm/benchmarks.h"
#include "resilience/cancellation.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_plan.h"
#include "resilience/supervisor.h"
#include "trace/trace_sink.h"

namespace jsmt {
namespace {

using resilience::BatchReport;
using resilience::CancellationToken;
using resilience::FailureKind;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::SupervisorOptions;
using resilience::SweepCheckpoint;
using resilience::TaskCancelledError;
using resilience::TaskContext;

constexpr double kTinyScale = 0.02;

void
expectIdenticalResults(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.allComplete, b.allComplete);
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            EXPECT_EQ(a.events[ctx][e], b.events[ctx][e])
                << "event " << eventName(static_cast<EventId>(e))
                << " on context " << static_cast<int>(ctx);
        }
    }
    ASSERT_EQ(a.processes.size(), b.processes.size());
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
        EXPECT_EQ(a.processes[i].benchmark,
                  b.processes[i].benchmark);
        EXPECT_EQ(a.processes[i].durationCycles,
                  b.processes[i].durationCycles);
        EXPECT_EQ(a.processes[i].gcRuns, b.processes[i].gcRuns);
        EXPECT_EQ(a.processes[i].allocatedBytes,
                  b.processes[i].allocatedBytes);
    }
}

// ----------------------------------------------------------------
// FaultPlan
// ----------------------------------------------------------------

TEST(FaultPlan, ParsesEveryClauseKind)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "task-fail=jess@2,task-delay=*@5,spill-corrupt=3,"
        "spill-truncate=4,sink-alloc",
        &plan, &error))
        << error;
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.describe(),
              "task-fail=jess@2,task-delay=*@5,spill-corrupt@3,"
              "spill-truncate@4,sink-alloc");
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    for (const char* bad :
         {"task-fail", "task-fail=jess", "task-fail=jess@x",
          "spill-corrupt=0", "nonsense=1", "spill-corrupt"}) {
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(FaultPlan::parse(bad, &plan, &error))
            << "spec '" << bad << "' should be rejected";
        EXPECT_FALSE(error.empty());
        EXPECT_TRUE(plan.empty());
    }
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlan)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("", &plan));
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.shouldFailTask("anything", 1));
    EXPECT_EQ(plan.taskDelayMs("anything"), 0u);
    EXPECT_EQ(plan.spillFault(1), FaultPlan::SpillFault::kNone);
    EXPECT_FALSE(plan.shouldFailSinkAllocation());
}

TEST(FaultPlan, InjectionIsAPureFunctionOfIdentity)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("task-fail=jess@2,spill-corrupt=3",
                                 &plan));
    // Attempts 1..2 of matching tasks fail; attempt 3 succeeds.
    EXPECT_TRUE(plan.shouldFailTask("sweep/jess/ht", 1));
    EXPECT_TRUE(plan.shouldFailTask("sweep/jess/ht", 2));
    EXPECT_FALSE(plan.shouldFailTask("sweep/jess/ht", 3));
    EXPECT_FALSE(plan.shouldFailTask("sweep/db/ht", 1));
    // Every 3rd spill save faults, by ordinal alone.
    EXPECT_EQ(plan.spillFault(1), FaultPlan::SpillFault::kNone);
    EXPECT_EQ(plan.spillFault(3), FaultPlan::SpillFault::kCorrupt);
    EXPECT_EQ(plan.spillFault(6), FaultPlan::SpillFault::kCorrupt);
    // Counters recorded the queries that injected.
    EXPECT_EQ(plan.injected(FaultKind::kTaskFail), 2u);
    EXPECT_EQ(plan.injected(FaultKind::kSpillCorrupt), 2u);
}

// ----------------------------------------------------------------
// Supervisor: retry, backoff, deadline, report
// ----------------------------------------------------------------

TEST(Supervisor, InjectedTransientFailureRetriesThenSucceeds)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("task-fail=*@2", &plan));
    SupervisorOptions options;
    options.jobs = 2;
    options.maxAttempts = 3;
    options.faultPlan = &plan;
    resilience::Supervisor supervisor(options);

    std::atomic<int> bodies{0};
    const BatchReport report = supervisor.run(
        4, [](std::size_t i) { return "task" + std::to_string(i); },
        [&](TaskContext& ctx) {
            EXPECT_EQ(ctx.attempt, 3); // Attempts 1..2 injected.
            bodies.fetch_add(1);
        });
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.tasks, 4u);
    EXPECT_EQ(report.succeeded, 4u);
    EXPECT_EQ(report.retries, 8u); // 2 retries per task.
    EXPECT_EQ(bodies.load(), 4);
    EXPECT_EQ(plan.injected(FaultKind::kTaskFail), 8u);
}

TEST(Supervisor, ExhaustedRetriesBecomeStructuredFailures)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("task-fail=doomed@99", &plan));
    SupervisorOptions options;
    options.jobs = 2;
    options.maxAttempts = 2;
    options.faultPlan = &plan;
    resilience::Supervisor supervisor(options);

    const BatchReport report = supervisor.run(
        3,
        [](std::size_t i) {
            return i == 1 ? std::string("doomed")
                          : "fine" + std::to_string(i);
        },
        [](TaskContext&) {});
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.succeeded, 2u);
    ASSERT_EQ(report.failures.size(), 1u);
    const resilience::TaskFailure& failure = report.failures[0];
    EXPECT_EQ(failure.index, 1u);
    EXPECT_EQ(failure.name, "doomed");
    EXPECT_EQ(failure.kind, FailureKind::kRetryExhausted);
    EXPECT_EQ(failure.attempts, 2);
    EXPECT_NE(failure.message.find("injected"), std::string::npos);

    std::string json;
    report.toJson(json);
    EXPECT_NE(json.find("\"kind\":\"retry-exhausted\""),
              std::string::npos);
}

TEST(Supervisor, PermanentExceptionIsNotRetried)
{
    SupervisorOptions options;
    options.jobs = 1;
    options.maxAttempts = 3;
    FaultPlan empty;
    options.faultPlan = &empty;
    resilience::Supervisor supervisor(options);

    std::atomic<int> attempts{0};
    const BatchReport report = supervisor.run(
        1, [](std::size_t) { return "thrower"; },
        [&](TaskContext&) {
            attempts.fetch_add(1);
            throw std::runtime_error("permanent damage");
        });
    EXPECT_EQ(attempts.load(), 1);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, FailureKind::kException);
    EXPECT_EQ(report.failures[0].message, "permanent damage");
    EXPECT_EQ(report.retries, 0u);
}

TEST(Supervisor, DeadlineCancelsWedgedTaskAndReportsTimeout)
{
    SupervisorOptions options;
    options.jobs = 2;
    options.maxAttempts = 1;
    options.taskTimeoutSeconds = 0.05;
    FaultPlan empty;
    options.faultPlan = &empty;
    resilience::Supervisor supervisor(options);

    const BatchReport report = supervisor.run(
        1, [](std::size_t) { return "wedged"; },
        [](TaskContext& ctx) {
            // Cooperative wedge: spin until the watchdog fires.
            while (!ctx.token->cancelled())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            throw TaskCancelledError("wedged task observed cancel");
        });
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].kind, FailureKind::kTimeout);
    EXPECT_GE(report.timeouts, 1u);
}

TEST(Supervisor, CancelledAttemptIsRequeuedAndCanSucceed)
{
    SupervisorOptions options;
    options.jobs = 1;
    options.maxAttempts = 2;
    options.taskTimeoutSeconds = 0.05;
    FaultPlan empty;
    options.faultPlan = &empty;
    resilience::Supervisor supervisor(options);

    const BatchReport report = supervisor.run(
        1, [](std::size_t) { return "slow-then-fast"; },
        [](TaskContext& ctx) {
            if (ctx.attempt == 1) {
                while (!ctx.token->cancelled())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                throw TaskCancelledError("first attempt too slow");
            }
            // Second attempt completes well inside the deadline.
        });
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.retries, 1u);
    EXPECT_GE(report.timeouts, 1u);
}

TEST(Supervisor, InjectedDelaySlowsButDoesNotFail)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("task-delay=*@5", &plan));
    SupervisorOptions options;
    options.jobs = 2;
    options.faultPlan = &plan;
    resilience::Supervisor supervisor(options);

    const BatchReport report = supervisor.run(
        3, [](std::size_t i) { return "d" + std::to_string(i); },
        [](TaskContext&) {});
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(plan.injected(FaultKind::kTaskDelay), 3u);
}

TEST(Supervisor, CountersSumAcrossEightJobs)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("task-fail=*@1", &plan));
    SupervisorOptions options;
    options.jobs = 8;
    options.maxAttempts = 2;
    options.faultPlan = &plan;

    const std::uint64_t retries_before =
        resilience::Supervisor::totalRetries();
    resilience::Supervisor supervisor(options);
    const std::size_t count = 32;
    const BatchReport report = supervisor.run(
        count,
        [](std::size_t i) { return "j" + std::to_string(i); },
        [](TaskContext&) {});
    EXPECT_TRUE(report.ok());
    // Every task failed once (injected) and retried once; the
    // per-report, per-plan and process-wide counters must agree.
    EXPECT_EQ(report.retries, count);
    EXPECT_EQ(plan.injected(FaultKind::kTaskFail), count);
    EXPECT_EQ(resilience::Supervisor::totalRetries(),
              retries_before + count);
}

TEST(Supervisor, GlobalPlanWhateverItIsNeverCrashesASweep)
{
    // CI sets JSMT_FAULT_PLAN for the whole test binary; this test
    // runs under whatever that plan injects (default supervision
    // retries transient failures) and must end in a clean report.
    SupervisorOptions options;
    options.jobs = 2;
    options.maxAttempts = 4;
    resilience::Supervisor supervisor(options);
    const BatchReport report = supervisor.run(
        4, [](std::size_t i) { return "g" + std::to_string(i); },
        [](TaskContext&) {});
    EXPECT_EQ(report.tasks, 4u);
    EXPECT_EQ(report.succeeded + report.failures.size(), 4u);
}

// ----------------------------------------------------------------
// Simulator cancellation
// ----------------------------------------------------------------

TEST(Cancellation, PreCancelledTokenStopsBeforeTheFirstCycle)
{
    SystemConfig config;
    Machine machine(config);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "jess";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);

    CancellationToken token;
    token.cancel();
    Simulation::RunOptions options;
    options.cancellation = &token;
    const RunResult result = sim.run(options);
    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.allComplete);
    EXPECT_EQ(result.cycles, 0u);
}

TEST(Cancellation, StopsOnTheCheckLatticeIdenticallyWithAndWithoutFastForward)
{
    const auto cancelledRun = [](bool fast_forward) {
        SystemConfig config;
        Machine machine(config);
        Simulation sim(machine);
        WorkloadSpec spec;
        spec.benchmark = "jess";
        spec.lengthScale = kTinyScale;
        sim.addProcess(spec);

        CancellationToken token;
        Simulation::RunOptions options;
        options.fastForward = fast_forward;
        options.cancellation = &token;
        options.cancelCheckIntervalCycles = 4096;
        options.sampleIntervalCycles = 8192;
        options.onSample = [&](Simulation&, Cycle now) {
            if (now >= 16384)
                token.cancel();
        };
        return sim.run(options);
    };
    const RunResult with_ff = cancelledRun(true);
    const RunResult without_ff = cancelledRun(false);
    EXPECT_TRUE(with_ff.cancelled);
    EXPECT_TRUE(without_ff.cancelled);
    EXPECT_FALSE(with_ff.allComplete);
    expectIdenticalResults(with_ff, without_ff);
}

TEST(Cancellation, MeasureSoloThrowsTaskCancelledError)
{
    SystemConfig config;
    CancellationToken token;
    token.cancel();
    SoloOptions options;
    options.lengthScale = kTinyScale;
    options.cancel = &token;
    EXPECT_THROW(measureSolo(config, "jess", false, options),
                 TaskCancelledError);
}

TEST(Cancellation, UncancelledTokenDoesNotPerturbTheRun)
{
    SystemConfig config;
    SoloOptions plain;
    plain.lengthScale = kTinyScale;
    const RunResult baseline =
        measureSolo(config, "jess", true, plain);

    CancellationToken token;
    SoloOptions watched = plain;
    watched.cancel = &token;
    const RunResult supervised =
        measureSolo(config, "jess", true, watched);
    expectIdenticalResults(baseline, supervised);
}

// ----------------------------------------------------------------
// Trace-sink degradation
// ----------------------------------------------------------------

TEST(SinkDegradation, InjectedAllocationFailureDegradesGracefully)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("sink-alloc", &plan));
    trace::TraceSink sink(1u << 12, &plan);
    EXPECT_TRUE(sink.degraded());
    EXPECT_EQ(plan.injected(FaultKind::kSinkAlloc), 1u);

    // Enable requests are ignored; emits are no-ops, not crashes.
    sink.setEnabled(true);
    EXPECT_FALSE(sink.enabled());
    sink.instant(trace::Track::kSim, "ignored", 1);
    EXPECT_EQ(sink.size(), 0u);

    // A run traced through a degraded sink is still correct.
    SystemConfig config;
    Machine machine(config);
    machine.setTraceSink(&sink);
    Simulation sim(machine);
    WorkloadSpec spec;
    spec.benchmark = "db";
    spec.lengthScale = kTinyScale;
    sim.addProcess(spec);
    const RunResult traced = sim.run();
    EXPECT_TRUE(traced.allComplete);

    Machine plain_machine(config);
    Simulation plain_sim(plain_machine);
    plain_sim.addProcess(spec);
    expectIdenticalResults(traced, plain_sim.run());
}

TEST(SinkDegradation, HealthySinkIsUnaffectedByEmptyPlan)
{
    FaultPlan empty;
    trace::TraceSink sink(1u << 12, &empty);
    EXPECT_FALSE(sink.degraded());
    sink.setEnabled(true);
    EXPECT_TRUE(sink.enabled());
}

// ----------------------------------------------------------------
// Checkpoint/resume
// ----------------------------------------------------------------

RunResult
tinyResult(const std::string& benchmark, bool ht)
{
    SystemConfig config;
    SoloOptions options;
    options.lengthScale = kTinyScale;
    return measureSoloCached(config, benchmark, ht, options);
}

TEST(SweepCheckpoint, RoundTripsEntriesThroughTheManifest)
{
    const std::string path =
        testing::TempDir() + "jsmt_resilience_roundtrip.json";
    std::remove(path.c_str());
    const RunResult a = tinyResult("jess", false);
    const RunResult b = tinyResult("db", true);
    {
        SweepCheckpoint checkpoint(path);
        FaultPlan empty;
        checkpoint.setFaultPlan(&empty);
        checkpoint.record("key/a", a);
        checkpoint.record("key/b", b);
        EXPECT_TRUE(checkpoint.flush());
        EXPECT_EQ(checkpoint.resumed(), 0u);
    }
    SweepCheckpoint resumed(path);
    EXPECT_EQ(resumed.resumed(), 2u);
    RunResult back;
    ASSERT_TRUE(resumed.lookup("key/a", &back));
    expectIdenticalResults(a, back);
    ASSERT_TRUE(resumed.lookup("key/b", &back));
    expectIdenticalResults(b, back);
    EXPECT_FALSE(resumed.lookup("key/missing", nullptr));
    std::remove(path.c_str());
}

TEST(SweepCheckpoint, CorruptManifestIsRejectedWholesale)
{
    const std::string path =
        testing::TempDir() + "jsmt_resilience_corrupt.json";
    std::remove(path.c_str());
    FaultPlan corrupting;
    ASSERT_TRUE(FaultPlan::parse("spill-corrupt=1", &corrupting));
    {
        SweepCheckpoint checkpoint(path);
        checkpoint.setFaultPlan(&corrupting);
        checkpoint.record("key/a", tinyResult("jess", false));
        // record() auto-flushed through the corrupting plan.
    }
    EXPECT_GE(corrupting.injected(FaultKind::kSpillCorrupt), 1u);
    SweepCheckpoint resumed(path);
    EXPECT_EQ(resumed.resumed(), 0u); // Cold start, no crash.
    std::remove(path.c_str());
}

TEST(SweepCheckpoint, CrashMidFlushLeavesPreviousManifestIntact)
{
    const std::string path =
        testing::TempDir() + "jsmt_resilience_truncate.json";
    std::remove(path.c_str());
    const RunResult a = tinyResult("jess", false);
    {
        // First flush clean, second one crashes mid-write.
        FaultPlan plan;
        ASSERT_TRUE(FaultPlan::parse("spill-truncate=2", &plan));
        SweepCheckpoint checkpoint(path, /*flush_every=*/1000);
        checkpoint.setFaultPlan(&plan);
        checkpoint.record("key/a", a);
        EXPECT_TRUE(checkpoint.flush());
        checkpoint.record("key/b", tinyResult("db", true));
        EXPECT_FALSE(checkpoint.flush()); // Injected crash.

        // The manifest on disk still holds exactly the first
        // flush's content.
        SweepCheckpoint observer(path);
        EXPECT_EQ(observer.resumed(), 1u);
        RunResult back;
        ASSERT_TRUE(observer.lookup("key/a", &back));
        expectIdenticalResults(a, back);
        EXPECT_FALSE(observer.lookup("key/b", nullptr));
        // checkpoint's destructor retries the pending flush; the
        // third save ordinal is unfaulted, so it lands.
    }
    SweepCheckpoint retried(path);
    EXPECT_EQ(retried.resumed(), 2u);
    EXPECT_TRUE(retried.lookup("key/b", nullptr));
    std::remove(path.c_str());
}

TEST(SweepResume, InterruptedSweepResumesBitIdentically)
{
    const std::string path =
        testing::TempDir() + "jsmt_resilience_sweep.json";
    std::remove(path.c_str());

    ExperimentConfig config;
    config.lengthScale = kTinyScale;
    config.jobs = 2;
    FaultPlan empty;
    config.supervision.faultPlan = &empty;

    // Uninterrupted baseline (no checkpoint).
    const std::vector<MtCounterRow> baseline =
        runMultithreadedSweep(config);

    // "Killed" sweep: two benchmarks' measurements fail terminally
    // (both HT modes), the rest land in the checkpoint.
    FaultPlan killer;
    ASSERT_TRUE(FaultPlan::parse("task-fail=MolDyn@99,"
                                 "task-fail=RayTracer@99",
                                 &killer));
    ExperimentConfig interrupted = config;
    interrupted.checkpointPath = path;
    interrupted.supervision.faultPlan = &killer;
    interrupted.supervision.maxAttempts = 2;
    BatchReport report;
    runMultithreadedSweep(interrupted, {2}, &report);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.failures.size(), 4u); // 2 benchmarks x 2 modes.

    // Resume with the fault gone: only the remainder is measured,
    // and the full row set matches the uninterrupted baseline
    // bit-for-bit.
    ExperimentConfig resumed = config;
    resumed.checkpointPath = path;
    const std::vector<MtCounterRow> rows =
        runMultithreadedSweep(resumed);
    ASSERT_EQ(rows.size(), baseline.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].benchmark, baseline[i].benchmark);
        expectIdenticalResults(rows[i].htOff, baseline[i].htOff);
        expectIdenticalResults(rows[i].htOn, baseline[i].htOn);
    }
    std::remove(path.c_str());
}

TEST(SweepResume, SupervisedPairBatchReportsInsteadOfThrowing)
{
    // Co-runs are memoized; start cold so both pairs are simulated.
    exec::RunCache::global().clear();
    FaultPlan killer;
    ASSERT_TRUE(FaultPlan::parse("task-fail=pair/jess+db@99",
                                 &killer));
    SupervisorOptions supervision;
    supervision.maxAttempts = 2;
    supervision.faultPlan = &killer;
    SystemConfig system;
    MultiprogramRunner runner(system, kTinyScale, /*min_runs=*/3,
                              /*jobs=*/2, supervision);
    BatchReport report;
    const std::vector<PairResult> results = runner.runPairs(
        {{"jess", "db"}, {"jess", "jess"}}, &report);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].name, "pair/jess+db");
    // The failed cell stays default-initialized; the other is real.
    EXPECT_EQ(results[0].combinedSpeedup, 0.0);
    EXPECT_GT(results[1].combinedSpeedup, 0.0);
}

} // namespace
} // namespace jsmt
