/**
 * @file
 * Tests for the core-allocation layer: policy determinism, the
 * static-pin single-core bit-identity contract, fast-forward
 * bit-identity across random chip topologies, tracing
 * transparency, allocation counters, and the pair-matrix acceptance
 * comparison against round-robin.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "jvm/benchmarks.h"
#include "os/allocation/allocation.h"
#include "os/allocation/multi_core.h"
#include "os/allocation/pair_matrix.h"
#include "resilience/fault_plan.h"
#include "trace/trace_sink.h"

namespace jsmt {
namespace {

/** Small but non-trivial scale: thousands of cycles per process. */
constexpr double kScale = 0.02;

MultiCoreConfig
chipConfig(std::uint32_t cores, AllocPolicyKind policy,
           Cycle epoch = 20'000)
{
    MultiCoreConfig config;
    config.system.seed = 42;
    config.cores = cores;
    config.policy = policy;
    config.epochCycles = epoch;
    return config;
}

MultiRunResult
runChip(const MultiCoreConfig& config,
        const std::vector<std::string>& benchmarks,
        bool fast_forward = true, trace::TraceSink* sink = nullptr)
{
    MultiCoreSystem system(config);
    MultiCoreSimulation sim(system);
    for (const std::string& name : benchmarks) {
        WorkloadSpec spec;
        spec.benchmark = name;
        spec.lengthScale = kScale;
        sim.addProcess(spec);
    }
    MultiCoreSimulation::RunOptions options;
    options.fastForward = fast_forward;
    options.trace = sink;
    return sim.run(options);
}

void
expectIdentical(const MultiRunResult& a, const MultiRunResult& b)
{
    ASSERT_EQ(a.cycles, b.cycles);
    ASSERT_EQ(a.allComplete, b.allComplete);
    ASSERT_EQ(a.epochs, b.epochs);
    ASSERT_EQ(a.migrations, b.migrations);
    ASSERT_EQ(a.steals, b.steals);
    ASSERT_EQ(a.coreEvents.size(), b.coreEvents.size());
    for (std::size_t core = 0; core < a.coreEvents.size(); ++core) {
        for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
            for (std::size_t e = 0; e < kNumEventIds; ++e) {
                ASSERT_EQ(a.coreEvents[core][ctx][e],
                          b.coreEvents[core][ctx][e])
                    << "core " << core << " ctx " << ctx
                    << " event "
                    << eventName(static_cast<EventId>(e));
            }
        }
    }
    ASSERT_EQ(a.processes.size(), b.processes.size());
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
        EXPECT_EQ(a.processes[i].completionCycle,
                  b.processes[i].completionCycle);
        EXPECT_EQ(a.processes[i].finalCore,
                  b.processes[i].finalCore);
        EXPECT_EQ(a.processes[i].migrations,
                  b.processes[i].migrations);
    }
    ASSERT_EQ(a.migrationLog.size(), b.migrationLog.size());
    for (std::size_t i = 0; i < a.migrationLog.size(); ++i) {
        EXPECT_EQ(a.migrationLog[i].epoch, b.migrationLog[i].epoch);
        EXPECT_EQ(a.migrationLog[i].process,
                  b.migrationLog[i].process);
        EXPECT_EQ(a.migrationLog[i].from, b.migrationLog[i].from);
        EXPECT_EQ(a.migrationLog[i].to, b.migrationLog[i].to);
        EXPECT_EQ(a.migrationLog[i].steal, b.migrationLog[i].steal);
    }
}

// ---------------------------------------------------------------
// Policy registry
// ---------------------------------------------------------------

TEST(AllocationPolicy, RegistryRoundTrips)
{
    const std::vector<std::string>& names = allocPolicyNames();
    ASSERT_EQ(names.size(), 4u);
    for (const std::string& name : names) {
        const auto kind = allocPolicyFromName(name);
        ASSERT_TRUE(kind.has_value()) << name;
        EXPECT_EQ(allocPolicyName(*kind), name);
        EXPECT_EQ(makeAllocationPolicy(*kind)->name(), name);
    }
    EXPECT_FALSE(allocPolicyFromName("no-such-policy").has_value());
}

// ---------------------------------------------------------------
// Determinism: every policy, twice, bit-identical.
// ---------------------------------------------------------------

TEST(AllocationPolicy, EveryPolicyIsDeterministic)
{
    const std::vector<std::string> mix = {"PseudoJBB", "jess",
                                          "MolDyn", "db"};
    for (const std::string& name : allocPolicyNames()) {
        const auto kind = allocPolicyFromName(name);
        ASSERT_TRUE(kind.has_value());
        const MultiCoreConfig config = chipConfig(2, *kind);
        const MultiRunResult first = runChip(config, mix);
        const MultiRunResult second = runChip(config, mix);
        ASSERT_TRUE(first.allComplete) << name;
        expectIdentical(first, second);
    }
}

// ---------------------------------------------------------------
// Static-pin on one core degenerates to the plain Simulation.
// ---------------------------------------------------------------

TEST(AllocationPolicy, StaticPinSingleCoreMatchesPlainSimulation)
{
    const std::vector<std::string> mix = {"PseudoJBB", "jack"};

    SystemConfig plain_config;
    plain_config.seed = 42;
    Machine machine(plain_config);
    Simulation plain(machine);
    for (const std::string& name : mix) {
        WorkloadSpec spec;
        spec.benchmark = name;
        spec.lengthScale = kScale;
        plain.addProcess(spec);
    }
    const RunResult expected = plain.run();
    ASSERT_TRUE(expected.allComplete);

    const MultiCoreConfig config =
        chipConfig(1, AllocPolicyKind::kStaticPin);
    const MultiRunResult multi = runChip(config, mix);
    ASSERT_TRUE(multi.allComplete);
    EXPECT_EQ(multi.migrations, 0u);
    EXPECT_EQ(multi.steals, 0u);

    // The multi-core clock rounds the finish up to the next epoch
    // edge, but that padding is pure idle-clock advance with no
    // accounting: every measured event and completion must be bit
    // for bit what the plain driver produced.
    const RunResult folded = multi.toRunResult();
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            ASSERT_EQ(folded.events[ctx][e],
                      expected.events[ctx][e])
                << "ctx " << ctx << " event "
                << eventName(static_cast<EventId>(e));
        }
    }
    ASSERT_EQ(multi.processes.size(), expected.processes.size());
    for (std::size_t i = 0; i < multi.processes.size(); ++i) {
        EXPECT_EQ(multi.processes[i].completionCycle,
                  expected.processes[i].completionCycle);
        EXPECT_EQ(multi.processes[i].durationCycles,
                  expected.processes[i].durationCycles);
    }
}

// ---------------------------------------------------------------
// Randomized topology fuzz: fast-forward never changes results.
// ---------------------------------------------------------------

TEST(AllocationPolicy, FuzzFastForwardBitIdenticalAcrossTopologies)
{
    const std::vector<std::string>& names = benchmarkNames();
    std::mt19937_64 rng(20260809);
    for (int trial = 0; trial < 6; ++trial) {
        const std::array<std::uint32_t, 3> core_choices = {1, 2, 4};
        const std::uint32_t cores = core_choices[rng() % 3];
        const auto kind = static_cast<AllocPolicyKind>(rng() % 4);
        std::vector<std::string> mix;
        const std::size_t procs = 2 + rng() % (2 * cores);
        for (std::size_t p = 0; p < procs; ++p)
            mix.push_back(names[rng() % names.size()]);

        MultiCoreConfig config = chipConfig(cores, kind);
        config.system.seed = rng();
        const MultiRunResult plain = runChip(config, mix, false);
        const MultiRunResult fast = runChip(config, mix, true);
        ASSERT_TRUE(plain.allComplete)
            << "trial " << trial << " cores " << cores << " policy "
            << allocPolicyName(kind);
        expectIdentical(plain, fast);
    }
}

// ---------------------------------------------------------------
// Tracing never perturbs the chip: a degraded sink records nothing,
// and an enabled one captures the same merged shard sequence on
// every run.
// ---------------------------------------------------------------

TEST(AllocationPolicy, StepThreadsIdenticalUnderHostileFaultPlan)
{
    // (The name predates serial-only stepping.) A hostile fault
    // plan that kills the trace-sink ring must not perturb the
    // chip: the degraded sink suppresses the per-core shard
    // machinery (shards only exist for an enabled sink), records
    // nothing, and results stay bit-identical to an untraced run.
    resilience::FaultPlan plan;
    ASSERT_TRUE(resilience::FaultPlan::parse("sink-alloc", &plan));
    const std::vector<std::string> mix = {"PseudoJBB", "jess",
                                          "MolDyn", "db"};
    const MultiCoreConfig config =
        chipConfig(2, AllocPolicyKind::kIpcSymbiosis);

    const MultiRunResult reference = runChip(config, mix);
    ASSERT_TRUE(reference.allComplete);

    trace::TraceSink degraded(1u << 12, &plan);
    ASSERT_TRUE(degraded.degraded());
    degraded.setEnabled(true); // Ignored: stays degraded.
    const MultiRunResult traced =
        runChip(config, mix, true, &degraded);
    expectIdentical(reference, traced);
    EXPECT_EQ(degraded.size(), 0u);
}

TEST(AllocationPolicy, StepThreadTraceShardsMergeDeterministically)
{
    // (The name predates serial-only stepping.) Per-core shards
    // are drained into the user's sink in core order at each epoch
    // edge: two traced runs capture the same event sequence, and
    // tracing leaves the results equal to an untraced run's.
    const std::vector<std::string> mix = {"PseudoJBB", "jack",
                                          "compress"};
    const MultiCoreConfig config =
        chipConfig(2, AllocPolicyKind::kRoundRobin);

    const MultiRunResult reference = runChip(config, mix);
    ASSERT_TRUE(reference.allComplete);

    trace::TraceSink first_sink(1u << 15);
    first_sink.setEnabled(true);
    const MultiRunResult first =
        runChip(config, mix, true, &first_sink);
    expectIdentical(reference, first);

    trace::TraceSink second_sink(1u << 15);
    second_sink.setEnabled(true);
    const MultiRunResult second =
        runChip(config, mix, true, &second_sink);
    expectIdentical(reference, second);

    const std::vector<trace::TraceEvent> expected =
        first_sink.events();
    const std::vector<trace::TraceEvent> actual =
        second_sink.events();
    ASSERT_GT(expected.size(), 0u);
    ASSERT_EQ(expected.size(), actual.size());
    EXPECT_EQ(first_sink.dropped(), second_sink.dropped());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE("event " + std::to_string(i));
        ASSERT_EQ(expected[i].ts, actual[i].ts);
        ASSERT_EQ(expected[i].dur, actual[i].dur);
        ASSERT_STREQ(expected[i].name, actual[i].name);
        ASSERT_EQ(expected[i].track, actual[i].track);
        ASSERT_EQ(expected[i].phase, actual[i].phase);
        ASSERT_EQ(expected[i].argValue, actual[i].argValue);
        ASSERT_EQ(expected[i].argText, actual[i].argText);
    }
}

// ---------------------------------------------------------------
// Counters: rotation migrates, pinning never does.
// ---------------------------------------------------------------

TEST(AllocationPolicy, RoundRobinRotatesAndStaticPinDoesNot)
{
    const std::vector<std::string> mix = {"PseudoJBB", "jess",
                                          "MolDyn", "db"};
    const MultiRunResult pinned = runChip(
        chipConfig(2, AllocPolicyKind::kStaticPin), mix);
    EXPECT_EQ(pinned.migrations, 0u);
    EXPECT_EQ(pinned.steals, 0u);
    EXPECT_TRUE(pinned.migrationLog.empty());

    const MultiRunResult rotated = runChip(
        chipConfig(2, AllocPolicyKind::kRoundRobin), mix);
    ASSERT_TRUE(rotated.allComplete);
    EXPECT_GT(rotated.epochs, 1u);
    EXPECT_GT(rotated.migrations, 0u);
    EXPECT_EQ(rotated.migrationLog.size(),
              rotated.migrations + rotated.steals);
    for (const MigrationRecord& record : rotated.migrationLog) {
        EXPECT_NE(record.from, record.to);
        EXPECT_LT(record.to, 2u);
    }
}

TEST(AllocationPolicy, StealKeepsNoCoreIdle)
{
    // Three processes on two cores under a feedback policy: after
    // one finishes early the emptied core must pull work over.
    const std::vector<std::string> mix = {"PseudoJBB", "PseudoJBB",
                                          "compress"};
    const MultiRunResult result = runChip(
        chipConfig(2, AllocPolicyKind::kIpcSymbiosis), mix);
    ASSERT_TRUE(result.allComplete);
    // Every process got a core in [0, 2).
    for (const MultiProcessRecord& record : result.processes)
        EXPECT_LT(record.finalCore, 2u);
}

// ---------------------------------------------------------------
// Acceptance: feedback placement beats blind rotation on the
// canonical ten pairings.
// ---------------------------------------------------------------

TEST(PairMatrix, CanonicalPairingListIsTenIdenticalPairs)
{
    const auto identical = pairMatrixPairings(true);
    ASSERT_EQ(identical.size(), benchmarkNames().size());
    ASSERT_EQ(identical.size(), 10u);
    for (const auto& [a, b] : identical)
        EXPECT_EQ(a, b);
    const auto full = pairMatrixPairings(false);
    EXPECT_EQ(full.size(), 55u);
}

TEST(PairMatrix, SymbiosisBeatsRoundRobinOnMostPairings)
{
    SystemConfig config;
    config.seed = 42;
    PairMatrixOptions options;
    options.cores = 2;
    options.lengthScale = kScale;
    options.epochCycles = 20'000;
    options.identicalOnly = true;

    options.policy = AllocPolicyKind::kRoundRobin;
    const std::vector<PairMatrixCell> baseline =
        runPairMatrix(config, options);
    options.policy = AllocPolicyKind::kIpcSymbiosis;
    const std::vector<PairMatrixCell> symbiosis =
        runPairMatrix(config, options);

    ASSERT_EQ(baseline.size(), 10u);
    ASSERT_EQ(symbiosis.size(), 10u);
    int wins = 0;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        ASSERT_TRUE(baseline[i].result.allComplete)
            << baseline[i].a;
        ASSERT_TRUE(symbiosis[i].result.allComplete)
            << symbiosis[i].a;
        if (symbiosis[i].uopThroughput > baseline[i].uopThroughput)
            ++wins;
    }
    // The issue's acceptance bar: feedback placement must win the
    // aggregate-throughput comparison on at least 6 of the 10
    // canonical pairings.
    EXPECT_GE(wins, 6) << "symbiosis won only " << wins
                       << " of 10 pairings";
}

TEST(PairMatrixDeath, RejectsAnyStepThreadsButOne)
{
    // Cells step their slices serially; the member survives only
    // for callers that still set it to 1.
    SystemConfig config;
    PairMatrixOptions options;
    options.identicalOnly = true;
    for (const std::uint32_t threads : {0u, 2u, 4u}) {
        options.stepThreads = threads;
        EXPECT_EXIT(runPairMatrix(config, options),
                    testing::ExitedWithCode(1),
                    "stepThreads must be 1");
    }
}

} // namespace
} // namespace jsmt
