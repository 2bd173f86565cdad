/**
 * @file
 * Tests for the measurement harness: solo runs, the Tuck & Tullsen
 * repeat-relaunch pair runner and the combined-speedup math.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "exec/run_cache.h"
#include "harness/multiprogram.h"
#include "harness/solo.h"
#include "resilience/cancellation.h"
#include "harness/table.h"

namespace jsmt {
namespace {

constexpr double kSmallScale = 0.05;

/** Every field of two pair results, compared exactly. */
void
expectSamePair(const PairResult& x, const PairResult& y)
{
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.b, y.b);
    EXPECT_EQ(x.meanDurationA, y.meanDurationA);
    EXPECT_EQ(x.meanDurationB, y.meanDurationB);
    EXPECT_EQ(x.soloA, y.soloA);
    EXPECT_EQ(x.soloB, y.soloB);
    EXPECT_EQ(x.speedupA, y.speedupA);
    EXPECT_EQ(x.speedupB, y.speedupB);
    EXPECT_EQ(x.combinedSpeedup, y.combinedSpeedup);
    EXPECT_EQ(x.runsA, y.runsA);
    EXPECT_EQ(x.runsB, y.runsB);
    EXPECT_EQ(x.coRunCycles, y.coRunCycles);
}

/** A pair co-run twice from a cold cache, with each call's stderr. */
struct MissThenHit
{
    PairResult miss;
    PairResult hit;
    std::string missLog;
    std::string hitLog;
};

MissThenHit
runMissThenHit(const SystemConfig& config, double scale,
               std::size_t min_runs, const std::string& a,
               const std::string& b)
{
    exec::RunCache& cache = exec::RunCache::global();
    cache.clear();
    MultiprogramRunner runner(config, scale, min_runs);
    MissThenHit out;
    testing::internal::CaptureStderr();
    out.miss = runner.runPair(a, b);
    out.missLog = testing::internal::GetCapturedStderr();
    // Two solo baselines and one co-run, all simulated.
    EXPECT_EQ(cache.size(), a == b ? 2u : 3u);
    const std::uint64_t misses = cache.misses();
    testing::internal::CaptureStderr();
    out.hit = runner.runPair(a, b);
    out.hitLog = testing::internal::GetCapturedStderr();
    EXPECT_EQ(cache.misses(), misses) << "the second call simulated";
    return out;
}

TEST(Harness, DroppedMeanDropsFirstAndLast)
{
    EXPECT_DOUBLE_EQ(droppedMean({10.0, 2.0, 4.0, 100.0}), 3.0);
    // Too few samples: plain mean.
    EXPECT_DOUBLE_EQ(droppedMean({4.0, 6.0}), 5.0);
    EXPECT_DOUBLE_EQ(droppedMean({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(droppedMean({}), 0.0);
}

TEST(Harness, SoloDurationPositiveAndHtSensitive)
{
    SystemConfig config;
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = kSmallScale;
    const double off =
        soloDurationCycles(config, "compress", false, options);
    const double on =
        soloDurationCycles(config, "compress", true, options);
    EXPECT_GT(off, 0.0);
    EXPECT_GT(on, 0.0);
    // The static partition makes the HT-on solo run no faster.
    EXPECT_GE(on, off * 0.99);
}

TEST(Harness, MeasureSoloRunsWarmupIteration)
{
    SystemConfig config;
    SoloOptions warm;
    warm.threads = 1;
    warm.lengthScale = kSmallScale;
    warm.warmup = true;
    SoloOptions cold = warm;
    cold.warmup = false;
    const RunResult with_warm =
        measureSolo(config, "compress", true, warm);
    const RunResult no_warm =
        measureSolo(config, "compress", true, cold);
    // A warmed iteration sees fewer L2 misses than a cold one.
    EXPECT_LT(with_warm.total(EventId::kL2Miss),
              no_warm.total(EventId::kL2Miss));
}

TEST(Harness, PairRunnerProducesRequestedRuns)
{
    SystemConfig config;
    MultiprogramRunner runner(config, kSmallScale, 4);
    const PairResult pair = runner.runPair("compress", "jess");
    EXPECT_EQ(pair.a, "compress");
    EXPECT_EQ(pair.b, "jess");
    // 4 completions minus first and last.
    EXPECT_GE(pair.runsA, 2u);
    EXPECT_GE(pair.runsB, 2u);
    EXPECT_GT(pair.meanDurationA, 0.0);
    EXPECT_GT(pair.combinedSpeedup, 0.0);
    // An SMT machine cannot beat a perfect dual processor.
    EXPECT_LT(pair.combinedSpeedup, 2.05);
    EXPECT_NEAR(pair.combinedSpeedup,
                pair.speedupA + pair.speedupB, 1e-9);
}

TEST(Harness, SoloBaselineIsCached)
{
    SystemConfig config;
    MultiprogramRunner runner(config, kSmallScale, 3);
    const double first = runner.soloDuration("db");
    const double second = runner.soloDuration("db");
    EXPECT_DOUBLE_EQ(first, second);
}

TEST(Harness, IdenticalPairSlotsAreTrackedSeparately)
{
    SystemConfig config;
    MultiprogramRunner runner(config, kSmallScale, 3);
    const PairResult pair = runner.runPair("jess", "jess");
    EXPECT_GT(pair.speedupA, 0.0);
    EXPECT_GT(pair.speedupB, 0.0);
    // Symmetric programs: per-slot speedups should be similar.
    EXPECT_NEAR(pair.speedupA, pair.speedupB,
                0.5 * pair.speedupA);
}

TEST(HarnessMemo, MixedPairHitEqualsMiss)
{
    const MissThenHit run =
        runMissThenHit(SystemConfig{}, kSmallScale, 4, "compress",
                       "jess");
    expectSamePair(run.miss, run.hit);
    EXPECT_EQ(run.missLog.find("cycle budget"), std::string::npos);

    // The record survives a spill round trip bit for bit.
    exec::RunCache& cache = exec::RunCache::global();
    const std::string path =
        testing::TempDir() + "jsmt_harness_pair_spill.json";
    ASSERT_TRUE(cache.save(path));
    cache.clear();
    ASSERT_TRUE(cache.load(path));
    MultiprogramRunner runner(SystemConfig{}, kSmallScale, 4);
    const std::uint64_t misses = cache.misses();
    expectSamePair(run.miss, runner.runPair("compress", "jess"));
    EXPECT_EQ(cache.misses(), misses);
    std::remove(path.c_str());
}

TEST(HarnessMemo, IdenticalPairHitEqualsMiss)
{
    const MissThenHit run = runMissThenHit(SystemConfig{}, kSmallScale,
                                           3, "jess", "jess");
    expectSamePair(run.miss, run.hit);
}

TEST(HarnessMemo, SlotOrderAndRunCountAreInTheKey)
{
    SystemConfig ht;
    ht.hyperThreading = true;
    const std::string key =
        pairRunKey(ht, "compress", "jess", kSmallScale, 4);
    EXPECT_NE(key, pairRunKey(ht, "jess", "compress", kSmallScale, 4));
    EXPECT_NE(key, pairRunKey(ht, "compress", "jess", kSmallScale, 5));
    EXPECT_NE(key, pairRunKey(ht, "compress", "jess", 0.5, 4));
    SystemConfig other_seed = ht;
    other_seed.seed = 9;
    EXPECT_NE(key, pairRunKey(other_seed, "compress", "jess",
                              kSmallScale, 4));
}

// A machine with a tiny shared L2 behind a slow single port: a
// co-run is over 12x slower than solo, so the pair reaches its cycle
// budget before three completions each.
TEST(HarnessMemo, BudgetCutPairHitEqualsMissAndWarnsOnBoth)
{
    SystemConfig config;
    config.core.robEntries = 4;
    config.core.loadBufEntries = 2;
    config.mem.dramCycles = 5000;
    config.mem.fsbCyclesPerLine = 2000;
    config.mem.l2PortCycles = 3000;
    config.mem.l2Bytes = 32 * 1024;
    config.mem.l2Ways = 4;
    const MissThenHit run =
        runMissThenHit(config, 0.02, 3, "jess", "jess");
    expectSamePair(run.miss, run.hit);
    EXPECT_NE(run.missLog.find("hit the cycle budget"),
              std::string::npos)
        << run.missLog;
    EXPECT_NE(run.hitLog.find("hit the cycle budget"),
              std::string::npos)
        << run.hitLog;
    SystemConfig ht = config;
    ht.hyperThreading = true;
    RunResult record;
    ASSERT_TRUE(exec::RunCache::global().lookup(
        pairRunKey(ht, "jess", "jess", 0.02, 3), &record));
    EXPECT_FALSE(record.allComplete);
}

TEST(HarnessMemo, CancelledCoRunIsNeverCached)
{
    exec::RunCache& cache = exec::RunCache::global();
    cache.clear();
    SystemConfig config;
    MultiprogramRunner runner(config, kSmallScale, 3);
    // Warm the baselines so the token stops the co-run itself.
    runner.soloDuration("compress");
    runner.soloDuration("jess");
    const std::size_t entries = cache.size();
    resilience::CancellationToken token;
    token.cancel();
    EXPECT_THROW(runner.runPair("compress", "jess", &token),
                 resilience::TaskCancelledError);
    EXPECT_EQ(cache.size(), entries);
    config.hyperThreading = true;
    EXPECT_FALSE(cache.lookup(
        pairRunKey(config, "compress", "jess", kSmallScale, 3),
        nullptr));
}

TEST(Harness, TextTableFormats)
{
    TextTable table({"a", "bb"});
    table.addRow({"x", "1.50"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a  bb"), std::string::npos);
    EXPECT_NE(out.find("x  1.50"), std::string::npos);
    EXPECT_EQ(TextTable::fmt(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(std::uint64_t{42}), "42");
}

TEST(HarnessDeath, PairRunnerNeedsThreeRuns)
{
    SystemConfig config;
    EXPECT_EXIT(MultiprogramRunner(config, 1.0, 2),
                testing::ExitedWithCode(1), "at least 3");
}

} // namespace
} // namespace jsmt
