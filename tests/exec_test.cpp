/**
 * @file
 * Tests for the parallel experiment engine: TaskPool scheduling and
 * exception semantics, RunCache memoization and JSON spill, and the
 * determinism gate — the same measurements must be bit-identical
 * whether they run serially, across many jobs, or replay from the
 * cache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/exact_div.h"
#include "common/rng.h"
#include "core/simulation.h"
#include "exec/result_codec.h"
#include "exec/run_cache.h"
#include "exec/task_pool.h"
#include "harness/solo.h"
#include "jvm/benchmarks.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_plan.h"

namespace jsmt {
namespace {

using exec::RunCache;
using exec::TaskPool;

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

TEST(TaskPool, RunsEveryIndexExactlyOnce)
{
    TaskPool pool(4);
    std::vector<int> touched(997, 0);
    pool.parallelFor(touched.size(), [&](std::size_t i) {
        ++touched[i]; // Each index is claimed by exactly one worker.
    });
    for (std::size_t i = 0; i < touched.size(); ++i)
        ASSERT_EQ(touched[i], 1) << "index " << i;
}

TEST(TaskPool, SingleJobRunsInline)
{
    TaskPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    const auto caller = std::this_thread::get_id();
    bool inline_everywhere = true;
    pool.parallelFor(16, [&](std::size_t) {
        if (std::this_thread::get_id() != caller)
            inline_everywhere = false;
    });
    EXPECT_TRUE(inline_everywhere);
}

TEST(TaskPool, MapCollectsByIndex)
{
    TaskPool pool(3);
    const std::vector<int> squares =
        pool.map<int>(50, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(squares.size(), 50u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));
}

TEST(TaskPool, FirstExceptionPropagatesAndPoolSurvives)
{
    TaskPool pool(2);
    EXPECT_THROW(pool.parallelFor(32,
                                  [](std::size_t i) {
                                      if (i == 7) {
                                          throw std::runtime_error(
                                              "boom");
                                      }
                                  }),
                 std::runtime_error);
    // The pool is reusable after a failed batch.
    std::vector<int> touched(8, 0);
    pool.parallelFor(touched.size(),
                     [&](std::size_t i) { ++touched[i]; });
    for (const int count : touched)
        EXPECT_EQ(count, 1);
}

TEST(TaskPool, WorkersShareOneGeometricTable)
{
    // A p no synthesis path uses, so the workers' lookups are the
    // first requests for it in this process and race to build it.
    const double p = 1.0 / 3.14159;
    constexpr std::size_t kWorkers = 4;
    TaskPool pool(kWorkers);
    std::atomic<std::size_t> arrived{0};
    std::vector<const GeoTable*> seen(kWorkers * 8);
    std::vector<std::uint64_t> draws(seen.size());
    pool.parallelFor(seen.size(), [&](std::size_t i) {
        // Hold the first tasks at a start line (bounded, in case
        // fewer workers run at once) so their lookups overlap.
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (arrived.load() < kWorkers &&
               std::chrono::steady_clock::now() < deadline) {
        }
        seen[i] = &GeoTable::forP(p);
        Rng rng(i);
        for (int k = 0; k < 1000; ++k)
            draws[i] += rng.geometric(p);
    });
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], seen[0]) << i;
        // Each worker's stream matches the same stream drawn here.
        Rng rng(i);
        std::uint64_t expected = 0;
        for (int k = 0; k < 1000; ++k)
            expected += rng.geometric(p);
        EXPECT_EQ(draws[i], expected) << i;
    }
    EXPECT_EQ(seen[0]->p(), p);
}

TEST(TaskPool, WorkersShareOneExactDivisor)
{
    // A divisor no synthesis path uses, so the workers' lookups are
    // the first requests for it in this process and race to build
    // (and self-check) it.
    constexpr std::uint64_t d = 0x7ace'0000'0003ULL;
    constexpr std::size_t kWorkers = 4;
    const std::size_t interned = ExactDiv::internedCount();
    TaskPool pool(kWorkers);
    std::atomic<std::size_t> arrived{0};
    std::vector<const ExactDiv*> seen(kWorkers * 8);
    std::vector<std::uint64_t> draws(seen.size());
    pool.parallelFor(seen.size(), [&](std::size_t i) {
        // Hold the first tasks at a start line (bounded, in case
        // fewer workers run at once) so their lookups overlap.
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (arrived.load() < kWorkers &&
               std::chrono::steady_clock::now() < deadline) {
        }
        seen[i] = &ExactDiv::forDivisor(d);
        const ExactDiv copy = *seen[i];
        Rng rng(i);
        for (int k = 0; k < 1000; ++k)
            draws[i] += copy.draw(rng);
    });
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], seen[0]) << i;
        Rng rng(i);
        std::uint64_t expected = 0;
        for (int k = 0; k < 1000; ++k)
            expected += rng.below(d);
        EXPECT_EQ(draws[i], expected) << i;
    }
    EXPECT_EQ(seen[0]->divisor(), d);
    EXPECT_EQ(ExactDiv::internedCount(), interned + 1);
}

TEST(TaskPool, JobResolutionHonorsEnvironment)
{
    EXPECT_EQ(TaskPool::resolveJobs(5), 5u);
    setenv("JSMT_JOBS", "3", 1);
    EXPECT_EQ(TaskPool::defaultJobs(), 3u);
    EXPECT_EQ(TaskPool::resolveJobs(0), 3u);
    unsetenv("JSMT_JOBS");
    EXPECT_GE(TaskPool::resolveJobs(0), 1u);
}

TEST(RunCache, MissComputesAndHitReplays)
{
    RunCache cache;
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        RunResult result;
        result.cycles = 42;
        result.allComplete = true;
        return result;
    };
    const RunResult first = cache.getOrCompute("k", compute);
    const RunResult second = cache.getOrCompute("k", compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(first.cycles, 42u);
    EXPECT_EQ(second.cycles, 42u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(RunCache, SpillRoundTripPreservesEverything)
{
    RunResult result;
    result.cycles = 123456;
    result.allComplete = true;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e) {
            result.events[ctx][e] =
                1000 * (ctx + 1) + static_cast<std::uint64_t>(e);
        }
    }
    ProcessResult pr;
    pr.pid = 7;
    pr.benchmark = "compress";
    pr.complete = true;
    pr.launchCycle = 10;
    pr.completionCycle = 110;
    pr.durationCycles = 100;
    pr.gcRuns = 3;
    pr.allocatedBytes = 65536;
    result.processes.push_back(pr);

    const std::string path =
        testing::TempDir() + "jsmt_exec_test_spill.json";
    {
        RunCache cache;
        cache.insert("spill-key", result);
        ASSERT_TRUE(cache.save(path));
    }
    RunCache reloaded;
    ASSERT_TRUE(reloaded.load(path));
    EXPECT_EQ(reloaded.size(), 1u);
    RunResult back;
    ASSERT_TRUE(reloaded.lookup("spill-key", &back));
    expectIdenticalResults(result, back);
    EXPECT_EQ(back.processes[0].pid, 7u);
    EXPECT_EQ(back.processes[0].launchCycle, 10u);
    EXPECT_EQ(back.processes[0].completionCycle, 110u);
    std::remove(path.c_str());
}

TEST(RunCache, MalformedSpillIsIgnored)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_garbage.json";
    {
        std::ofstream out(path);
        out << "{\"entries\": not json at all";
    }
    RunCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

// A spill truncated mid-write (crash, full disk) must be rejected
// as a whole: no exception, no partial entries.
TEST(RunCache, TruncatedSpillIsRejectedAtomically)
{
    RunResult result;
    result.cycles = 77;
    result.allComplete = true;
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_truncated.json";
    {
        RunCache cache;
        cache.insert("a", result);
        cache.insert("b", result);
        ASSERT_TRUE(cache.save(path));
    }
    std::string text;
    {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    // Cut the document mid-structure (inside the closing brackets,
    // inside the second entry, and halfway through the file); none
    // of the prefixes may load anything.
    for (const std::size_t cut :
         {text.size() - 3, text.size() - 10, text.size() / 2}) {
        std::ofstream(path, std::ios::trunc)
            << text.substr(0, cut);
        RunCache cache;
        EXPECT_FALSE(cache.load(path)) << "cut at " << cut;
        EXPECT_EQ(cache.size(), 0u) << "cut at " << cut;
    }
    std::remove(path.c_str());
}

TEST(RunCache, GarbageSpillDegradesToEmptyCache)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_noise.json";
    const std::vector<std::string> payloads = {
        "",
        "\0\0\0\0",
        "[1,2,3]",
        "{\"entries\":{}}",
        "{\"entries\":[{\"key\":\"k\"}]} trailing",
        "{\"version\":1}",
    };
    for (const std::string& payload : payloads) {
        std::ofstream(path, std::ios::trunc) << payload;
        RunCache cache;
        EXPECT_FALSE(cache.load(path));
        EXPECT_EQ(cache.size(), 0u);
        // The cache keeps working normally afterwards.
        RunResult result;
        result.cycles = 9;
        cache.insert("k", result);
        EXPECT_EQ(cache.size(), 1u);
    }
    std::remove(path.c_str());
}

// One malformed entry poisons the whole file — a valid sibling
// entry must NOT be half-loaded alongside it.
TEST(RunCache, PartiallyValidSpillIsNotHalfLoaded)
{
    RunResult result;
    result.cycles = 55;
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_partial.json";
    std::string good;
    {
        RunCache cache;
        cache.insert("good", result);
        ASSERT_TRUE(cache.save(path));
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        good = buffer.str();
    }
    // Splice a syntactically-valid but structurally-broken entry
    // (events matrix missing) into the entries array.
    const std::string marker = "\"entries\":[\n";
    const std::size_t pos = good.find(marker);
    ASSERT_NE(pos, std::string::npos);
    std::string bad = good;
    bad.insert(pos + marker.size(),
               "{\"key\":\"bad\",\"result\":{\"cycles\":1}},\n");
    std::ofstream(path, std::ios::trunc) << bad;

    RunCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup("good", nullptr));
    std::remove(path.c_str());
}

// setSpillPath on a corrupt file must not crash and must leave the
// cache usable (cold).
TEST(RunCache, SpillPathOnCorruptFileStartsCold)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_coldstart.json";
    std::ofstream(path, std::ios::trunc) << "{\"entries\":[{]}";
    RunCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    RunResult result;
    result.cycles = 3;
    cache.insert("k", result);
    EXPECT_EQ(cache.size(), 1u);
    std::remove(path.c_str());
}

std::string
readText(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Every field of two results, process identity included. */
void
expectSameRecords(const RunResult& a, const RunResult& b)
{
    expectIdenticalResults(a, b);
    ASSERT_EQ(a.processes.size(), b.processes.size());
    for (std::size_t i = 0; i < a.processes.size(); ++i) {
        EXPECT_EQ(a.processes[i].pid, b.processes[i].pid);
        EXPECT_EQ(a.processes[i].complete, b.processes[i].complete);
        EXPECT_EQ(a.processes[i].launchCycle,
                  b.processes[i].launchCycle);
        EXPECT_EQ(a.processes[i].completionCycle,
                  b.processes[i].completionCycle);
    }
}

/** A record with every field set, and an awkward benchmark name. */
RunResult
busyRecord()
{
    RunResult result;
    result.cycles = 18446744073709551615ULL; // UINT64_MAX survives.
    result.allComplete = true;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        for (std::size_t e = 0; e < kNumEventIds; ++e)
            result.events[ctx][e] = 31 * e + ctx;
    }
    ProcessResult pr;
    pr.pid = 4294967295u;
    pr.benchmark = "we\"ird\\name";
    pr.complete = true;
    pr.launchCycle = 1;
    pr.completionCycle = 2;
    pr.durationCycles = 3;
    pr.gcRuns = 4;
    pr.allocatedBytes = 5;
    result.processes.push_back(pr);
    return result;
}

/** A pair co-run record: zero events, two positional slots. */
RunResult
pairRecord()
{
    RunResult result;
    result.cycles = 9000;
    for (std::uint32_t slot = 0; slot < 2; ++slot) {
        ProcessResult pr;
        pr.pid = slot;
        pr.benchmark = slot == 0 ? "compress" : "jess";
        pr.complete = slot == 0;
        pr.completionCycle = 12 - slot;
        pr.durationCycles = 4242 + slot;
        result.processes.push_back(pr);
    }
    return result;
}

TEST(RunCache, V2SpillWritesCompactRecordsAndRoundTrips)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_v2_spill.json";
    resilience::FaultPlan empty;
    {
        RunCache cache;
        cache.setFaultPlan(&empty);
        cache.insert("busy", busyRecord());
        cache.insert("pair", pairRecord());
        cache.insert("empty", RunResult{});
        ASSERT_TRUE(cache.save(path));
    }
    const std::string text = readText(path);
    EXPECT_EQ(text.rfind(exec::kVersionHeader, 0), 0u) << text;
    EXPECT_NE(text.find("\"events\":[],\"processes\":[[0,\"compress\","
                        "true,0,12,4242,0,0],[1,\"jess\",false,0,11,"
                        "4243,0,0]]"),
              std::string::npos)
        << text;

    RunCache reloaded;
    ASSERT_TRUE(reloaded.load(path));
    EXPECT_EQ(reloaded.size(), 3u);
    RunResult back;
    ASSERT_TRUE(reloaded.lookup("busy", &back));
    expectSameRecords(busyRecord(), back);
    ASSERT_TRUE(reloaded.lookup("pair", &back));
    expectSameRecords(pairRecord(), back);
    ASSERT_TRUE(reloaded.lookup("empty", &back));
    expectSameRecords(RunResult{}, back);
    std::remove(path.c_str());
}

// save() writes hashKey(key) next to every key; load() must check
// it, so one flipped key byte rejects the whole file.
TEST(RunCache, FlippedKeyByteRejectsTheWholeSpill)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_flipped_key.json";
    resilience::FaultPlan empty;
    {
        RunCache cache;
        cache.setFaultPlan(&empty);
        cache.insert("alpha", pairRecord());
        cache.insert("beta", pairRecord());
        ASSERT_TRUE(cache.save(path));
    }
    std::string text = readText(path);
    const std::size_t at = text.find("\"key\":\"beta\"");
    ASSERT_NE(at, std::string::npos);
    text[at + 7] = 'B';
    std::ofstream(path, std::ios::trunc) << text;

    const std::uint64_t rejects = RunCache::totalSpillLoadRejects();
    RunCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup("alpha", nullptr));
    EXPECT_EQ(RunCache::totalSpillLoadRejects(), rejects + 1);
    std::remove(path.c_str());
}

// A result with events and no processes serializes the same way in
// the version-1 and version-2 layouts, so in the fixtures below the
// version number is the only thing wrong with the document.
TEST(RunCache, VersionOneSpillIsRejectedWhole)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_v1_spill.json";
    RunResult result;
    result.cycles = 5;
    result.events[0][0] = 7;
    std::string record;
    exec::writeRunResultJson(record, result);
    std::ofstream(path, std::ios::trunc)
        << "{\"version\":1,\"entries\":[\n{\"key\":\"k\",\"hash\":"
        << exec::hashKey("k") << ",\"result\":" << record
        << "}\n]}\n";
    {
        // The same entry under the current header loads.
        std::string current = readText(path);
        current.replace(0, std::string_view("{\"version\":1,").size(),
                        exec::kVersionHeader);
        const std::string v2_path = path + ".v2";
        std::ofstream(v2_path, std::ios::trunc) << current;
        RunCache control;
        EXPECT_TRUE(control.load(v2_path));
        EXPECT_EQ(control.size(), 1u);
        std::remove(v2_path.c_str());
    }

    const std::uint64_t rejects = RunCache::totalSpillLoadRejects();
    RunCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(RunCache::totalSpillLoadRejects(), rejects + 1);
    std::remove(path.c_str());
}

TEST(SweepCheckpointCodec, V2ManifestRoundTripsThroughTheSharedCodec)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_v2_manifest.json";
    std::remove(path.c_str());
    const std::string topology =
        resilience::SweepCheckpoint::describeTopology(1, "static-pin");
    resilience::FaultPlan empty;
    {
        resilience::SweepCheckpoint checkpoint(path, 1000, topology);
        checkpoint.setFaultPlan(&empty);
        checkpoint.record("busy", busyRecord());
        checkpoint.record("pair", pairRecord());
        ASSERT_TRUE(checkpoint.flush());
    }
    const std::string text = readText(path);
    EXPECT_EQ(text.rfind(exec::kVersionHeader, 0), 0u) << text;
    EXPECT_NE(text.find("\"events\":[]"), std::string::npos) << text;

    resilience::SweepCheckpoint resumed(path, 1, topology);
    EXPECT_FALSE(resumed.topologyMismatch());
    EXPECT_EQ(resumed.resumed(), 2u);
    RunResult back;
    ASSERT_TRUE(resumed.lookup("busy", &back));
    expectSameRecords(busyRecord(), back);
    ASSERT_TRUE(resumed.lookup("pair", &back));
    expectSameRecords(pairRecord(), back);
    std::remove(path.c_str());
}

TEST(SweepCheckpointCodec, VersionOneManifestIsRejectedWhole)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_v1_manifest.json";
    RunResult result;
    result.cycles = 5;
    result.events[0][0] = 7;
    std::string record;
    exec::writeRunResultJson(record, result);
    const std::string digest = std::to_string(exec::hashKey(record));
    const std::string entries =
        "\"topology\":\"cores=1;alloc=static-pin\",\"entries\":[\n"
        "{\"key\":\"k\",\"digest\":\"" + digest + "\",\"result\":" +
        record + "}\n]}\n";
    {
        // The same entry under the current header resumes.
        std::ofstream(path, std::ios::trunc)
            << exec::kVersionHeader << entries;
        resilience::SweepCheckpoint control(path);
        EXPECT_EQ(control.resumed(), 1u);
    }
    std::ofstream(path, std::ios::trunc)
        << "{\"version\":1," << entries;

    const std::uint64_t rejects =
        resilience::SweepCheckpoint::totalLoadRejects();
    resilience::SweepCheckpoint checkpoint(path);
    EXPECT_EQ(checkpoint.resumed(), 0u);
    EXPECT_EQ(checkpoint.size(), 0u);
    EXPECT_EQ(resilience::SweepCheckpoint::totalLoadRejects(),
              rejects + 1);
    std::remove(path.c_str());
}

TEST(RunCache, DescribeSystemConfigCoversTheConfig)
{
    const SystemConfig base;
    SystemConfig bigger_l2 = base;
    bigger_l2.mem.l2Bytes *= 2;
    SystemConfig other_seed = base;
    other_seed.seed = 7;
    SystemConfig ht_off = base;
    ht_off.hyperThreading = false;
    SystemConfig dynamic = base;
    dynamic.core.partitionPolicy = PartitionPolicy::kDynamic;

    const std::string description =
        exec::describeSystemConfig(base);
    EXPECT_EQ(description, exec::describeSystemConfig(base));
    EXPECT_NE(description,
              exec::describeSystemConfig(bigger_l2));
    EXPECT_NE(description,
              exec::describeSystemConfig(other_seed));
    EXPECT_NE(description, exec::describeSystemConfig(ht_off));
    EXPECT_NE(description, exec::describeSystemConfig(dynamic));
}

TEST(RunCache, HashKeyIsFnv1a)
{
    // FNV-1a offset basis for the empty string; distinct elsewhere.
    EXPECT_EQ(exec::hashKey(""), 0xcbf29ce484222325ULL);
    EXPECT_NE(exec::hashKey("a"), exec::hashKey("b"));
}

// The determinism gate: the same measurement matrix must produce
// bit-identical results serially, under many jobs, and through the
// cache. On a single-core host the 8-job pool still exercises the
// cross-thread path (7 workers plus the caller).
TEST(ExecDeterminism, ParallelJobsMatchSerial)
{
    const SystemConfig config;
    struct Point
    {
        const char* benchmark;
        bool ht;
    };
    const std::vector<Point> points = {
        {"compress", false},
        {"compress", true},
        {"jess", true},
        {"db", false},
    };
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = kTinyScale;

    std::vector<RunResult> serial;
    serial.reserve(points.size());
    for (const Point& point : points) {
        serial.push_back(measureSolo(config, point.benchmark,
                                     point.ht, options));
    }

    TaskPool pool(8);
    const std::vector<RunResult> parallel =
        pool.map<RunResult>(points.size(), [&](std::size_t i) {
            return measureSolo(config, points[i].benchmark,
                               points[i].ht, options);
        });

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdenticalResults(serial[i], parallel[i]);
}

TEST(ExecDeterminism, CachedReplayMatchesFreshRun)
{
    const SystemConfig config;
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = kTinyScale;

    const RunResult fresh =
        measureSolo(config, "mpegaudio", true, options);

    RunCache cache;
    const std::string key =
        soloRunKey(config, "mpegaudio", true, options);
    const auto compute = [&] {
        return measureSolo(config, "mpegaudio", true, options);
    };
    const RunResult computed = cache.getOrCompute(key, compute);
    const RunResult replayed = cache.getOrCompute(key, compute);
    EXPECT_EQ(cache.hits(), 1u);
    expectIdenticalResults(fresh, computed);
    expectIdenticalResults(fresh, replayed);
}

TEST(ExecDeterminism, SpilledReplayMatchesFreshRun)
{
    const SystemConfig config;
    SoloOptions options;
    options.threads = 1;
    options.lengthScale = kTinyScale;
    const std::string key =
        soloRunKey(config, "jack", false, options);
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_roundtrip.json";

    const RunResult fresh =
        measureSolo(config, "jack", false, options);
    {
        RunCache cache;
        cache.insert(key, fresh);
        ASSERT_TRUE(cache.save(path));
    }
    RunCache warm(path);
    RunResult replayed;
    ASSERT_TRUE(warm.lookup(key, &replayed));
    expectIdenticalResults(fresh, replayed);
    std::remove(path.c_str());
}

// Every escaping exception is collected — not just the first — and
// reported once, sorted by batch index.
TEST(TaskPool, AllExceptionsAggregateIntoBatchError)
{
    TaskPool pool(4);
    bool caught = false;
    try {
        pool.parallelFor(32, [](std::size_t i) {
            if (i == 19 || i == 3 || i == 11)
                throw std::runtime_error("boom " +
                                         std::to_string(i));
        });
    } catch (const exec::BatchError& batch) {
        caught = true;
        ASSERT_EQ(batch.errors().size(), 3u);
        EXPECT_EQ(batch.errors()[0].index, 3u);
        EXPECT_EQ(batch.errors()[1].index, 11u);
        EXPECT_EQ(batch.errors()[2].index, 19u);
        EXPECT_NE(std::string(batch.what()).find("3 task(s)"),
                  std::string::npos);
        EXPECT_NE(std::string(batch.what()).find("index 3"),
                  std::string::npos);
    }
    EXPECT_TRUE(caught);
}

// A batch where every task throws must neither wedge the waiting
// caller nor poison the pool for destruction right afterwards.
TEST(TaskPool, AllTasksThrowingDoesNotDeadlock)
{
    TaskPool pool(4);
    try {
        pool.parallelFor(64, [](std::size_t) {
            throw std::runtime_error("total failure");
        });
        FAIL() << "batch should have thrown";
    } catch (const exec::BatchError& batch) {
        EXPECT_EQ(batch.errors().size(), 64u);
    }
    // Pool destructs immediately here; a stuck worker would hang
    // the test past its ctest timeout.
}

// Crash-simulation regression for the atomic spill protocol: an
// injected crash mid-save leaves a truncated .tmp behind but never
// replaces the previous good spill.
TEST(RunCache, InjectedCrashMidSaveLeavesPriorSpillLoadable)
{
    const std::string path =
        testing::TempDir() + "jsmt_exec_test_crash_spill.json";
    std::remove(path.c_str());

    RunResult result;
    result.cycles = 777;
    result.allComplete = true;

    RunCache cache;
    cache.insert("crash-key", result);
    ASSERT_TRUE(cache.save(path));

    resilience::FaultPlan plan;
    ASSERT_TRUE(
        resilience::FaultPlan::parse("spill-truncate=1", &plan));
    cache.setFaultPlan(&plan);
    const std::uint64_t failures_before =
        RunCache::totalSpillSaveFailures();
    RunResult second;
    second.cycles = 888;
    cache.insert("second-key", second);
    EXPECT_FALSE(cache.save(path)); // Injected crash mid-write.
    EXPECT_EQ(RunCache::totalSpillSaveFailures(),
              failures_before + 1);

    // The crash left its debris in the .tmp sibling...
    std::ifstream tmp(path + ".tmp");
    EXPECT_TRUE(tmp.good());
    // ...and the previous spill still loads, fully intact.
    RunCache survivor;
    ASSERT_TRUE(survivor.load(path));
    EXPECT_EQ(survivor.size(), 1u);
    RunResult back;
    ASSERT_TRUE(survivor.lookup("crash-key", &back));
    EXPECT_EQ(back.cycles, 777u);
    EXPECT_FALSE(survivor.lookup("second-key", nullptr));
    std::remove((path + ".tmp").c_str());
    std::remove(path.c_str());
}

} // namespace
} // namespace jsmt
