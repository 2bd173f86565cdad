/**
 * @file
 * The benchmark's workloads. One call runs one round: the
 * workload's fixed work, timed from outside through the public API
 * of each jsmt layer.
 */

#ifndef JSMT_BENCH_WORKLOADS_H
#define JSMT_BENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "uarch/stage_profiler.h"

namespace jsmt {
struct RunResult;
}

namespace jsmt::bench {

/**
 * Simulated totals of a round. The simulator is deterministic, so
 * every round of one seed must produce the same values, traced or
 * not; any difference is a correctness failure.
 */
struct SimTotals
{
    std::uint64_t simCycles = 0;
    std::uint64_t simUops = 0;
    /** Cycles of multiprogrammed co-runs (pairs and chip cells). */
    std::uint64_t corunCycles = 0;
    std::uint64_t l1dMiss = 0;
    std::uint64_t l2Miss = 0;
    std::uint64_t tcMiss = 0;
    std::uint64_t btbMiss = 0;
    /** Garbage collections started (the jvm collector path). */
    std::uint64_t gcRuns = 0;
    std::uint64_t allocEpochs = 0;
    std::uint64_t allocMigrations = 0;
    std::uint64_t allocSteals = 0;

    /**
     * Add @p result's cycles, retired µops, miss counts and
     * collections.
     */
    void addEvents(const RunResult& result);

    bool operator==(const SimTotals&) const = default;
};

/** What a round needs to know. */
struct RoundParams
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Benchmark length multiplier of every simulated program. */
    double scale = 0.0;
    /** Workers of the parallel drivers. */
    std::size_t jobs = 1;
    /** Directory for the round's run-cache spill file. */
    std::string scratchDir;
};

/**
 * Measurements of one round. The round's fixed work is a fixed
 * sequence of steps (one per op in solo-sweep, one per driver call
 * in the pair workloads), timed one by one, so that rounds can be
 * compared step by step.
 */
struct RoundResult
{
    /** Host seconds of the round's fixed work (sum of stepWall). */
    double wallSeconds = 0.0;
    /** Process CPU seconds over the same steps. */
    double cpuSeconds = 0.0;
    std::vector<double> stepWall;
    std::vector<double> stepCpu;
    /**
     * Host seconds building machines and systems, launching their
     * processes and loading stores, one entry per set-up step.
     */
    std::vector<double> stepSetup;
    /** Simulation tasks attempted and failed. */
    std::uint64_t ops = 0;
    std::uint64_t opsFailed = 0;
    SimTotals totals;
    /** Stage profile of a traced solo-sweep round (else zeros). */
    StageProfiler stages;
    /** Cycles the event horizon fast-forwarded (solo-sweep). */
    std::uint64_t fastForwardedCycles = 0;
    /** Workers of the parallel drivers (0 when serial). */
    std::size_t jobs = 0;
    /** exec and resilience counters read from public accessors. */
    std::map<std::string, double> counters;
    /** Why an op failed or an output was wrong; one per line. */
    std::vector<std::string> problems;
};

/**
 * @return the @p p-th percentile (0..100) of @p values, linearly
 *         interpolated between ranks; 0 when empty.
 */
double percentile(std::vector<double> values, double p);

/** @return the workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** @return the default length scale of @p workload. */
double defaultScale(const std::string& workload);

/**
 * Run one round of @p params.workload. A non-null @p spans records a
 * span around every layer call and attaches the stage profiler
 * (traced round); null runs the same work untraced.
 */
RoundResult runRound(const RoundParams& params, SpanRecorder* spans);

/**
 * @return the per-layer metrics of a traced round: span-derived host
 *         times plus @p round's counters.
 */
std::map<std::string, double>
layerMetrics(const RoundResult& round, const SpanRecorder& spans);

} // namespace jsmt::bench

#endif // JSMT_BENCH_WORKLOADS_H
