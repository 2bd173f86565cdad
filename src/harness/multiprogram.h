/**
 * @file
 * Multiprogrammed-pair measurement using the Tuck & Tullsen
 * repeat-relaunch methodology the paper adopts (§4.2).
 *
 * Two independent programs run simultaneously on the HT machine; a
 * utility relaunches whichever finishes, so both always co-run. Each
 * program completes at least N times; the first and last completions
 * are dropped and the rest averaged. Combined speedup is
 *   C_AB = A_S/A_H + B_S/B_H
 * with A_S, B_S the HT-disabled solo times; 1 is a perfect
 * time-sharing machine, 2 a perfect 2-way SMP.
 *
 * Co-runs are memoized in exec::RunCache::global() under pairRunKey,
 * so the drivers that share co-runs (Figures 8, 9 and 11 and
 * pairing_prediction) simulate each pair once per process, or once
 * per JSMT_RUN_CACHE spill across processes. The cached record is a
 * RunResult whose size does not grow with the completion count:
 *
 *   cycles                      co-run cycles (coRunCycles)
 *   allComplete                 both slots reached min_runs
 *   processes[s], s = 0 (a), 1 (b):
 *     pid                       s
 *     benchmark                 the slot's program
 *     complete                  the slot reached min_runs
 *     completionCycle           completions, first and last included
 *     durationCycles            exact integer sum of the completions
 *                               droppedMean keeps
 *   events, other fields        zero
 *
 * A slot's completions never overlap, so their sum is at most the
 * co-run's cycles, far below 2^53; summing those integers in doubles
 * is exact, so durationCycles / kept count equals droppedMean of the
 * durations bit for bit. Solo baselines are not in the record: they
 * come from their own soloDurationCyclesCached entries.
 */

#ifndef JSMT_HARNESS_MULTIPROGRAM_H
#define JSMT_HARNESS_MULTIPROGRAM_H

#include <string>
#include <utility>
#include <vector>

#include "core/run_result.h"
#include "core/system_config.h"
#include "resilience/supervisor.h"

namespace jsmt {

/** Result of co-running one pair. */
struct PairResult
{
    std::string a;
    std::string b;
    /** Mean completion time of each program while co-running. */
    double meanDurationA = 0.0;
    double meanDurationB = 0.0;
    /** HT-disabled solo execution times. */
    double soloA = 0.0;
    double soloB = 0.0;
    /** Per-program speedup components A_S/A_H and B_S/B_H. */
    double speedupA = 0.0;
    double speedupB = 0.0;
    /** Combined speedup C_AB. */
    double combinedSpeedup = 0.0;
    /** Completions measured (after dropping first and last). */
    std::size_t runsA = 0;
    std::size_t runsB = 0;
    /** Cycles simulated by the co-run (throughput reporting). */
    double coRunCycles = 0.0;
};

/**
 * Runs benchmark pairs; co-runs and solo baselines are memoized in
 * exec::RunCache::global().
 */
class MultiprogramRunner
{
  public:
    /**
     * @param config machine configuration template.
     * @param length_scale benchmark length multiplier.
     * @param min_runs completions required per program (paper: 12).
     * @param jobs worker threads for batch entry points; 0 resolves
     *        via JSMT_JOBS / hardware_concurrency (see TaskPool).
     * @param supervision retry/deadline policy for the batch entry
     *        points; its jobs field, when 0, inherits @p jobs.
     */
    explicit MultiprogramRunner(
        const SystemConfig& config, double length_scale = 1.0,
        std::size_t min_runs = 12, std::size_t jobs = 0,
        resilience::SupervisorOptions supervision = {});

    /**
     * Co-run @p a and @p b on an HT machine; compute C_AB. A
     * non-null @p cancel token aborts the co-run at the simulator's
     * cancellation lattice (throws TaskCancelledError); a cancelled
     * co-run is never cached.
     */
    PairResult
    runPair(const std::string& a, const std::string& b,
            const resilience::CancellationToken* cancel = nullptr);

    /** HT-disabled solo duration (soloDurationCyclesCached). */
    double soloDuration(
        const std::string& benchmark,
        const resilience::CancellationToken* cancel = nullptr);

    /**
     * Run @p pairs across the worker pool; results are indexed like
     * @p pairs, so the output is identical for any job count. Solo
     * baselines of all involved benchmarks are prefetched (also in
     * parallel) before the pairs fan out.
     *
     * The batch runs supervised: transient failures retry per the
     * supervision policy. When @p report is non-null the outcome is
     * stored there and failed cells stay default-initialized; when
     * it is null any terminal failure is fatal.
     */
    std::vector<PairResult>
    runPairs(const std::vector<
                 std::pair<std::string, std::string>>& pairs,
             resilience::BatchReport* report = nullptr);

    /** @return the full cross product over @p names. */
    std::vector<PairResult>
    runCrossProduct(const std::vector<std::string>& names,
                    resilience::BatchReport* report = nullptr);

    /** @return resolved worker count. */
    std::size_t jobs() const { return _supervisor.jobs(); }

  private:
    /** Warm the solo baselines of @p names (parallel, deduplicated). */
    void
    prefetchSolos(const std::vector<std::string>& names);

    /** Simulate one co-run; @return its cacheable record. */
    RunResult
    coRun(const SystemConfig& ht_config, const std::string& a,
          const std::string& b, double solo_cycles,
          const resilience::CancellationToken* cancel) const;

    /** Turn a co-run record into a PairResult (miss and hit path). */
    PairResult
    pairFromRecord(const std::string& a, const std::string& b,
                   double solo_a, double solo_b,
                   const RunResult& record) const;

    SystemConfig _config;
    double _lengthScale;
    std::size_t _minRuns;
    resilience::Supervisor _supervisor;
};

/**
 * Canonical run-cache key of a co-run: the HT-on @p ht_config, both
 * programs in slot order, the length scale and the completion count.
 */
std::string pairRunKey(const SystemConfig& ht_config,
                       const std::string& a, const std::string& b,
                       double length_scale, std::size_t min_runs);

/**
 * Mean of @p durations after dropping the first and last completion
 * (cold-start and possibly-truncated runs), as in the paper.
 */
double droppedMean(const std::vector<double>& durations);

} // namespace jsmt

#endif // JSMT_HARNESS_MULTIPROGRAM_H
