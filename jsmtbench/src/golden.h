/**
 * @file
 * Golden-anchored correctness gate: replays the committed golden
 * runs (tests/golden/<benchmark>.json and .cores2.json) and compares
 * every pinned total exactly. The scale, seed and core count come
 * from each baseline file, so regenerated goldens need no change
 * here.
 */

#ifndef JSMT_BENCH_GOLDEN_H
#define JSMT_BENCH_GOLDEN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jsmt::bench {

/** Outcome of the golden replay. */
struct GoldenReport
{
    /** Golden runs replayed (one per benchmark and mode). */
    std::uint64_t ops = 0;
    /** Runs that mismatched, failed, or had no readable baseline. */
    std::uint64_t failed = 0;
    /** One line per failure. */
    std::vector<std::string> problems;
};

/**
 * Replay every golden run found for the registered benchmarks in
 * @p golden_dir across @p jobs workers. Reads the baselines only.
 */
GoldenReport checkGoldens(const std::string& golden_dir,
                          std::size_t jobs);

} // namespace jsmt::bench

#endif // JSMT_BENCH_GOLDEN_H
