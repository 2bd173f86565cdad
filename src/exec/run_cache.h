/**
 * @file
 * Memoization of simulation results.
 *
 * The figure/table drivers re-simulate the exact same (SystemConfig,
 * benchmark, options, HT) points over and over — Figures 3-6 are the
 * same multithreaded sweep read through four different counters. A
 * RunCache maps a canonical text key describing the full
 * configuration of a run to its RunResult; because the simulator is
 * deterministic, replaying a cached result is indistinguishable from
 * re-running the simulation.
 *
 * An optional on-disk JSON spill lets consecutive bench invocations
 * warm-start: point JSMT_RUN_CACHE at a file and every figure binary
 * sharing that file computes each configuration once. The spill is
 * version 2: each entry is {"key":K,"hash":hashKey(K),"result":R}
 * with R in the record layout of exec/result_codec.h. A file in any
 * other layout, or with any entry whose hash disagrees with its
 * key, is rejected whole and the cache starts cold.
 */

#ifndef JSMT_EXEC_RUN_CACHE_H
#define JSMT_EXEC_RUN_CACHE_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "core/run_result.h"
#include "core/system_config.h"
#include "resilience/fault_plan.h"

namespace jsmt::exec {

/**
 * Thread-safe key -> RunResult memo with an optional JSON spill.
 *
 * getOrCompute may run the compute functor concurrently for the
 * same key when two tasks race on a cold entry; with a
 * deterministic simulator both produce the same value, so the
 * duplicate insert is benign.
 */
class RunCache
{
  public:
    RunCache() = default;
    /** Construct with a spill file, loading it if it exists. */
    explicit RunCache(const std::string& spill_path);
    /** Saves the spill file if one is set and entries were added. */
    ~RunCache();

    RunCache(const RunCache&) = delete;
    RunCache& operator=(const RunCache&) = delete;

    /** @return cached result for @p key, or compute-and-cache it. */
    RunResult getOrCompute(
        const std::string& key,
        const std::function<RunResult()>& compute);

    /** @return whether @p key is cached; fills @p out when so. */
    bool lookup(const std::string& key, RunResult* out) const;

    /** Insert (or overwrite) the result for @p key. */
    void insert(const std::string& key, const RunResult& result);

    /** Attach a spill file and merge its current contents. */
    void setSpillPath(const std::string& path);

    /** Merge entries from @p path; @return false if unreadable. */
    bool load(const std::string& path);

    /**
     * Write all entries to @p path — atomically: the document is
     * staged in a .tmp sibling and rename()d into place, so a crash
     * mid-save can never leave @p path truncated.
     * @return false on I/O error (including an injected
     * crash-mid-write fault; the previous file survives intact).
     */
    bool save(const std::string& path) const;

    /**
     * Fault-injection override for spill writes (tests). nullptr
     * restores the process-wide resilience::FaultPlan::global().
     */
    void setFaultPlan(const resilience::FaultPlan* plan);

    /** Drop all entries (and statistics). */
    void clear();

    /** @name Statistics */
    ///@{
    std::size_t size() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    ///@}

    /** @name Process-wide spill health counters (metrics export) */
    ///@{
    /** Successful spill saves by every cache in this process. */
    static std::uint64_t totalSpillSaves();
    /** Spill saves that failed (I/O error or injected crash). */
    static std::uint64_t totalSpillSaveFailures();
    /** Spill loads rejected wholesale (missing or malformed). */
    static std::uint64_t totalSpillLoadRejects();
    ///@}

    /**
     * Process-wide cache shared by the harness drivers and jsmt_run.
     * Spills to $JSMT_RUN_CACHE when that variable is set.
     */
    static RunCache& global();

  private:
    const resilience::FaultPlan& faultPlan() const;

    mutable std::mutex _mutex;
    std::map<std::string, RunResult> _entries;
    std::string _spillPath;
    bool _dirty = false;
    mutable std::uint64_t _hits = 0;
    mutable std::uint64_t _misses = 0;
    const resilience::FaultPlan* _faultPlan = nullptr;
};

/**
 * Canonical one-line description of every field of a SystemConfig —
 * the config part of a run-cache key. Two configs produce the same
 * description iff the simulator would behave identically.
 */
std::string describeSystemConfig(const SystemConfig& config);

/** FNV-1a hash of a key (spill bucketing and diagnostics). */
std::uint64_t hashKey(const std::string& key);

} // namespace jsmt::exec

#endif // JSMT_EXEC_RUN_CACHE_H
