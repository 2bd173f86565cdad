/**
 * @file
 * Sweep checkpoint/resume.
 *
 * A long sweep killed at point 180 of 200 should not redo the first
 * 179. SweepCheckpoint persists each completed (key, RunResult) to
 * an atomic JSON manifest as the sweep progresses; a later
 * invocation pointed at the same manifest (--resume) replays the
 * recorded results and only simulates the remainder. Because the
 * simulator is deterministic, a resumed sweep is bit-identical to an
 * uninterrupted one.
 *
 * The manifest is version 2 and shares the spill's record codec
 * (exec/result_codec.h). It is all-or-nothing on load: every entry
 * carries an FNV digest of its serialized result, and any parse
 * failure, digest mismatch or other version rejects the whole file
 * (warn, start cold). Writes go through atomicWriteFile, so a crash
 * mid-flush leaves the previous manifest intact; FaultPlan spill
 * faults apply, which is how the resilience suite proves both
 * properties.
 */

#ifndef JSMT_RESILIENCE_CHECKPOINT_H
#define JSMT_RESILIENCE_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/run_result.h"
#include "resilience/fault_plan.h"

namespace jsmt::resilience {

/**
 * Thread-safe manifest of completed sweep points. Safe to share
 * across the tasks of one supervised batch.
 */
class SweepCheckpoint
{
  public:
    /**
     * Topology stamped into a manifest by a checkpoint opened
     * without one and with no manifest to inherit it from.
     */
    static constexpr const char* kDefaultTopology =
        "cores=1;alloc=static-pin";

    /**
     * @return the canonical topology string for a chip shape:
     * "cores=N;alloc=P;step-threads=any". The trailing field
     * records that sweep entries are invariant to the stepping
     * engine's worker count (resuming a `--step-threads 4` sweep
     * with `--step-threads 1` is legal and bit-identical); it is
     * ignored by the identity comparison, so manifests written
     * before the field existed keep resuming.
     */
    static std::string describeTopology(std::uint32_t cores,
                                        const std::string& alloc);

    /** @return @p topology with the step-threads field stripped. */
    static std::string
    normalizeTopology(const std::string& topology);

    /**
     * Open (or create) the manifest at @p path, loading any valid
     * existing contents. @p flush_every controls how many record()
     * calls may accumulate before an automatic flush (1 = flush on
     * every completion).
     *
     * @p topology identifies the machine shape producing the
     * entries (see describeTopology). When non-empty and the
     * manifest on disk records a different topology, nothing is
     * resumed and topologyMismatch() reports true — resuming a
     * 2-core sweep from a 1-core manifest would silently mix
     * incomparable measurements. Empty skips the check (legacy
     * callers) and preserves whatever the manifest records.
     */
    explicit SweepCheckpoint(std::string path,
                             std::size_t flush_every = 1,
                             std::string topology = "");
    /** Flushes pending entries. */
    ~SweepCheckpoint();

    SweepCheckpoint(const SweepCheckpoint&) = delete;
    SweepCheckpoint& operator=(const SweepCheckpoint&) = delete;

    /** @return whether @p key is recorded; fills @p out when so. */
    bool lookup(const std::string& key, RunResult* out) const;

    /** Record a completed point (flushes per flush_every policy). */
    void record(const std::string& key, const RunResult& result);

    /**
     * Write the manifest now (atomically).
     * @return false on I/O error or injected spill fault; entries
     * stay pending and the next flush retries them.
     */
    bool flush();

    /** @return entries currently recorded (resumed + new). */
    std::size_t size() const;

    /** @return entries replayed from disk at construction. */
    std::size_t resumed() const { return _resumed; }

    /**
     * @return whether the manifest on disk was written for a
     * different topology than this checkpoint's. Callers must
     * refuse to resume (the entries were not loaded).
     */
    bool topologyMismatch() const { return _topologyMismatch; }

    /** @return topology recorded in the loaded manifest ("" none). */
    const std::string& manifestTopology() const
    {
        return _manifestTopology;
    }

    /** Fault-injection override (tests); nullptr = global(). */
    void setFaultPlan(const FaultPlan* plan);

    /** @name Process-wide totals (metrics export) */
    ///@{
    /** Entries replayed from manifests instead of re-simulated. */
    static std::uint64_t totalEntriesResumed();
    /** Successful manifest flushes. */
    static std::uint64_t totalFlushes();
    /** Manifests rejected wholesale on load. */
    static std::uint64_t totalLoadRejects();
    ///@}

  private:
    const FaultPlan& plan() const;
    bool loadExisting();
    bool flushLocked();

    mutable std::mutex _mutex;
    std::string _path;
    std::size_t _flushEvery = 1;
    /** Topology this checkpoint stamps into the manifest. */
    std::string _topology;
    std::string _manifestTopology;
    bool _topologyMismatch = false;
    std::map<std::string, RunResult> _entries;
    std::size_t _resumed = 0;
    std::size_t _pending = 0;
    const FaultPlan* _faultPlan = nullptr;
};

} // namespace jsmt::resilience

#endif // JSMT_RESILIENCE_CHECKPOINT_H
