/**
 * @file
 * Per-stage wall-time accumulators for the simulator hot path,
 * surfaced by `jsmt_run --profile`.
 *
 * A StageProfiler is attached to the core with
 * SmtCore::setProfiler(); when detached (the default) the pipeline
 * performs no clock reads at all, so profiling support costs the
 * unprofiled hot path nothing but a predicted-not-taken branch per
 * stage. The memory-walk and µop-synthesis times are accumulated
 * from inside the fetch/alloc stage, so memorySeconds and
 * synthesisSeconds are disjoint subsets of fetchAllocSeconds; report
 * fetch/alloc exclusive of them by subtraction.
 */

#ifndef JSMT_UARCH_STAGE_PROFILER_H
#define JSMT_UARCH_STAGE_PROFILER_H

#include <chrono>
#include <cstdint>

namespace jsmt {

/** Wall-time breakdown of the per-cycle pipeline stages. */
struct StageProfiler
{
    using ClockType = std::chrono::steady_clock;

    /** Retirement stage (includes onRetire callbacks). */
    double retireSeconds = 0.0;
    /** Fetch+allocate stage, inclusive of the memory walks. */
    double fetchAllocSeconds = 0.0;
    /** Memory-hierarchy walks (fetchLine/dataAccess) only. */
    double memorySeconds = 0.0;
    /** Workload µop synthesis (SoftwareThread::nextBundle) only. */
    double synthesisSeconds = 0.0;
    /** Busy/idle/mode accounting (batched PMU window upkeep). */
    double accountSeconds = 0.0;
    /**
     * Fast-forward machinery in the driver: horizon probes, clock
     * jumps and their batched skipped-window accounting. Accumulated
     * by the simulation loop, not the core, so it is disjoint from
     * the per-stage buckets above.
     */
    double fastForwardSeconds = 0.0;
    /** Cycles simulated while attached (fast-forwarded ones not
     *  included — they never enter the per-cycle path). */
    std::uint64_t cycles = 0;

    static ClockType::time_point
    now()
    {
        return ClockType::now();
    }

    static double
    since(ClockType::time_point start)
    {
        return std::chrono::duration<double>(now() - start).count();
    }
};

/**
 * RAII accumulator adding a scope's wall time to one StageProfiler
 * field. A null profiler makes construction and destruction no-ops
 * (no clock reads).
 */
class ScopedStageTimer
{
  public:
    ScopedStageTimer(StageProfiler* profiler,
                     double StageProfiler::* field)
        : _profiler(profiler), _field(field)
    {
        if (_profiler != nullptr)
            _start = StageProfiler::now();
    }

    ~ScopedStageTimer()
    {
        if (_profiler != nullptr)
            _profiler->*_field += StageProfiler::since(_start);
    }

    ScopedStageTimer(const ScopedStageTimer&) = delete;
    ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

  private:
    StageProfiler* _profiler;
    double StageProfiler::* _field;
    StageProfiler::ClockType::time_point _start{};
};

} // namespace jsmt

#endif // JSMT_UARCH_STAGE_PROFILER_H
