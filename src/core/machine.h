/**
 * @file
 * The assembled machine: SMT core, memory hierarchy, branch unit,
 * PMU and operating system.
 */

#ifndef JSMT_CORE_MACHINE_H
#define JSMT_CORE_MACHINE_H

#include "branch/branch_unit.h"
#include "core/system_config.h"
#include "mem/memory_system.h"
#include "os/scheduler.h"
#include "pmu/pmu.h"
#include "trace/trace_sink.h"
#include "uarch/smt_core.h"

namespace jsmt {

/**
 * One simulated machine instance.
 *
 * Owns every hardware structure plus the OS scheduler. Experiments
 * typically build a fresh Machine per measurement for cold-start
 * reproducibility; the paper's methodology (dropping first runs,
 * repeat-relaunch) is layered on top by the harness.
 */
class Machine
{
  public:
    /**
     * Build every component once, in the configured HT mode.
     *
     * @param shared_l2 optional externally owned L2 replacing this
     *        machine's private one (multi-core slices share a chip
     *        L2; see os/allocation), which is then never built.
     *        Null keeps the machine fully self-contained.
     */
    explicit Machine(const SystemConfig& config,
                     Cache* shared_l2 = nullptr);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /** Switch Hyper-Threading; resets pipeline and tagged state. */
    void setHyperThreading(bool enabled);

    /** @return whether Hyper-Threading is currently enabled. */
    bool hyperThreading() const { return _core.hyperThreading(); }

    /** @return fresh address-space id (one per process launch). */
    Asid allocateAsid() { return _nextAsid++; }

    /** @return the configuration the machine was built with. */
    const SystemConfig& config() const { return _config; }

    /** @name Component access */
    ///@{
    Pmu& pmu() { return _pmu; }
    const Pmu& pmu() const { return _pmu; }
    MemorySystem& mem() { return _mem; }
    BranchUnit& branch() { return _branch; }
    Scheduler& scheduler() { return _scheduler; }
    SmtCore& core() { return _core; }
    ///@}

    /**
     * Attach (or detach, with nullptr) an event tracer to every
     * instrumented component. The sink is borrowed, not owned; it
     * must outlive the machine or be detached first.
     */
    void
    setTraceSink(trace::TraceSink* sink)
    {
        _traceSink = sink;
        _mem.setTraceSink(sink);
        _scheduler.setTraceSink(sink);
        _core.setTraceSink(sink);
    }

    /** @return the attached tracer, or nullptr. */
    trace::TraceSink* traceSink() const { return _traceSink; }

  private:
    SystemConfig _config;
    Pmu _pmu;
    MemorySystem _mem;
    BranchUnit _branch;
    Scheduler _scheduler;
    SmtCore _core;
    trace::TraceSink* _traceSink = nullptr;
    Asid _nextAsid = 1;
};

} // namespace jsmt

#endif // JSMT_CORE_MACHINE_H
