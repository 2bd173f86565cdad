#include "uarch/smt_core.h"

#include <algorithm>

#include "common/log.h"

namespace jsmt {

namespace {

/** Static trace-event name for a per-context stall event. */
const char*
stallName(EventId event)
{
    switch (event) {
      case EventId::kRobFullStall:
        return "rob_full";
      case EventId::kLdqFullStall:
        return "ldq_full";
      case EventId::kStqFullStall:
        return "stq_full";
      default:
        return "fetch_stall";
    }
}

} // namespace

SmtCore::SmtCore(const CoreConfig& config, MemorySystem& mem,
                 BranchUnit& branch, Scheduler& scheduler, Pmu& pmu,
                 std::uint64_t seed, bool hyper_threading)
    : _config(config),
      _mem(mem),
      _branch(branch),
      _scheduler(scheduler),
      _pmu(pmu),
      _rng(seed ^ 0x5eed'c0de'd00dULL)
{
    if (config.fetchAllocWidth == 0 || config.issueWidth == 0 ||
        config.retireWidth == 0) {
        fatal("core: widths must be positive");
    }
    if (config.retireWidth > 3) {
        fatal("core: retireWidth above 3 is unsupported (the "
              "retirement histogram models the P4's 3-uop limit)");
    }
    if (config.robEntries < 2 * kNumContexts)
        fatal("core: ROB too small to partition");
    // Ring storage is sized for the whole machine window once, here:
    // under the dynamic partition policy a lone context may occupy
    // every ROB entry, and reset() never reallocates. Everything
    // else reset() clears starts in its cleared state.
    for (ContextState& cs : _ctx)
        cs.rob.init(config.robEntries);
    applyMode(hyper_threading);
}

void
SmtCore::setHyperThreading(bool enabled)
{
    applyMode(enabled);
    reset();
}

void
SmtCore::applyMode(bool enabled)
{
    _hyperThreading = enabled;
    _dynamicShared =
        enabled &&
        _config.partitionPolicy == PartitionPolicy::kDynamic;
    for (ContextId ctx = 0; ctx < kNumContexts; ++ctx) {
        _robCapCache[ctx] = robCap(ctx);
        _ldqCapCache[ctx] = ldqCap(ctx);
        _stqCapCache[ctx] = stqCap(ctx);
    }
    _scheduler.setNumContexts(enabled ? kNumContexts : 1);
    _mem.setHyperThreading(enabled);
    _branch.setHyperThreading(enabled);
}

std::uint32_t
SmtCore::robCap(ContextId ctx) const
{
    if (_hyperThreading)
        return _config.robEntries / kNumContexts;
    return ctx == 0 ? _config.robEntries : 0;
}

std::uint32_t
SmtCore::ldqCap(ContextId ctx) const
{
    if (_hyperThreading)
        return _config.loadBufEntries / kNumContexts;
    return ctx == 0 ? _config.loadBufEntries : 0;
}

std::uint32_t
SmtCore::stqCap(ContextId ctx) const
{
    if (_hyperThreading)
        return _config.storeBufEntries / kNumContexts;
    return ctx == 0 ? _config.storeBufEntries : 0;
}

std::uint32_t
SmtCore::robOccupancy(ContextId ctx) const
{
    return _ctx[ctx].rob.size();
}

bool
SmtCore::robFull(ContextId ctx) const
{
    if (_dynamicShared) {
        // Shared pool: the lone constraint is total occupancy.
        return _ctx[0].rob.size() + _ctx[1].rob.size() >=
               _config.robEntries;
    }
    return _ctx[ctx].rob.size() >= _robCapCache[ctx];
}

bool
SmtCore::ldqFull(ContextId ctx) const
{
    if (_dynamicShared) {
        return _ctx[0].ldqOcc + _ctx[1].ldqOcc >=
               _config.loadBufEntries;
    }
    return _ctx[ctx].ldqOcc >= _ldqCapCache[ctx];
}

bool
SmtCore::stqFull(ContextId ctx) const
{
    if (_dynamicShared) {
        return _ctx[0].stqOcc + _ctx[1].stqOcc >=
               _config.storeBufEntries;
    }
    return _ctx[ctx].stqOcc >= _stqCapCache[ctx];
}

bool
SmtCore::drained() const
{
    for (const ContextState& cs : _ctx) {
        if (!cs.rob.empty())
            return false;
    }
    return true;
}

void
SmtCore::reset()
{
    // Pending accounting cycles predate the reset but were really
    // simulated; land them before the signature is wiped.
    flushAccounting();
    _acctSig = AccountingSignature{};
    _acctEpochSeen = ~std::uint64_t{0};
    _acctKernelFlip = true;
    for (ContextState& cs : _ctx) {
        // In place: the ring's storage survives across runs.
        cs.rob.clear();
        cs.ldqOcc = 0;
        cs.stqOcc = 0;
        cs.resumeAt = 0;
        cs.lastThread = nullptr;
        cs.kernelMode = false;
        cs.headCompletion = kNoCycle;
    }
    _issueSlot.fill(0);
}

Cycle
SmtCore::findIssueSlot(Cycle earliest)
{
    Cycle c = earliest;
    const Cycle horizon = earliest + kIssueRingSize - 1;
    const std::uint64_t width = _config.issueWidth;
    while (c < horizon) {
        std::uint64_t& slot = _issueSlot[c & (kIssueRingSize - 1)];
        if ((slot >> 8) != c) {
            slot = (c << 8) | 1;
            return c;
        }
        if ((slot & 0xff) < width) {
            ++slot;
            return c;
        }
        ++c;
    }
    // Pathologically far in the future: stop constraining.
    return c;
}

std::uint32_t
SmtCore::retireStage(Cycle now)
{
    // Nothing can retire before either ROB head completes (entries
    // retire in order, so only the heads matter). The cached head
    // completions are exact (kNoCycle when empty; an inactive
    // context's stays kNoCycle), making this early-out record the
    // same single kRetire0 event the full scan would.
    if (_ctx[0].headCompletion > now &&
        _ctx[1].headCompletion > now) {
        _pmu.record(EventId::kRetire0, 0);
        return 0;
    }

    std::uint32_t budget = _config.retireWidth;
    std::uint32_t retired_total = 0;
    const std::uint32_t contexts = activeContexts();
    const ContextId first =
        contexts > 1 ? static_cast<ContextId>(now & 1) : 0;

    for (std::uint32_t k = 0; k < contexts && budget > 0; ++k) {
        // contexts is 1 or 2, so the modulo reduces to a mask (a
        // hardware divide here costs more than the rest of a
        // retire-0 call).
        const ContextId ctx =
            static_cast<ContextId>((first + k) & (contexts - 1));
        ContextState& cs = _ctx[ctx];
        std::uint32_t uops = 0;
        std::uint32_t branches = 0;
        Uop retired_uop;
        while (budget > 0 && !cs.rob.empty() &&
               cs.rob.front().completion <= now) {
            RobEntry& entry = cs.rob.front();
            cs.ldqOcc -= entry.type == UopType::kLoad ? 1u : 0u;
            cs.stqOcc -= entry.type == UopType::kStore ? 1u : 0u;
            branches += entry.type == UopType::kBranch ? 1u : 0u;
            retired_uop.type = entry.type;
            retired_uop.kernelMode = entry.kernelMode;
            entry.thread->onRetire(retired_uop, now);
            cs.rob.pop_front();
            --budget;
            ++uops;
        }
        // Per-cycle batched counter updates (hot path: one PMU
        // access per event line instead of one per retired µop).
        if (uops > 0) {
            cs.headCompletion = cs.rob.empty()
                                    ? kNoCycle
                                    : cs.rob.front().completion;
            _pmu.recordBulk(EventId::kUopsRetired, ctx, uops);
            _pmu.recordBulk(EventId::kInstrRetired, ctx, uops);
            _pmu.recordBulk(EventId::kBranchRetired, ctx, branches);
            retired_total += uops;
        }
    }

    // Machine-wide retirement histogram (Figure 2).
    static constexpr EventId kHistogram[4] = {
        EventId::kRetire0, EventId::kRetire1, EventId::kRetire2,
        EventId::kRetire3};
    _pmu.record(kHistogram[std::min<std::uint32_t>(retired_total, 3)],
                0);
    return retired_total;
}

std::uint32_t
SmtCore::allocFromContext(ContextId ctx, Cycle now,
                          std::uint32_t budget)
{
    ContextState& cs = _ctx[ctx];
    SoftwareThread* thread = _scheduler.active(ctx);
    if (!thread)
        return 0;

    // Detect an OS context switch: flush the context's front end.
    if (thread != cs.lastThread) {
        cs.lastThread = thread;
        cs.resumeAt = std::max<Cycle>(
            cs.resumeAt, now + _config.contextSwitchFlushCycles);
        _pmu.record(EventId::kPipelineFlush, ctx);
        if (_trace != nullptr && _trace->enabled()) {
            _trace->instantArg(trace::contextTrack(ctx),
                               "ctx_switch_flush", now, "tid",
                               thread->id());
        }
    }

    if (now < cs.resumeAt) {
        _pmu.record(EventId::kFetchStallCycles, ctx);
        if (_trace != nullptr && _trace->enabled()) {
            _trace->span(trace::contextTrack(ctx), "fetch_stall",
                         now, now + 1);
        }
        return 0;
    }

    ThreadFrontEnd& fe = thread->frontEnd();
    std::uint32_t used = 0;
    while (used < budget) {
        if (!fe.valid) {
            if (now < fe.nextFetchAt) {
                // Redirect/bubble: the next line is not fetchable
                // yet.
                if (used == 0) {
                    _pmu.record(EventId::kFetchStallCycles, ctx);
                    if (_trace != nullptr && _trace->enabled()) {
                        _trace->span(trace::contextTrack(ctx),
                                     "fetch_stall", now, now + 1);
                    }
                }
                return used;
            }
            bool produced;
            {
                ScopedStageTimer timer(
                    _profiler, &StageProfiler::synthesisSeconds);
                produced = thread->nextBundle(now, fe.bundle);
            }
            if (!produced) {
                // Thread blocked or finished; the scheduler reacts
                // on its next tick. Completion may have flipped —
                // cue the driver's scan.
                _threadEvent = true;
                return used;
            }
            fe.pos = 0;
            fe.valid = true;
            if (cs.kernelMode != fe.bundle.kernelMode) {
                cs.kernelMode = fe.bundle.kernelMode;
                _acctKernelFlip = true;
            }
            const bool stale_trace =
                fe.bundle.rebuildProb > 0.0f &&
                _rng.chance(fe.bundle.rebuildProb);
            FetchLineResult fetch;
            {
                ScopedStageTimer timer(
                    _profiler, &StageProfiler::memorySeconds);
                fetch = _mem.fetchLine(
                    fe.bundle.asid, fe.bundle.lineVaddr,
                    fe.bundle.traceAddr, ctx, now, stale_trace);
            }
            if (fetch.latency > 0) {
                // Trace-cache miss: µops deliverable after rebuild.
                fe.bundleReadyAt = now + fetch.latency;
                return used;
            }
            fe.bundleReadyAt = now;
        }

        if (now < fe.bundleReadyAt) {
            if (used == 0) {
                _pmu.record(EventId::kFetchStallCycles, ctx);
                if (_trace != nullptr && _trace->enabled()) {
                    _trace->span(trace::contextTrack(ctx),
                                 "fetch_stall", now, now + 1);
                }
            }
            return used;
        }
        if (cs.kernelMode != fe.bundle.kernelMode) {
            cs.kernelMode = fe.bundle.kernelMode;
            _acctKernelFlip = true;
        }

        while (used < budget && fe.pos < fe.bundle.count) {
            const Uop& uop = fe.bundle.uops[fe.pos];

            // Window resource checks (divided per the configured
            // partition policy in HT mode).
            if (robFull(ctx)) {
                _pmu.record(EventId::kRobFullStall, ctx);
                return used;
            }
            if (uop.type == UopType::kLoad && ldqFull(ctx)) {
                _pmu.record(EventId::kLdqFullStall, ctx);
                return used;
            }
            if (uop.type == UopType::kStore && stqFull(ctx)) {
                _pmu.record(EventId::kStqFullStall, ctx);
                return used;
            }

            const std::uint64_t seq = thread->allocSeq();
            const Cycle dep_ready =
                thread->producerCompletion(seq, uop.depDist);
            const Cycle ready = std::max<Cycle>(now + 1, dep_ready);

            Cycle latency = uop.execLatency;
            bool mispredicted = false;
            std::uint32_t fetch_bubble = 0;

            if (uop.type == UopType::kLoad ||
                uop.type == UopType::kStore) {
                const bool is_store = uop.type == UopType::kStore;
                DataAccessResult access;
                {
                    ScopedStageTimer timer(
                        _profiler, &StageProfiler::memorySeconds);
                    access = _mem.dataAccess(fe.bundle.asid,
                                             uop.dataVaddr, ctx,
                                             is_store, ready);
                }
                if (is_store) {
                    // Buffered: affects caches, not the critical
                    // path.
                    latency = 1;
                } else {
                    latency = access.latency;
                    if (!access.l1Hit) {
                        _pmu.record(EventId::kMemStallCycles, ctx,
                                    access.latency);
                    }
                }
            } else if (uop.type == UopType::kBranch) {
                const bool line_end = fe.pos + 1 == fe.bundle.count;
                const BranchOutcome outcome = _branch.predict(
                    fe.bundle.asid, uop.pc, ctx, uop.mispredictProb,
                    _rng, line_end);
                mispredicted = outcome.mispredicted;
                fetch_bubble = outcome.fetchBubble;
            }

            const Cycle issue = findIssueSlot(ready);
            const Cycle completion = issue + latency;
            thread->recordCompletion(seq, completion);

            RobEntry& entry = cs.rob.push_back();
            entry.completion = completion;
            entry.thread = thread;
            entry.type = uop.type;
            entry.kernelMode = uop.kernelMode;
            if (cs.rob.size() == 1)
                cs.headCompletion = completion;
            cs.ldqOcc += uop.type == UopType::kLoad ? 1u : 0u;
            cs.stqOcc += uop.type == UopType::kStore ? 1u : 0u;
            ++fe.pos;
            ++used;

            if (mispredicted) {
                // The already-delivered remainder of this trace
                // line is the correct continuation; the penalty is
                // that no further line can be fetched until the
                // branch resolves and fetch redirects.
                fe.nextFetchAt = std::max<Cycle>(
                    fe.nextFetchAt,
                    completion + _config.mispredictRedirectCycles);
                _pmu.record(EventId::kPipelineFlush, ctx);
            } else if (fetch_bubble > 0) {
                // BTB miss on a taken branch: the next line's fetch
                // is delayed by the decode-redirect bubble.
                fe.nextFetchAt = std::max<Cycle>(
                    fe.nextFetchAt, now + fetch_bubble);
            }
        }

        if (fe.pos >= fe.bundle.count)
            fe.valid = false;
    }
    return used;
}

std::uint32_t
SmtCore::fetchAllocStage(Cycle now)
{
    const std::uint32_t contexts = activeContexts();
    const std::uint32_t budget = _config.fetchAllocWidth;
    const ContextId first =
        contexts > 1 ? static_cast<ContextId>(now & 1) : 0;
    // Strict P4-style alternation: the whole allocation bandwidth
    // belongs to one logical processor per cycle. The slot is only
    // donated when the preferred context has no thread at all; a
    // merely stalled thread wastes its slot, which is what bounds
    // SMT gains on the real machine.
    ContextId ctx = first;
    if (contexts > 1 && _scheduler.active(first) == nullptr)
        ctx = static_cast<ContextId>((first + 1) & 1);
    return allocFromContext(ctx, now, budget);
}

void
SmtCore::accountWindowRebuild(std::uint64_t cycles)
{
    _acctEpochSeen = _scheduler.stateEpoch();
    _acctKernelFlip = false;

    AccountingSignature sig;
    sig.contexts = activeContexts();
    for (ContextId ctx = 0; ctx < sig.contexts; ++ctx) {
        const SoftwareThread* thread = _scheduler.active(ctx);
        sig.thread[ctx] = thread;
        // Normalized to false when idle so mode flips on an empty
        // context never force a flush.
        sig.kernel[ctx] =
            thread != nullptr && _ctx[ctx].kernelMode;
    }
    if (!(sig == _acctSig)) {
        flushAccounting();
        _acctSig = sig;
    }
    _acctPending += cycles;
}

void
SmtCore::flushAccounting()
{
    if (_acctPending == 0)
        return;
    const std::uint64_t n = _acctPending;
    _acctPending = 0;
    // Replays exactly what n identical per-cycle accountings would
    // have recorded, from the stored signature (the live scheduler
    // state may already have moved on).
    _pmu.recordBulk(EventId::kCycles, 0, n);
    std::uint32_t active = 0;
    for (ContextId ctx = 0; ctx < _acctSig.contexts; ++ctx) {
        if (_acctSig.thread[ctx] == nullptr) {
            _pmu.recordBulk(EventId::kIdleCycles, ctx, n);
            continue;
        }
        ++active;
        _pmu.recordBulk(_acctSig.kernel[ctx] ? EventId::kOsCycles
                                             : EventId::kUserCycles,
                        ctx, n);
    }
    if (active == 2)
        _pmu.recordBulk(EventId::kDualThreadCycles, 0, n);
    else if (active == 1)
        _pmu.recordBulk(EventId::kSingleThreadCycles, 0, n);
}

SmtCore::CycleOutcome
SmtCore::cycle(Cycle now)
{
    CycleOutcome outcome;
    _threadEvent = false;
    {
        ScopedStageTimer timer(_profiler,
                               &StageProfiler::retireSeconds);
        outcome.retired = retireStage(now);
    }
    {
        ScopedStageTimer timer(_profiler,
                               &StageProfiler::fetchAllocSeconds);
        outcome.allocated = fetchAllocStage(now);
    }
    {
        ScopedStageTimer timer(_profiler,
                               &StageProfiler::accountSeconds);
        accountWindow(1);
    }
    if (_profiler != nullptr)
        ++_profiler->cycles;
    outcome.threadEvent = _threadEvent;
    return outcome;
}

Cycle
SmtCore::stallBound(Cycle now) const
{
    return bounds(now).stall;
}

Cycle
SmtCore::allocBound(Cycle now) const
{
    return bounds(now).alloc;
}

SmtCore::CoreBounds
SmtCore::bounds(Cycle now) const
{
    CoreBounds b;
    const std::uint32_t contexts = activeContexts();
    // With both contexts occupied, the P4-style alternation gives a
    // context the allocation slot only on cycles of its parity (a
    // stalled context wastes its slot; see fetchAllocStage). A
    // context that could allocate but does not own the current
    // cycle's slot therefore bounds the window at its next slot
    // instead of cutting it to zero. The active-thread set cannot
    // change inside the window (the scheduler bound caps it), so
    // the parity rule holds throughout.
    const bool alternating =
        contexts > 1 && _scheduler.active(0) != nullptr &&
        _scheduler.active(1) != nullptr;
    for (ContextId ctx = 0; ctx < contexts; ++ctx) {
        const ContextState& cs = _ctx[ctx];
        // Incrementally maintained ROB-head completion (kNoCycle
        // when the ROB is empty) — no ring access here. Retirements
        // cut the stall bound only; the alloc bound ignores them
        // unless allocation is resource-blocked (below).
        const Cycle head = cs.headCompletion;
        if (head != kNoCycle)
            b.stall = std::min(b.stall, head > now ? head : now);
        const SoftwareThread* thread = _scheduler.active(ctx);
        if (!thread)
            continue;
        if (thread != cs.lastThread) {
            // Context-switch flush not yet taken: both bounds cut.
            b.stall = now;
            b.alloc = now;
            return b;
        }
        const ThreadFrontEnd& fe =
            const_cast<SoftwareThread*>(thread)->frontEnd();
        const Cycle gate = std::max(
            cs.resumeAt,
            fe.valid ? fe.bundleReadyAt : fe.nextFetchAt);
        // Earliest cycle this context both has work and owns the
        // allocation slot.
        Cycle at = gate > now ? gate : now;
        if (alternating && (at & 1) != ctx)
            ++at;
        if (gate > now || !fe.valid) {
            // Fetch-gated, or a new trace line could be fetched at
            // the next owned slot.
            b.stall = std::min(b.stall, at);
            b.alloc = std::min(b.alloc, at);
            continue;
        }
        // Line ready but the window may have no room. For the stall
        // bound the retirement that frees a slot is already covered
        // by a ROB-head bound (a full queue implies a non-empty
        // ROB). For the alloc bound the earliest possibly-unblocking
        // event is the first retirement — the ROB head (either
        // context's under the shared dynamic partition). The head
        // may not free the right resource; the bound only needs to
        // be conservative (no later than the true alloc cycle).
        const Uop& uop = fe.bundle.uops[fe.pos];
        const bool blocked =
            robFull(ctx) ||
            (uop.type == UopType::kLoad && ldqFull(ctx)) ||
            (uop.type == UopType::kStore && stqFull(ctx));
        if (!blocked) {
            b.stall = std::min(b.stall, at);
            b.alloc = std::min(b.alloc, at);
        } else {
            Cycle h = cs.headCompletion;
            if (_dynamicShared)
                h = std::min(h, _ctx[ctx ^ 1].headCompletion);
            Cycle aat = h > now ? h : now;
            if (alternating && (aat & 1) != ctx)
                ++aat;
            b.alloc = std::min(b.alloc, aat);
        }
    }
    return b;
}

SmtCore::CycleOutcome
SmtCore::retireOnlyCycle(Cycle now)
{
    CycleOutcome outcome;
    {
        ScopedStageTimer timer(_profiler,
                               &StageProfiler::retireSeconds);
        outcome.retired = retireStage(now);
    }
    // Replicate the one stall event the slot-owning context would
    // have recorded in fetchAllocStage (the window precondition
    // guarantees it cannot allocate or call nextBundle this cycle).
    const std::uint32_t contexts = activeContexts();
    ContextId ctx =
        contexts > 1 ? static_cast<ContextId>(now & 1) : 0;
    if (contexts > 1 && _scheduler.active(ctx) == nullptr)
        ctx = static_cast<ContextId>((ctx + 1) & 1);
    if (_scheduler.active(ctx) != nullptr)
        _pmu.record(stallEventFor(ctx, now), ctx);
    {
        ScopedStageTimer timer(_profiler,
                               &StageProfiler::accountSeconds);
        accountWindow(1);
    }
    if (_profiler != nullptr)
        ++_profiler->cycles;
    return outcome;
}

EventId
SmtCore::stallEventFor(ContextId ctx, Cycle now) const
{
    const ContextState& cs = _ctx[ctx];
    const SoftwareThread* thread = _scheduler.active(ctx);
    const ThreadFrontEnd& fe =
        const_cast<SoftwareThread*>(thread)->frontEnd();
    const Cycle gate = std::max(
        cs.resumeAt, fe.valid ? fe.bundleReadyAt : fe.nextFetchAt);
    if (gate > now)
        return EventId::kFetchStallCycles;
    // Resource-blocked, mirroring allocFromContext's check order.
    if (robFull(ctx))
        return EventId::kRobFullStall;
    return fe.bundle.uops[fe.pos].type == UopType::kLoad
               ? EventId::kLdqFullStall
               : EventId::kStqFullStall;
}

void
SmtCore::fastForwardAccount(Cycle from, Cycle to)
{
    if (to <= from)
        return;
    const std::uint64_t window = to - from;
    _ffCycles += window;
    const std::uint32_t contexts = activeContexts();

    // retireStage: every skipped cycle retires zero µops.
    _pmu.recordBulk(EventId::kRetire0, 0, window);

    // accountCycle equivalent: the active-thread set and kernel-mode
    // flags cannot change inside a provably stalled window, so the
    // whole window folds into the batched accounting accumulator
    // (usually without even a signature change, since the stalled
    // cycles before and after the jump account identically).
    accountWindow(window);

    // fetchAllocStage: the one chosen context records one stall
    // event per cycle. With both contexts occupied the P4-style
    // alternation splits the window by cycle parity; otherwise the
    // occupied context (if any) owns every cycle.
    std::array<std::uint64_t, kNumContexts> chosen{};
    if (contexts == 1) {
        chosen[0] = _scheduler.active(0) ? window : 0;
    } else {
        const bool has0 = _scheduler.active(0) != nullptr;
        const bool has1 = _scheduler.active(1) != nullptr;
        // Cycles c in [from, to) with (c & 1) == 0.
        const std::uint64_t even = (to + 1) / 2 - (from + 1) / 2;
        if (has0 && has1) {
            chosen[0] = even;
            chosen[1] = window - even;
        } else if (has0) {
            chosen[0] = window;
        } else if (has1) {
            chosen[1] = window;
        }
    }
    for (ContextId ctx = 0; ctx < contexts; ++ctx) {
        if (chosen[ctx] == 0)
            continue;
        const EventId stall = stallEventFor(ctx, from);
        _pmu.recordBulk(stall, ctx, chosen[ctx]);
        if (_trace != nullptr && _trace->enabled()) {
            _trace->span(trace::contextTrack(ctx), stallName(stall),
                         from, to);
        }
    }
    if (_trace != nullptr && _trace->enabled())
        _trace->complete(trace::Track::kMachine, "fast_forward",
                         from, to);
}

} // namespace jsmt
