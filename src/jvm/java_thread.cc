#include "jvm/java_thread.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/log.h"
#include "jvm/process.h"

namespace jsmt {

namespace {

/** Base address of kernel text (separate from any process). */
constexpr Addr kKernelCodeBase = 0xC000'0000;

/** Kernel µops charged per barrier arrival (futex path). */
constexpr std::uint32_t kBarrierKernelUops = 150;

/** Kernel µops charged when blocking on a contended monitor. */
constexpr std::uint32_t kMonitorKernelUops = 120;

/** Maximum dependence distance (must fit the thread ring). */
constexpr std::uint32_t kMaxDepDist = 120;

const WorkloadProfile&
kernelProfileRef()
{
    static const WorkloadProfile profile = kernelProfile();
    return profile;
}

/** Behaviour of the collector thread's own code. */
const WorkloadProfile&
collectorProfileRef()
{
    static const WorkloadProfile profile = [] {
        WorkloadProfile p;
        p.name = "jvm-gc";
        p.uopsPerThread = 1;
        p.loadFrac = 0.40;
        p.storeFrac = 0.20;
        p.fpFrac = 0.0;
        p.branchFrac = 0.12;
        p.meanDepDist = 3.0;   // Pointer chasing through the heap.
        p.mispredictRate = 0.05;
        p.codeLines = 250;     // Compact collector loop.
        p.codeMeanRun = 6.0;
        p.codeJumpLocal = 0.95;
        p.codeLoopWindow = 32;
        p.validate();
        return p;
    }();
    return profile;
}

/** µop type and latency of each slot of the threshold count. */
struct UopSlot
{
    UopType type;
    std::uint16_t latency;
};

/** Slot = number of type cuts at or below the draw (UopMix). */
constexpr std::array<UopSlot, 5> kUopSlots = {{
    {UopType::kLoad, 1},
    {UopType::kStore, 1},
    {UopType::kFp, 5},
    {UopType::kBranch, 1},
    {UopType::kAlu, 1},
}};
constexpr std::uint32_t kBranchSlot = 3;
/** Slots below this are loads and stores (they draw an address). */
constexpr std::uint32_t kFirstNonMemSlot = 2;

} // namespace

JavaThread::UopMix::UopMix(const WorkloadProfile& profile)
    : depP(1.0 / profile.meanDepDist),
      mispredict(static_cast<float>(profile.mispredictRate)),
      rebuild(static_cast<float>(profile.traceDiversity))
{
    // Cumulative sums in the reference left-to-right association, so
    // each cut reproduces the double comparison it replaces. The
    // fractions are validated non-negative, so the cuts never
    // decrease and counting the cuts at or below a draw selects the
    // same type as the first-match comparison chain.
    const double load_hi = profile.loadFrac;
    const double store_hi = load_hi + profile.storeFrac;
    const double fp_hi = store_hi + profile.fpFrac;
    const double branch_hi = fp_hi + profile.branchFrac;
    typeCut = {uniformThreshold(load_hi), uniformThreshold(store_hi),
               uniformThreshold(fp_hi), uniformThreshold(branch_hi)};
}

const JavaThread::UopMix&
JavaThread::kernelMix()
{
    static const UopMix mix(kernelProfileRef());
    return mix;
}

JavaThread::JavaThread(ThreadId id, JavaProcess& process,
                       ThreadKind kind, std::uint32_t app_index,
                       std::uint64_t quota_uops, Rng rng)
    : SoftwareThread(id, process.asid()),
      _process(process),
      _kind(kind),
      _appIndex(app_index),
      _rng(std::move(rng)),
      _appWalker(kind == ThreadKind::kCollector
                     ? collectorProfileRef()
                     : process.profile(),
                 _rng.fork()),
      _kernelWalker(kernelProfileRef(), _rng.fork(),
                    kKernelCodeBase),
      _data(process.profile(), _rng.fork(), app_index,
            process.numAppThreads()),
      _kernelDataModel(kernelProfileRef(), _rng.fork(), 0, 1),
      _userMix(kind == ThreadKind::kCollector ? collectorProfileRef()
                                              : process.profile()),
      _quota(quota_uops)
{
    const WorkloadProfile& profile = process.profile();
    const auto unlimited = ~std::uint64_t{0};
    _nextBarrierAt = profile.barrierIntervalUops > 0
                         ? profile.barrierIntervalUops
                         : unlimited;
    if (profile.monitorIntervalUops > 0) {
        // Stagger monitor entries so threads do not arrive in
        // lockstep.
        _nextMonitorAt = profile.monitorIntervalUops / 2 +
                         _rng.below(profile.monitorIntervalUops);
    } else {
        _nextMonitorAt = unlimited;
    }
    _nextSyscallAt = profile.syscallIntervalUops > 0
                         ? profile.syscallIntervalUops / 2 +
                               _rng.below(
                                   profile.syscallIntervalUops)
                         : unlimited;
    if (kind == ThreadKind::kCollector) {
        // Collectors attribute every retired user-mode µop to the
        // GC (kGcUops), so they always take the retire hook.
        _retireHook = true;
        block(BlockReason::kDormant);
    }
}

void
JavaThread::block(BlockReason reason)
{
    setState(ThreadState::kBlocked);
    _blockReason = reason;
}

void
JavaThread::startCollection(std::uint64_t gc_uops)
{
    if (_kind != ThreadKind::kCollector)
        panic("startCollection on a non-collector thread");
    _gcRemaining = std::max<std::uint64_t>(1, gc_uops);
}

void
JavaThread::grantMonitor()
{
    _monitorGranted = true;
}

Addr
JavaThread::gcScanAddr()
{
    // Linear scan over the shared heap followed by every thread's
    // private area, repeating.
    const WorkloadProfile& profile = _process.profile();
    const std::uint64_t private_span =
        _data.privateStride() *
        static_cast<std::uint64_t>(_process.numAppThreads());
    const std::uint64_t span = profile.sharedBytes + private_span;
    const std::uint64_t offset = _gcSweepPos % span;
    _gcSweepPos += 64;
    if (offset < profile.sharedBytes)
        return DataModel::kSharedBase + offset;
    const std::uint64_t rest = offset - profile.sharedBytes;
    const auto owner = static_cast<std::uint32_t>(
        rest / _data.privateStride());
    return _data.privateBaseOf(owner) +
           rest % _data.privateStride();
}

void
JavaThread::fillBundle(FetchBundle& bundle, CodeWalker& walker,
                       const UopMix& mix, bool kernel_mode,
                       bool memory_heavy)
{
    bundle.lineVaddr = walker.currentAddr();
    bundle.traceAddr = walker.currentDenseAddr();
    bundle.asid = kernel_mode ? kKernelAsid : _process.asid();
    bundle.kernelMode = kernel_mode;
    bundle.rebuildProb = mix.rebuild;
    bundle.count = 0;

    walker.nextLine();
    DataModel& data = kernel_mode ? _kernelDataModel : _data;

    // This loop is the hottest workload-synthesis path in the
    // simulator. Per µop it makes the draws of the reference
    // comparison chain in the same order (dependence distance, type,
    // then an address for loads and stores only), but selects the
    // type by counting integer cut points instead of branching on a
    // double.
    const auto line_uops =
        static_cast<std::uint8_t>(kUopsPerTraceLine);
    const auto jump_slot = static_cast<std::uint8_t>(
        walker.lastStepWasJump() ? line_uops - 1 : line_uops);
    for (std::uint8_t i = 0; i < line_uops; ++i) {
        // Field writes instead of a whole-struct reset: the pipeline
        // reads dataVaddr only for loads/stores and mispredictProb
        // only for branches, so a stale or unused value in those
        // fields is unobservable; every consumed field is written.
        Uop& uop = bundle.uops[i];
        uop.kernelMode = kernel_mode;
        uop.pc = bundle.traceAddr + static_cast<Addr>(i) * 4;
        uop.depDist = static_cast<std::uint8_t>(std::min<std::uint64_t>(
            1 + _rng.geometric(mix.depP, kMaxDepDist), kMaxDepDist));

        const std::uint64_t k = _rng.next53();
        std::uint32_t slot = (k >= mix.typeCut[0] ? 1u : 0u) +
                             (k >= mix.typeCut[1] ? 1u : 0u) +
                             (k >= mix.typeCut[2] ? 1u : 0u) +
                             (k >= mix.typeCut[3] ? 1u : 0u);
        // A line that ends in a taken jump ends in a branch (the
        // type draw is still consumed).
        slot = i == jump_slot ? kBranchSlot : slot;
        uop.type = kUopSlots[slot].type;
        uop.execLatency = kUopSlots[slot].latency;
        uop.mispredictProb = mix.mispredict;
        if (slot < kFirstNonMemSlot)
            uop.dataVaddr =
                memory_heavy ? gcScanAddr() : data.nextAddr();
    }
    bundle.count = line_uops;
    noteGenerated(bundle.count);
}

void
JavaThread::kernelBundle(FetchBundle& bundle)
{
    fillBundle(bundle, _kernelWalker, kernelMix(), true, false);
    const std::uint64_t consumed = takeKernelWork(bundle.count);
    // A short tail of kernel work still fills a whole trace line;
    // account the overshoot as kernel work too (rounding only).
    (void)consumed;
}

bool
JavaThread::collectorBundle(Cycle now, FetchBundle& bundle)
{
    (void)now;
    if (_gcRemaining == 0) {
        block(BlockReason::kDormant);
        return false;
    }
    fillBundle(bundle, _appWalker, _userMix, false, true);
    const std::uint64_t done =
        std::min<std::uint64_t>(_gcRemaining, bundle.count);
    _gcRemaining -= done;
    if (_gcRemaining == 0)
        _process.collectionFinished();
    return true;
}

bool
JavaThread::appBundle(Cycle now, FetchBundle& bundle)
{
    const WorkloadProfile& profile = _process.profile();

    if (_userGenerated >= _quota) {
        finishGeneration(now);
        return false;
    }

    // Barrier synchronization.
    if (_userGenerated >= _nextBarrierAt) {
        _nextBarrierAt += profile.barrierIntervalUops;
        addKernelWork(kBarrierKernelUops);
        if (!_process.arriveBarrier(*this)) {
            _process.pmu().record(EventId::kBarrierWaits, 0);
            block(BlockReason::kBarrier);
            return false;
        }
    }

    // Contended-monitor critical sections.
    if (_inCriticalSection) {
        if (_monitorRemaining == 0) {
            _process.monitorRelease(*this);
            _inCriticalSection = false;
        }
    } else if (_monitorGranted) {
        _monitorGranted = false;
        _inCriticalSection = true;
        _monitorRemaining = profile.monitorHoldUops;
    } else if (_userGenerated >= _nextMonitorAt) {
        _nextMonitorAt += profile.monitorIntervalUops;
        if (_process.monitorAcquire(*this)) {
            _inCriticalSection = true;
            _monitorRemaining = profile.monitorHoldUops;
        } else {
            addKernelWork(kMonitorKernelUops);
            block(BlockReason::kMonitor);
            return false;
        }
    }

    // System calls.
    if (_userGenerated >= _nextSyscallAt) {
        _nextSyscallAt += profile.syscallIntervalUops;
        _process.pmu().record(EventId::kSyscalls, 0);
        addKernelWork(profile.syscallUops);
        kernelBundle(bundle);
        return true;
    }

    fillBundle(bundle, _appWalker, _userMix, false, false);
    _userGenerated += bundle.count;
    if (_inCriticalSection) {
        _monitorRemaining -=
            std::min<std::uint64_t>(_monitorRemaining, bundle.count);
    }

    // Heap allocation (may trigger a stop-the-world collection that
    // blocks this thread; the bundle just produced is still valid).
    _allocCarry += bundle.count * profile.allocBytesPerUop;
    if (_allocCarry >= 1.0) {
        const auto bytes = static_cast<std::uint64_t>(_allocCarry);
        _allocCarry -= static_cast<double>(bytes);
        _process.allocate(bytes);
    }
    return true;
}

void
JavaThread::finishGeneration(Cycle now)
{
    if (_generationDone)
        return;
    if (_inCriticalSection) {
        _process.monitorRelease(*this);
        _inCriticalSection = false;
    }
    _generationDone = true;
    setState(ThreadState::kDone);
    _process.noteGenerationDone(*this, now);
    if (!_drainedNotified && retiredUops() >= generatedUops()) {
        _drainedNotified = true;
        _process.noteThreadDrained(*this, now);
    } else if (!_drainedNotified) {
        // In-flight µops remain: watch retirements until drained.
        _retireHook = true;
    }
}

bool
JavaThread::nextBundle(Cycle now, FetchBundle& bundle)
{
    if (state() == ThreadState::kDone)
        return false;
    if (pendingKernelUops() > 0) {
        kernelBundle(bundle);
        return true;
    }
    if (_kind == ThreadKind::kCollector)
        return collectorBundle(now, bundle);
    return appBundle(now, bundle);
}

void
JavaThread::onRetireHook(const Uop& uop, Cycle now)
{
    if (_kind == ThreadKind::kCollector && !uop.kernelMode)
        _process.pmu().record(EventId::kGcUops, 0);
    if (_generationDone && !_drainedNotified &&
        retiredUops() >= generatedUops()) {
        _drainedNotified = true;
        _process.noteThreadDrained(*this, now);
        // App threads have nothing further to observe once drained;
        // collectors keep the hook for GC µop attribution.
        if (_kind != ThreadKind::kCollector)
            _retireHook = false;
    }
}

} // namespace jsmt
