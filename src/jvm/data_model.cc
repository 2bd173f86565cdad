#include "jvm/data_model.h"

#include <algorithm>

namespace jsmt {

namespace {

std::uint64_t
roundUpToPage(std::uint64_t bytes)
{
    constexpr std::uint64_t kPage = 4096;
    return (bytes + kPage - 1) & ~(kPage - 1);
}

/**
 * Hot, warm and cold spans of a region of @p bytes. The interned
 * divisors are copied: draws read the model's own fields.
 */
std::array<ExactDiv, 3>
tierSpans(std::uint64_t bytes, const WorkloadProfile& profile)
{
    return {ExactDiv::forDivisor(std::min(profile.hotBytes, bytes)),
            ExactDiv::forDivisor(std::min(profile.warmBytes, bytes)),
            ExactDiv::forDivisor(bytes)};
}

} // namespace

DataModel::DataModel(const WorkloadProfile& profile, Rng rng,
                     std::uint32_t thread_index,
                     std::uint32_t num_threads)
    : _profile(profile),
      _rng(std::move(rng)),
      _threadIndex(thread_index),
      _numThreads(std::max(1u, num_threads)),
      _privateStride(roundUpToPage(profile.privateBytes)),
      _private(profile.privateFrac),
      _crossThread(profile.crossThreadFrac),
      _sweep(profile.sweepFrac),
      _hotCut(uniformThreshold(profile.hotFrac)),
      _warmCut(uniformThreshold(profile.hotFrac + profile.warmFrac)),
      _privTiers(tierSpans(profile.privateBytes, profile)),
      _sharedTiers(tierSpans(profile.sharedBytes, profile)),
      _peerPick(ExactDiv::forDivisor(_numThreads - 1))
{
}

Addr
DataModel::privateBaseOf(std::uint32_t index) const
{
    return kPrivateBase +
           static_cast<Addr>(index) * _privateStride;
}

Addr
DataModel::regionAddr(Addr base, const Tiers& tiers)
{
    // Three-tier reuse model: hot (cache-resident), warm
    // (L2-resident), cold (whole footprint). hotFrac and warmFrac
    // are validated non-negative, so _hotCut <= _warmCut and the
    // count of cuts at or below the draw is the tier index. The
    // spans are min(tier, footprint), and ExactDiv::draw()
    // reproduces Rng::below() exactly.
    const std::uint64_t k = _rng.next53();
    const std::size_t tier =
        (k >= _hotCut ? 1u : 0u) + (k >= _warmCut ? 1u : 0u);
    return (base + tiers[tier].draw(_rng)) & ~Addr{7};
}

Addr
DataModel::nextAddr()
{
    if (_rng.chance(_private)) {
        // Private-region access, possibly to another thread's data
        // (reduction/communication traffic). Cross-thread accesses
        // span the peer's whole region — no reuse tiers — so the
        // aggregate working set grows with the thread count.
        if (_numThreads > 1 && _rng.chance(_crossThread)) {
            std::uint32_t owner = static_cast<std::uint32_t>(
                _peerPick.draw(_rng));
            if (owner >= _threadIndex)
                ++owner;
            return (privateBaseOf(owner) +
                    _privTiers[kCold].draw(_rng)) &
                   ~Addr{7};
        }
        return regionAddr(privateBaseOf(_threadIndex), _privTiers);
    }

    // Shared-region access: phase-aligned sweep or tiered random.
    if (_rng.chance(_sweep)) {
        const Addr addr =
            kSharedBase + _sharedTiers[kCold].mod(_sweepPos);
        _sweepPos += _profile.sweepStride;
        return addr & ~Addr{7};
    }
    return regionAddr(kSharedBase, _sharedTiers);
}

} // namespace jsmt
