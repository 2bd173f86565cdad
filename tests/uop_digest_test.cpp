/**
 * @file
 * µop-stream digests: the first bundles every synthesis path emits
 * from a fixed seed, hashed field by field and pinned.
 *
 * Workload synthesis is a chain of random draws (dependence
 * distance, µop type, data tier, code jumps); a change in draw
 * order, in a threshold comparison or in a field value shows up here
 * directly, before it reaches the event-total goldens. The digests
 * cover every consumed field: the pipeline reads dataVaddr only for
 * loads and stores and mispredictProb only for branches, so those
 * fields are hashed only for those types.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>

#include "jvm/benchmarks.h"
#include "jvm/data_model.h"
#include "jvm/process.h"

namespace jsmt {
namespace {

constexpr int kBundles = 16384;
constexpr std::uint64_t kSeed = 2024;

/** FNV-1a over 64-bit words. */
struct Digest
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }

    void
    addBundle(const FetchBundle& bundle)
    {
        add(bundle.lineVaddr);
        add(bundle.traceAddr);
        add(bundle.asid);
        add(bundle.kernelMode ? 1 : 0);
        add(std::bit_cast<std::uint32_t>(bundle.rebuildProb));
        add(bundle.count);
        for (std::uint8_t i = 0; i < bundle.count; ++i) {
            const Uop& uop = bundle.uops[i];
            add(static_cast<std::uint64_t>(uop.type));
            add(uop.kernelMode ? 1 : 0);
            add(uop.depDist);
            add(uop.execLatency);
            add(uop.pc);
            if (uop.type == UopType::kLoad ||
                uop.type == UopType::kStore)
                add(uop.dataVaddr);
            if (uop.type == UopType::kBranch)
                add(std::bit_cast<std::uint32_t>(uop.mispredictProb));
        }
    }
};

/** A one-thread JVM process on its own scheduler and PMU. */
struct Jvm
{
    explicit Jvm(const WorkloadProfile& profile)
        : scheduler(OsConfig{}, pmu),
          process(1, 5, profile, 1, 1.0, kSeed, scheduler, pmu)
    {
    }

    Pmu pmu;
    Scheduler scheduler;
    JavaProcess process;
};

/** Digest of up to kBundles bundles; @p produced gets the count. */
std::uint64_t
streamDigest(JavaThread& thread, int& produced)
{
    Digest digest;
    FetchBundle bundle;
    produced = 0;
    while (produced < kBundles && thread.nextBundle(0, bundle)) {
        digest.addBundle(bundle);
        ++produced;
    }
    digest.add(static_cast<std::uint64_t>(produced));
    return digest.hash;
}

struct Pinned
{
    const char* stream;
    std::uint64_t digest;
};

// A new digest means new µop streams, and so new simulated results
// everywhere: a change that only speeds synthesis up must keep them.
constexpr Pinned kAppDigests[] = {
    {"compress", 16141922437564929895ULL},
    {"jess", 4752526522546650371ULL},
    {"db", 6187702498634460984ULL},
    {"javac", 14186578112277193902ULL},
    {"mpegaudio", 15325025042833547063ULL},
    {"jack", 12510554498309320216ULL},
    {"MolDyn", 3447550544775697018ULL},
    {"MonteCarlo", 10046723846030384287ULL},
    {"RayTracer", 11708795898806711687ULL},
    {"PseudoJBB", 13786144618388238883ULL},
};
constexpr std::uint64_t kKernelDigest = 5241626978734287268ULL;
constexpr std::uint64_t kCollectorDigest = 5898396467680758768ULL;
constexpr Pinned kDataModelDigests[] = {
    {"compress", 492218127801107202ULL},
    {"jess", 10101777585295858924ULL},
    {"db", 14285032933250686393ULL},
    {"javac", 12119413410878001211ULL},
    {"mpegaudio", 3762437884372811167ULL},
    {"jack", 5026271993719903998ULL},
    {"MolDyn", 5679776361747364618ULL},
    {"MonteCarlo", 9845162184881150809ULL},
    {"RayTracer", 8043914845146123417ULL},
    {"PseudoJBB", 10457895933019058895ULL},
};

TEST(UopDigest, ApplicationStreamsArePinned)
{
    ASSERT_EQ(std::size(kAppDigests), benchmarkNames().size());
    for (const Pinned& pinned : kAppDigests) {
        Jvm jvm(benchmarkProfile(pinned.stream));
        int produced = 0;
        const std::uint64_t digest =
            streamDigest(*jvm.process.threads()[0], produced);
        EXPECT_EQ(produced, kBundles) << pinned.stream;
        EXPECT_EQ(digest, pinned.digest) << pinned.stream;
    }
}

TEST(UopDigest, KernelStreamIsPinned)
{
    Jvm jvm(benchmarkProfile("compress"));
    JavaThread& thread = *jvm.process.threads()[0];
    const std::uint64_t work =
        std::uint64_t{kBundles} * kUopsPerTraceLine;
    thread.addKernelWork(work);
    int produced = 0;
    const std::uint64_t digest = streamDigest(thread, produced);
    EXPECT_EQ(produced, kBundles);
    EXPECT_EQ(digest, kKernelDigest);
}

TEST(UopDigest, CollectorStreamIsPinned)
{
    Jvm jvm(benchmarkProfile("PseudoJBB"));
    JavaThread& gc = jvm.process.collector();
    gc.startCollection(std::uint64_t{kBundles} * kUopsPerTraceLine);
    gc.setState(ThreadState::kRunnable);
    int produced = 0;
    const std::uint64_t digest = streamDigest(gc, produced);
    EXPECT_EQ(produced, kBundles);
    EXPECT_EQ(digest, kCollectorDigest);
}

TEST(UopDigest, MultiThreadDataStreamsArePinned)
{
    // Four threads, so the cross-thread (reduction) path draws too;
    // one-thread bundle streams never reach it.
    constexpr int kAddrs = 20000;
    for (const Pinned& pinned : kDataModelDigests) {
        DataModel model(benchmarkProfile(pinned.stream),
                        Rng(kSeed), 1, 4);
        Digest digest;
        for (int i = 0; i < kAddrs; ++i)
            digest.add(model.nextAddr());
        EXPECT_EQ(digest.hash, pinned.digest) << pinned.stream;
    }
}

} // namespace
} // namespace jsmt
