/**
 * @file
 * Unit tests for the deterministic random-number generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "jvm/benchmarks.h"

namespace jsmt {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(19);
    const double p = 0.25;
    double sum = 0.0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / kN, 3.0, 0.15);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(rng.geometric(0.001, 10), 10u);
    EXPECT_EQ(rng.geometric(0.0, 42), 42u);
    EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, ForkIndependence)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.next() == child.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

/** Every p the workload synthesis passes to geometric(). */
std::vector<double>
profileGeometricPs()
{
    std::vector<WorkloadProfile> profiles;
    for (const std::string& name : benchmarkNames())
        profiles.push_back(benchmarkProfile(name));
    profiles.push_back(kernelProfile());
    std::vector<double> ps;
    for (const WorkloadProfile& profile : profiles) {
        ps.push_back(1.0 / profile.meanDepDist);
        ps.push_back(1.0 / profile.codeMeanRun);
    }
    // The collector thread's own profile (jvm/java_thread.cc).
    ps.push_back(1.0 / 3.0);
    ps.push_back(1.0 / 6.0);
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    return ps;
}

TEST(Rng, GeometricDrawsArePinned)
{
    // 10^6 draws for every profile p, hashed. Every simulated result
    // depends on these draws, so a change to how they are computed
    // must keep the hash.
    constexpr int kDraws = 1'000'000;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const double p : profileGeometricPs()) {
        Rng rng(0xfeed);
        for (int i = 0; i < kDraws; ++i) {
            hash ^= rng.geometric(p);
            hash *= 0x100000001b3ULL;
        }
    }
    EXPECT_EQ(hash, 1827712452600410820ULL);
}

/** Every fraction the synthesis draws against, with cumulative sums. */
std::vector<double>
profileFractions()
{
    std::vector<WorkloadProfile> profiles;
    for (const std::string& name : benchmarkNames())
        profiles.push_back(benchmarkProfile(name));
    profiles.push_back(kernelProfile());
    std::vector<double> xs;
    for (const WorkloadProfile& p : profiles) {
        const double store_hi = p.loadFrac + p.storeFrac;
        const double fp_hi = store_hi + p.fpFrac;
        xs.insert(xs.end(),
                  {p.loadFrac, p.storeFrac, p.fpFrac, p.branchFrac,
                   store_hi, fp_hi, fp_hi + p.branchFrac,
                   p.mispredictRate, p.codeJumpLocal,
                   p.traceDiversity, p.privateFrac, p.hotFrac,
                   p.warmFrac, p.hotFrac + p.warmFrac, p.sweepFrac,
                   p.crossThreadFrac});
    }
    return xs;
}

/** The double comparison uniform() < x for raw draw @p k. */
bool
uniformBelow(std::uint64_t k, double x)
{
    return static_cast<double>(k) * 0x1.0p-53 < x;
}

TEST(Rng, ThresholdMatchesDoubleCompareAtTheEdge)
{
    constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
    std::vector<double> xs = {
        0.0,
        std::numeric_limits<double>::denorm_min(),
        0x1.0p-1060,
        0x1.0p-53,
        0.5,
        1.0 - 0x1.0p-53,
        1.0,
        1.5,
        -0.25,
        std::numeric_limits<double>::infinity(),
    };
    const std::vector<double> fractions = profileFractions();
    xs.insert(xs.end(), fractions.begin(), fractions.end());
    for (const double x : xs) {
        const std::uint64_t t = uniformThreshold(x);
        ASSERT_LE(t, kTop) << x;
        // Both sides of the edge, within the 53-bit draw range.
        for (const std::uint64_t k : {t - 1, t, t + 1}) {
            if (k >= kTop)
                continue;
            EXPECT_EQ(k < t, uniformBelow(k, x))
                << "x=" << x << " k=" << k;
        }
        EXPECT_EQ(0 < t, uniformBelow(0, x)) << x;
        EXPECT_EQ(kTop - 1 < t, uniformBelow(kTop - 1, x)) << x;
    }
    EXPECT_EQ(uniformThreshold(0.0), 0u);
    EXPECT_EQ(uniformThreshold(0x1.0p-53), 1u);
    EXPECT_EQ(uniformThreshold(0.5), kTop / 2);
    EXPECT_EQ(uniformThreshold(1.0 - 0x1.0p-53), kTop - 1);
    EXPECT_EQ(uniformThreshold(1.0), kTop);
    EXPECT_EQ(uniformThreshold(1.5), kTop);
    EXPECT_EQ(uniformThreshold(std::numeric_limits<double>::denorm_min()),
              1u);
}

TEST(Rng, NanThresholdIsNeverTrue)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(uniformThreshold(nan), 0u);
    // chance(NaN) draws and fails; the compiled form does the same.
    const Rng::Odds odds(nan);
    EXPECT_TRUE(odds.draws);
    Rng a(5);
    Rng b(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(a.chance(nan));
        EXPECT_FALSE(b.chance(odds));
    }
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, OddsMatchChanceResultsAndDraws)
{
    std::vector<double> ps = {0.0, -1.0, 0x1.0p-53, 0.3, 0.5,
                              1.0 - 0x1.0p-53, 1.0, 2.0};
    const std::vector<double> fractions = profileFractions();
    ps.insert(ps.end(), fractions.begin(), fractions.end());
    for (const double p : ps) {
        const Rng::Odds odds(p);
        // Certain outcomes are decided without a draw.
        EXPECT_EQ(odds.draws, p > 0.0 && p < 1.0) << p;
        Rng a(41);
        Rng b(41);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(a.chance(p), b.chance(odds)) << p;
        EXPECT_EQ(a.next(), b.next()) << p;
    }
}

TEST(Rng, SharedGeometricTablesMatchTheReference)
{
    // 10^6 draws for every profile p against the reference formula
    // floor(log1p(-u) / log1p(-p)) on a twin stream.
    constexpr int kDraws = 1'000'000;
    constexpr std::uint64_t kCap = 1u << 20;
    for (const double p : profileGeometricPs()) {
        Rng rng(0xbeef);
        Rng twin(0xbeef);
        const double log_denom = std::log1p(-p);
        for (int i = 0; i < kDraws; ++i) {
            const double u = twin.uniform();
            const auto n = static_cast<std::uint64_t>(
                std::log1p(-u) / log_denom);
            ASSERT_EQ(rng.geometric(p), std::min(n, kCap))
                << "p=" << p << " draw " << i;
        }
    }
}

TEST(Rng, GeometricSliversTakeTheReferencePath)
{
    // Raw draws straddling every interval edge: the sliver between a
    // shrunk edge and the true boundary must still answer exactly
    // what the reference computation does.
    constexpr std::uint64_t kCap = 1u << 20;
    for (const double p : profileGeometricPs()) {
        const GeoTable& table = GeoTable::forP(p);
        ASSERT_GT(table.intervals(), 0u) << p;
        for (std::uint32_t n = 0; n < table.intervals(); ++n) {
            for (const double edge : {table.lower(n), table.upper(n)}) {
                const auto centre = static_cast<std::uint64_t>(
                    edge * 0x1.0p53);
                // ±2^20 raw steps spans the ~1e-6 sliver and beyond.
                for (std::int64_t d = -(1 << 20); d <= (1 << 20);
                     d += 4099) {
                    const std::int64_t raw =
                        static_cast<std::int64_t>(centre) + d;
                    if (raw < 0 || raw >= (std::int64_t{1} << 53))
                        continue;
                    const auto r = static_cast<std::uint64_t>(raw);
                    ASSERT_EQ(table.sample(r, kCap),
                              table.reference(r, kCap))
                        << "p=" << p << " raw=" << r;
                }
            }
        }
    }
}

TEST(Rng, GeometricTablesAreSharedAndCertainOutcomesDrawNothing)
{
    const GeoTable& table = GeoTable::forP(0.25);
    EXPECT_EQ(&table, &GeoTable::forP(0.25));
    EXPECT_NE(&table, &GeoTable::forP(0.5));
    EXPECT_EQ(table.p(), 0.25);
    // p <= 0 and p >= 1 return without consuming a draw.
    Rng a(3);
    Rng b(3);
    EXPECT_EQ(a.geometric(0.0, 9), 9u);
    EXPECT_EQ(a.geometric(-1.0, 9), 9u);
    EXPECT_EQ(a.geometric(1.0, 9), 0u);
    EXPECT_EQ(a.geometric(3.0, 9), 0u);
    EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace jsmt
