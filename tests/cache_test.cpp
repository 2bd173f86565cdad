/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.h"

namespace jsmt {
namespace {

CacheConfig
smallCache()
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = 1024; // 4 sets x 4 ways x 64 B.
    config.lineBytes = 64;
    config.ways = 4;
    return config;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x103F, 0)); // Same line.
    EXPECT_FALSE(cache.access(1, 0x1040, 0)); // Next line.
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, AsidIsolation)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(1, 0x1000, 0));
    // Same address, different address space: distinct line.
    EXPECT_FALSE(cache.access(2, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(2, 0x1000, 0));
}

TEST(Cache, LruEviction)
{
    Cache cache(smallCache());
    // Fill one set (set stride = 4 sets * 64 B = 256 B).
    for (Addr i = 0; i < 4; ++i)
        EXPECT_FALSE(cache.access(1, i * 256, 0));
    for (Addr i = 0; i < 4; ++i)
        EXPECT_TRUE(cache.access(1, i * 256, 0));
    // Fifth way evicts the LRU line (address 0).
    EXPECT_FALSE(cache.access(1, 4 * 256, 0));
    EXPECT_FALSE(cache.access(1, 0, 0));
    // Address 2*256 is still resident.
    EXPECT_TRUE(cache.access(1, 2 * 256, 0));
}

TEST(Cache, LookupDoesNotFill)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.lookup(1, 0x40, 0));
    EXPECT_FALSE(cache.access(1, 0x40, 0));
    EXPECT_TRUE(cache.lookup(1, 0x40, 0));
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache cache(smallCache());
    cache.access(1, 0x40, 0);
    cache.flush();
    EXPECT_FALSE(cache.lookup(1, 0x40, 0));
}

TEST(Cache, FlushOfAnEmptiedCacheBehavesLikeAFreshOne)
{
    // flush() skips the clear when no line is valid; a cache emptied
    // line by line must then still replay a fresh cache's history.
    const auto history = [](Cache& cache) {
        std::vector<bool> hits;
        for (Addr i = 0; i < 12; ++i)
            hits.push_back(cache.access(3, (i % 6) * 256, 0));
        return hits;
    };
    Cache fresh(smallCache());
    Cache emptied(smallCache());
    for (Addr i = 0; i < 4; ++i)
        emptied.access(1, i * 256 + 64, 0);
    emptied.flushAsid(1);
    ASSERT_EQ(emptied.validLines(), 0u);
    emptied.flush();
    EXPECT_EQ(history(emptied), history(fresh));
    EXPECT_EQ(emptied.validLines(), fresh.validLines());
    EXPECT_EQ(emptied.evictions(), fresh.evictions());
}

TEST(Cache, FlushAsidIsSelective)
{
    Cache cache(smallCache());
    cache.access(1, 0x40, 0);
    cache.access(2, 0x80, 0);
    cache.flushAsid(1);
    EXPECT_FALSE(cache.lookup(1, 0x40, 0));
    EXPECT_TRUE(cache.lookup(2, 0x80, 0));
}

TEST(Cache, PartitionSeparatesContexts)
{
    CacheConfig config = smallCache();
    config.sharing = Sharing::kPartitionedSets;
    Cache cache(config);
    // The same line filled by context 0 is not visible to
    // context 1 (it indexes the other half of the sets).
    EXPECT_FALSE(cache.access(1, 0x1000, 0));
    EXPECT_FALSE(cache.access(1, 0x1000, 1));
    EXPECT_TRUE(cache.access(1, 0x1000, 0));
    EXPECT_TRUE(cache.access(1, 0x1000, 1));
}

TEST(Cache, RepartitioningFlushes)
{
    Cache cache(smallCache());
    cache.access(1, 0x40, 0);
    cache.setPartitioned(true);
    EXPECT_FALSE(cache.lookup(1, 0x40, 0));
    EXPECT_TRUE(cache.partitioned());
}

TEST(Cache, PartitionHalvesReach)
{
    // Shared: 4 sets reachable; partitioned: 2 per context, so a
    // working set of 3 distinct sets for one context starts
    // conflicting.
    CacheConfig config = smallCache();
    config.sizeBytes = 256; // 4 sets, direct-mapped.
    config.ways = 1;
    Cache shared(config);
    config.sharing = Sharing::kPartitionedSets;
    Cache part(config);

    // Two lines mapping to sets 0 and 2 in the shared cache.
    shared.access(1, 0 * 64, 0);
    shared.access(1, 2 * 64, 0);
    EXPECT_TRUE(shared.lookup(1, 0 * 64, 0));
    EXPECT_TRUE(shared.lookup(1, 2 * 64, 0));

    // Partitioned (2 sets per context): lines 0 and 2 collide in
    // set 0 of the context's half.
    part.access(1, 0 * 64, 0);
    part.access(1, 2 * 64, 0);
    EXPECT_FALSE(part.lookup(1, 0 * 64, 0));
    EXPECT_TRUE(part.lookup(1, 2 * 64, 0));
}

TEST(Cache, StatsClear)
{
    Cache cache(smallCache());
    cache.access(1, 0, 0);
    cache.clearStats();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(CacheDeath, RejectsBadGeometry)
{
    CacheConfig config = smallCache();
    config.lineBytes = 48; // Not a power of two.
    EXPECT_EXIT(Cache{config}, testing::ExitedWithCode(1), "line");
}

} // namespace
} // namespace jsmt
