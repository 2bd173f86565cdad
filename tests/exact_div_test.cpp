/**
 * @file
 * Tests for ExactDiv: quotients and remainders equal the hardware
 * divide, draws reproduce Rng::below(), and each divisor is built and
 * self-checked once per process.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/exact_div.h"
#include "common/rng.h"

namespace jsmt {
namespace {

TEST(ExactDiv, MatchesTheHardwareDivide)
{
    for (const std::uint64_t d :
         {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{7},
          std::uint64_t{4096}, std::uint64_t{24576},
          std::uint64_t{1'000'003}, ~std::uint64_t{0}}) {
        SCOPED_TRACE(d);
        const ExactDiv& div = ExactDiv::forDivisor(d);
        EXPECT_EQ(div.divisor(), d);
        Rng rng(d);
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t n = rng.next();
            EXPECT_EQ(div.quotient(n), n / d);
            EXPECT_EQ(div.mod(n), n % d);
        }
    }
}

TEST(ExactDiv, DrawReproducesBelow)
{
    for (const std::uint64_t d :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5},
          std::uint64_t{65536}, std::uint64_t{393'216}}) {
        SCOPED_TRACE(d);
        // A copy draws exactly like the interned instance.
        const ExactDiv div = ExactDiv::forDivisor(d);
        Rng a(11);
        Rng b(11);
        for (int i = 0; i < 1000; ++i)
            EXPECT_EQ(div.draw(a), b.below(d));
        // Divisor 0 consumed no draw from either stream.
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(ExactDiv, InternsOneCheckedInstancePerDivisor)
{
    // Divisors no synthesis path uses, so these are first requests.
    constexpr std::uint64_t kFresh = 0x5eed'0000'0001ULL;
    const std::size_t before = ExactDiv::internedCount();
    const ExactDiv* first = &ExactDiv::forDivisor(kFresh);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(&ExactDiv::forDivisor(kFresh), first);
    // Built, and so self-checked, exactly once.
    EXPECT_EQ(ExactDiv::internedCount(), before + 1);

    const ExactDiv* second = &ExactDiv::forDivisor(kFresh + 2);
    EXPECT_NE(second, first);
    EXPECT_EQ(second->divisor(), kFresh + 2);
    EXPECT_EQ(ExactDiv::internedCount(), before + 2);
}

TEST(ExactDiv, DefaultIsDivisorZero)
{
    const ExactDiv div;
    EXPECT_EQ(div.divisor(), 0u);
    Rng a(3);
    Rng b(3);
    EXPECT_EQ(div.draw(a), 0u);
    EXPECT_EQ(a.next(), b.next());
}

} // namespace
} // namespace jsmt
