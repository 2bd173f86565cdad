/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in jsmt flows through Rng so that runs are
 * exactly reproducible from a seed. The generator is xoshiro256**,
 * seeded through SplitMix64, both implemented locally so results do
 * not depend on standard-library implementation details.
 */

#ifndef JSMT_COMMON_RNG_H
#define JSMT_COMMON_RNG_H

#include <array>
#include <cstdint>

namespace jsmt {

/**
 * Integer threshold of the comparison u < @p x, for u = k * 2^-53
 * (k = next() >> 11, as in Rng::uniform()).
 *
 * k * 2^-53 is exact and scaling by 2^53 is exact, so u < x holds
 * exactly when k < x * 2^53, and for an integer k exactly when
 * k < ceil(x * 2^53). The threshold therefore reproduces the double
 * comparison for every k: x <= 0 and NaN give 0 (never true),
 * x >= 1 gives 2^53 (always true).
 */
std::uint64_t uniformThreshold(double x);

/**
 * Immutable acceptance intervals for one geometric(p), shared by
 * every generator in the process.
 *
 * The reference draw is n = floor(log1p(-u) / log1p(-p)). For each
 * small n the table holds a slightly-shrunk u interval on which the
 * floored quotient is provably n even under the rounding of log1p
 * and the division (the shrink margin is ~1e-6 in quotient units,
 * ten orders of magnitude above the actual rounding error, and each
 * interval is checked against the reference at both edges). Draws
 * inside an interval skip the libm call; the ~1e-6 sliver near each
 * boundary, and the tail past the table, fall back to the reference
 * computation, so every draw is bit-identical to it.
 *
 * A table is a pure function of p, so one table per distinct p is
 * built on first use and then shared, read-only, by every Rng on
 * every thread (see forP()).
 */
class GeoTable
{
  public:
    /**
     * @return the process-wide table for @p p (0 < p < 1), built on
     * the first request. Lookups of an existing table take no lock;
     * concurrent first requests for one p receive the same object.
     */
    static const GeoTable& forP(double p);

    /** @return the success probability this table was built for. */
    double p() const { return _p; }

    /**
     * @return the draw for raw = next() >> 11, clamped to @p cap.
     *
     * O(1) dispatch: buckets provably inside one acceptance interval
     * store its n. u is raw * 2^-53 and the bucket count is a power
     * of two, so the bucket index floor(u * kBuckets) is the top
     * kBucketBits of raw: the common case never touches a double.
     */
    std::uint64_t
    sample(std::uint64_t raw, std::uint64_t cap) const
    {
        const std::uint32_t n = _bucket[raw >> (53 - kBucketBits)];
        if (n != kSlowBucket)
            return n > cap ? cap : n;
        return sampleSlow(raw, cap);
    }

    /** @return the reference draw for raw (no table shortcut). */
    std::uint64_t reference(std::uint64_t raw, std::uint64_t cap) const;

    /** @return number of acceptance intervals (tests). */
    std::uint32_t intervals() const { return _len; }

    /** @return lower edge of interval @p n, in u space (tests). */
    double lower(std::uint32_t n) const { return _lo[n]; }

    /** @return upper edge of interval @p n, in u space (tests). */
    double upper(std::uint32_t n) const { return _hi[n]; }

  private:
    explicit GeoTable(double p);

    /** floor(log1p(-u) / log1p(-p)): the reference draw for u. */
    std::uint64_t floorQuotient(double u) const;

    /** Interval scan, then the reference on a boundary sliver. */
    std::uint64_t sampleSlow(std::uint64_t raw,
                             std::uint64_t cap) const;

    /**
     * Bucket j covers u in [j, j+1) / kBuckets. A bucket lying
     * entirely inside one acceptance interval stores that interval's
     * n; buckets straddling a boundary (or past the table) store
     * kSlowBucket and take sampleSlow().
     */
    static constexpr std::uint32_t kBucketBits = 11;
    static constexpr std::uint32_t kBuckets = 1u << kBucketBits;
    static constexpr std::uint8_t kSlowBucket = 0xff;
    static constexpr std::uint32_t kMaxIntervals = 48;

    double _p;
    double _logDenom;
    std::uint32_t _len = 0;
    std::array<double, kMaxIntervals> _lo{};
    std::array<double, kMaxIntervals> _hi{};
    std::array<std::uint8_t, kBuckets> _bucket{};
};

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Each simulated thread owns its own Rng forked from the machine seed,
 * so adding or removing one thread never perturbs the random streams
 * of the others. An Rng is its 32-byte state plus a pointer to the
 * shared geometric table it drew from last.
 */
class Rng
{
  public:
    /**
     * chance(p) compiled once for a fixed p: the same result and the
     * same draw consumption as chance(p), on an integer compare.
     */
    struct Odds
    {
        explicit Odds(double p)
            : threshold(p >= 1.0 ? 1 : uniformThreshold(p)),
              draws(!(p <= 0.0) && !(p >= 1.0))
        {
        }

        /** Drawn: hit when next() >> 11 is below this. Undrawn:
         *  nonzero means always, zero never. */
        std::uint64_t threshold;
        /** False when p <= 0 or p >= 1 (decided without a draw). */
        bool draws;
    };

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    // The draw primitives are inline: workload synthesis makes tens
    // of millions of draws per simulated second, so the call
    // overhead of an out-of-line xoshiro step is measurable.

    /** @return next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;
        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);
        return result;
    }

    /**
     * @return the top 53 bits of next(): the integer k behind
     * uniform() = k * 2^-53. Compare against uniformThreshold(x) to
     * test uniform() < x without a double.
     */
    std::uint64_t next53() { return next() >> 11; }

    /** @return uniform integer in [0, bound); bound 0 yields 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Simple modulo mapping; the tiny modulo bias is irrelevant
        // for workload synthesis.
        return next() % bound;
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        if (hi <= lo)
            return lo;
        return lo + below(hi - lo + 1);
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next53()) * 0x1.0p-53;
    }

    /** @return true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** @return chance(p) for the p @p odds was compiled from. */
    bool
    chance(const Odds& odds)
    {
        if (!odds.draws)
            return odds.threshold != 0;
        return next53() < odds.threshold;
    }

    /**
     * Geometric distribution: number of failures before first success
     * with success probability p, clamped to [0, cap].
     *
     * Inline hot path: one draw plus one load from the shared table
     * for p (see GeoTable); the table lookup runs only when p differs
     * from the previous call's.
     */
    std::uint64_t
    geometric(double p, std::uint64_t cap = 1u << 20)
    {
        if (p >= 1.0)
            return 0;
        if (p <= 0.0)
            return cap;
        if (_geo == nullptr || _geo->p() != p)
            _geo = &GeoTable::forP(p);
        return _geo->sample(next53(), cap);
    }

    /**
     * Fork a statistically independent child generator. Used to hand
     * each thread/component its own stream.
     */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> _state;
    /** Table of the last geometric() call (shared, never owned). */
    const GeoTable* _geo = nullptr;
};

static_assert(sizeof(Rng) <= 64,
              "Rng is per-thread state: keep it to one cache line");

} // namespace jsmt

#endif // JSMT_COMMON_RNG_H
