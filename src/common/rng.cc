#include "common/rng.h"

#include <bit>
#include <cmath>

#include "common/intern.h"

namespace jsmt {

namespace {

/** SplitMix64 step, used for seed expansion. */
std::uint64_t
splitMix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& word : _state)
        word = splitMix64(s);
    // xoshiro must not be seeded with all zeros; SplitMix64 cannot
    // produce four zero outputs in a row, but be defensive anyway.
    if (_state[0] == 0 && _state[1] == 0 && _state[2] == 0 &&
        _state[3] == 0) {
        _state[0] = 1;
    }
}

std::uint64_t
uniformThreshold(double x)
{
    if (!(x > 0.0))
        return 0;
    if (x >= 1.0)
        return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(x * 0x1.0p53));
}

namespace {

/** The process's tables, keyed by the bit pattern of p so that even
 *  a NaN p finds its table. */
constinit InternList<GeoTable> g_geoTables;

} // namespace

const GeoTable&
GeoTable::forP(double p)
{
    return g_geoTables.get(std::bit_cast<std::uint64_t>(p),
                           [p] { return GeoTable(p); });
}

GeoTable::GeoTable(double p) : _p(p), _logDenom(std::log1p(-p))
{
    // Interval for result n, shrunk by kMargin in quotient units on
    // each side. The quotient's rounding error is bounded by a few
    // ulps (|q| <= 48 here, so absolute error < 1e-13), far inside
    // the margin. Rounding the edges to doubles is not: once an
    // interval's margin in u is below an ulp of u (large n and p,
    // e.g. n >= 33 at p = 0.5), an edge can round onto the far side
    // of the true boundary. So an interval is kept only when the
    // reference floors both of its edges to n; the reference is
    // monotone in u, so it then floors every u inside to n, and the
    // table ends at the first interval that fails.
    constexpr double kMargin = 1e-6;
    for (std::uint32_t n = 0; n < kMaxIntervals; ++n) {
        const double q = static_cast<double>(n);
        const double lo = -std::expm1((q + kMargin) * _logDenom);
        const double hi = -std::expm1((q + 1.0 - kMargin) * _logDenom);
        if (!(lo < hi) || !(hi < 1.0) || floorQuotient(lo) != n ||
            floorQuotient(hi) != n)
            break;
        _lo[n] = lo;
        _hi[n] = hi;
        ++_len;
    }
    // The quotient is never negative (both logs are negative), so
    // every u below hi[0] floors to 0.
    if (_len > 0)
        _lo[0] = 0.0;
    // Bucket j covers u in [j, j+1) / kBuckets (both edges exact
    // doubles). The bucket takes interval n only when it lies
    // entirely inside [lo[n], hi[n]]: then any u in the bucket
    // satisfies lo[n] <= u < hi[n], and since u > hi[n-1] the scan's
    // first match is n. Everything else keeps the slow marker.
    _bucket.fill(kSlowBucket);
    std::uint32_t n = 0;
    for (std::uint32_t j = 0; j < kBuckets; ++j) {
        const double blo = static_cast<double>(j) / kBuckets;
        const double bhi = static_cast<double>(j + 1) / kBuckets;
        while (n < _len && _hi[n] < bhi)
            ++n;
        if (n >= _len)
            break;
        if (_lo[n] <= blo && bhi <= _hi[n])
            _bucket[j] = static_cast<std::uint8_t>(n);
    }
}

std::uint64_t
GeoTable::sampleSlow(std::uint64_t raw, std::uint64_t cap) const
{
    const double u = static_cast<double>(raw) * 0x1.0p-53;
    for (std::uint32_t n = 0; n < _len; ++n) {
        if (u <= _hi[n]) {
            if (u >= _lo[n])
                return n > cap ? cap : n;
            break; // Boundary sliver: reference path.
        }
    }
    return reference(raw, cap);
}

std::uint64_t
GeoTable::reference(std::uint64_t raw, std::uint64_t cap) const
{
    const std::uint64_t n =
        floorQuotient(static_cast<double>(raw) * 0x1.0p-53);
    return n > cap ? cap : n;
}

std::uint64_t
GeoTable::floorQuotient(double u) const
{
    return static_cast<std::uint64_t>(std::log1p(-u) / _logDenom);
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace jsmt
