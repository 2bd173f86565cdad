/**
 * @file
 * Exact division by a precomputed invariant divisor.
 *
 * The workload synthesizers reduce raw RNG draws into region-sized
 * offsets with `next() % span` on every generated load/store. The
 * spans are fixed at construction, but the hardware 64-bit divide
 * still costs 20+ cycles per draw on the simulator's hottest path.
 * ExactDiv precomputes the Granlund-Montgomery magic number for a
 * divisor (Hacker's Delight §10; the scheme libdivide implements)
 * so each reduction becomes a high multiply plus shifts that yield
 * the EXACT hardware quotient and remainder for every numerator —
 * results are bit-identical to `%`, only cheaper.
 *
 * Construction self-checks the magic against the hardware divide on
 * a battery of adversarial numerators (cold path only), so a faulty
 * table aborts loudly instead of silently perturbing a run. The
 * check costs a few hundred hardware divides, so each distinct
 * divisor is built and checked once per process (forDivisor()) and
 * then copied by value into its users: the per-draw path reads the
 * copy's own fields, with no indirection.
 */

#ifndef JSMT_COMMON_EXACT_DIV_H
#define JSMT_COMMON_EXACT_DIV_H

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace jsmt {

/** Precomputed exact `/` and `%` by one invariant 64-bit divisor. */
class ExactDiv
{
  public:
    /** Divisor 0 (draw() yields 0 and consumes nothing). */
    ExactDiv() = default;

    /**
     * @return the process-wide checked instance for divisor @p d
     * (d == 0 is allowed; see draw()), built and self-checked on the
     * first request. Lookups of an existing divisor take no lock;
     * concurrent first requests for one d receive the same object.
     */
    static const ExactDiv& forDivisor(std::uint64_t d);

    /** @return distinct divisors built (and so checked) so far. */
    static std::size_t internedCount();

    /** @return the divisor this instance reduces by. */
    std::uint64_t divisor() const { return _d; }

    /** @return n / divisor, exactly as the hardware divide would. */
    std::uint64_t
    quotient(std::uint64_t n) const
    {
        if (_shiftOnly)
            return n >> _shift;
        const std::uint64_t q = mulhi(_magic, n);
        if (_add)
            return (((n - q) >> 1) + q) >> _shift;
        return q >> _shift;
    }

    /** @return n % divisor, exactly as the hardware divide would. */
    std::uint64_t
    mod(std::uint64_t n) const
    {
        return n - quotient(n) * _d;
    }

    /**
     * @return a uniform value in [0, divisor) drawn from @p rng,
     * reproducing Rng::below(divisor) exactly — including consuming
     * no draw at all when the divisor is zero.
     */
    std::uint64_t
    draw(Rng& rng) const
    {
        if (_d == 0)
            return 0;
        return mod(rng.next());
    }

  private:
    /** Precompute and self-check for divisor @p d (forDivisor()). */
    explicit ExactDiv(std::uint64_t d);

    // GCC/Clang extension; guarded from -Wpedantic.
    __extension__ typedef unsigned __int128 Wide;

    static std::uint64_t
    mulhi(std::uint64_t a, std::uint64_t b)
    {
        return static_cast<std::uint64_t>(
            (static_cast<Wide>(a) * b) >> 64);
    }

    std::uint64_t _d = 0;
    std::uint64_t _magic = 0;
    std::uint8_t _shift = 0;
    bool _shiftOnly = true;
    bool _add = false;
};

} // namespace jsmt

#endif // JSMT_COMMON_EXACT_DIV_H
