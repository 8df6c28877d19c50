/**
 * @file
 * Division by a divisor fixed at construction.
 *
 * Set counts, DRAM channel and bank counts, lines per row and bus
 * widths are fixed when a structure is built, so the compiler cannot
 * turn their 64-bit divisions into shifts.  They are powers of two in
 * every paper configuration, but the sweeps also build 3-channel and
 * 48-bank systems and the tests build odd set counts.  Divisor
 * precomputes a shift and a mask for a power of two and keeps the
 * exact division as the fallback, so quot() and rem() always equal
 * x / d and x % d.
 */

#ifndef BEAR_COMMON_DIVISOR_HH
#define BEAR_COMMON_DIVISOR_HH

#include <bit>
#include <cstdint>

#include "common/log.hh"

namespace bear
{

/** x / d and x % d for a fixed d, a shift and a mask when d = 2^k. */
class Divisor
{
  public:
    explicit Divisor(std::uint64_t d)
        : d_(d), pow2_(std::has_single_bit(d)),
          shift_(static_cast<std::uint32_t>(std::countr_zero(d))),
          mask_(d - 1)
    {
        bear_assert(d > 0, "Divisor needs a positive divisor");
    }

    std::uint64_t value() const { return d_; }

    std::uint64_t
    quot(std::uint64_t x) const
    {
        return pow2_ ? x >> shift_ : x / d_;
    }

    std::uint64_t
    rem(std::uint64_t x) const
    {
        return pow2_ ? x & mask_ : x % d_;
    }

  private:
    std::uint64_t d_;
    bool pow2_;
    std::uint32_t shift_;
    std::uint64_t mask_;
};

} // namespace bear

#endif // BEAR_COMMON_DIVISOR_HH
