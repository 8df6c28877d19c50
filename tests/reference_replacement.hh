/**
 * @file
 * Reference replacement policies: the original per-policy classes
 * that the SRAM caches used before the TagStore replacement plane
 * (DESIGN.md §14).  Each keeps its own per-set state and picks a
 * victim among all-valid ways by a plain loop, so the tests hold the
 * production planes to them victim for victim.
 */

#ifndef BEAR_TESTS_REFERENCE_REPLACEMENT_HH
#define BEAR_TESTS_REFERENCE_REPLACEMENT_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace bear::test
{

/** True LRU via per-line last-touch timestamps. */
class LruPolicy
{
  public:
    LruPolicy(std::uint64_t sets, std::uint32_t ways)
        : ways_(ways), lastTouch_(sets * ways, 0)
    {
    }

    void
    touch(std::uint64_t set, std::uint32_t way)
    {
        lastTouch_[set * ways_ + way] = tick_++;
    }

    /** Choose a victim way in @p set (all ways valid). */
    std::uint32_t
    victim(std::uint64_t set)
    {
        std::uint32_t best = 0;
        std::uint64_t oldest = ~0ULL;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint64_t t = lastTouch_[set * ways_ + w];
            if (t < oldest) {
                oldest = t;
                best = w;
            }
        }
        return best;
    }

    void
    invalidate(std::uint64_t set, std::uint32_t way)
    {
        lastTouch_[set * ways_ + way] = 0;
    }

  private:
    std::uint32_t ways_;
    std::uint64_t tick_ = 1;
    std::vector<std::uint64_t> lastTouch_; ///< [set * ways + way]
};

/** Random replacement (deterministic seed). */
class RandomPolicy
{
  public:
    RandomPolicy(std::uint64_t, std::uint32_t ways,
                 std::uint64_t seed = 1)
        : ways_(ways), rng_(seed)
    {
    }

    void touch(std::uint64_t, std::uint32_t) {}

    std::uint32_t
    victim(std::uint64_t)
    {
        return static_cast<std::uint32_t>(rng_.below(ways_));
    }

    void invalidate(std::uint64_t, std::uint32_t) {}

  private:
    std::uint32_t ways_;
    Rng rng_;
};

/** Not-recently-used: one reference bit per line, clock-style victim. */
class NruPolicy
{
  public:
    NruPolicy(std::uint64_t sets, std::uint32_t ways)
        : ways_(ways), referenced_(sets * ways, 0)
    {
    }

    void
    touch(std::uint64_t set, std::uint32_t way)
    {
        referenced_[set * ways_ + way] = 1;
    }

    /** Clock sweep: first unreferenced way; if all are referenced,
     *  clear the set's bits and take way 0. */
    std::uint32_t
    victim(std::uint64_t set)
    {
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (!referenced_[set * ways_ + w])
                return w;
        for (std::uint32_t w = 0; w < ways_; ++w)
            referenced_[set * ways_ + w] = 0;
        return 0;
    }

    void
    invalidate(std::uint64_t set, std::uint32_t way)
    {
        referenced_[set * ways_ + way] = 0;
    }

  private:
    std::uint32_t ways_;
    std::vector<std::uint8_t> referenced_; ///< [set * ways + way]
};

} // namespace bear::test

#endif // BEAR_TESTS_REFERENCE_REPLACEMENT_HH
