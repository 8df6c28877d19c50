/**
 * @file
 * Seeded byte-level mutation for the fuzz-style tests: a splitmix64
 * generator and one mutation routine (bit flip, truncation, duplicated
 * or deleted slice, inserted garbage).  Shared by the serve wire-layer
 * fuzz and the .beartrace entry-point parity test, so both corrupt
 * their inputs the same reproducible way.
 */

#ifndef BEAR_TESTS_MUTATION_HH
#define BEAR_TESTS_MUTATION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bear::test
{

/** splitmix64: tiny, seedable, and good enough to pick mutations. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, bound); bound must be nonzero. */
    std::size_t below(std::size_t bound)
    {
        return static_cast<std::size_t>(next() % bound);
    }

  private:
    std::uint64_t state_;
};

/** Apply one random mutation; may leave the stream valid. */
inline std::vector<std::uint8_t>
mutate(std::vector<std::uint8_t> bytes, SplitMix64 &rng)
{
    if (bytes.empty())
        return bytes;
    switch (rng.below(5)) {
    case 0: { // flip one bit somewhere
        const std::size_t at = rng.below(bytes.size());
        bytes[at] ^= static_cast<std::uint8_t>(1U << rng.below(8));
        break;
    }
    case 1: { // truncate at a random point
        bytes.resize(rng.below(bytes.size() + 1));
        break;
    }
    case 2: { // duplicate a random slice in place
        const std::size_t begin = rng.below(bytes.size());
        const std::size_t len =
            1 + rng.below(bytes.size() - begin);
        std::vector<std::uint8_t> slice(
            bytes.begin() + static_cast<std::ptrdiff_t>(begin),
            bytes.begin()
                + static_cast<std::ptrdiff_t>(begin + len));
        bytes.insert(bytes.begin()
                         + static_cast<std::ptrdiff_t>(begin + len),
                     slice.begin(), slice.end());
        break;
    }
    case 3: { // delete a random slice
        const std::size_t begin = rng.below(bytes.size());
        const std::size_t len =
            1 + rng.below(bytes.size() - begin);
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                    bytes.begin()
                        + static_cast<std::ptrdiff_t>(begin + len));
        break;
    }
    default: { // insert random garbage
        const std::size_t at = rng.below(bytes.size() + 1);
        std::vector<std::uint8_t> garbage(1 + rng.below(16));
        for (auto &b : garbage)
            b = static_cast<std::uint8_t>(rng.next());
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     garbage.begin(), garbage.end());
        break;
    }
    }
    return bytes;
}

} // namespace bear::test

#endif // BEAR_TESTS_MUTATION_HH
