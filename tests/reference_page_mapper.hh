/**
 * @file
 * Reference first-touch page mapper: one hash table keyed by
 * (process, vpage), the original PageMapper implementation.  It is
 * slow and memory-hungry but plainly right, so the tests hold the
 * production radix mapper to it: both must hand out the same physical
 * frame for every translation, in the same first-touch order.
 */

#ifndef BEAR_TESTS_REFERENCE_PAGE_MAPPER_HH
#define BEAR_TESTS_REFERENCE_PAGE_MAPPER_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace bear::test
{

class ReferencePageMapper
{
  public:
    Addr
    translate(std::uint32_t process, Addr vaddr)
    {
        const Key key{process, vaddr >> kPageShift};
        auto [it, inserted] = table_.try_emplace(key, 0);
        if (inserted) {
            // 8 physically contiguous pages per chunk, chunks
            // scattered by a bijective 32-bit mix.
            const std::uint64_t frame = next_frame_++;
            const std::uint64_t chunk = frame >> 3;
            const std::uint64_t offset = frame & 7;
            it->second = (scramble(chunk) << 3) | offset;
        }
        return (it->second << kPageShift) | (vaddr & (kPageSize - 1));
    }

    std::uint64_t framesAllocated() const { return next_frame_; }

  private:
    static std::uint64_t
    scramble(std::uint64_t frame)
    {
        std::uint32_t x = static_cast<std::uint32_t>(frame);
        x *= 0x9E3779B1U;
        x = (x << 16) | (x >> 16);
        x *= 0x85EBCA77U;
        return x;
    }

    struct Key
    {
        std::uint32_t process;
        std::uint64_t vpage;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::uint64_t x = (static_cast<std::uint64_t>(k.process) << 52)
                ^ k.vpage;
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
            x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
            return static_cast<std::size_t>(x ^ (x >> 31));
        }
    };

    std::unordered_map<Key, std::uint64_t, KeyHash> table_;
    std::uint64_t next_frame_ = 0;
};

} // namespace bear::test

#endif // BEAR_TESTS_REFERENCE_PAGE_MAPPER_HH
