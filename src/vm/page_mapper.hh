/**
 * @file
 * Virtual-to-physical address translation (paper Section 3.1).
 *
 * The paper models a virtual memory system so that, in particular,
 * "the virtual-to-physical page mapping ensures that two benchmarks do
 * not map to the same address" (Section 3.2).  PageMapper implements a
 * first-touch allocator over a shared physical page pool: each process
 * (core running a benchmark instance) owns a private page table, and
 * physical frames are handed out from a global bump allocator whose
 * order is shuffled by a deterministic hash so that consecutive virtual
 * pages of one process do not map to consecutive DRAM rows of the
 * physical space (which would make the DRAM-cache index stride
 * unrealistically regular).
 *
 * Each process's page table is a two-level radix table (DESIGN.md §3):
 * a directory indexed by vpage >> 9 whose slots point at 512-entry
 * leaves, each covering a 2 MB region of virtual space, so the common
 * case is three dependent indexed loads.  A leaf entry holds the 32-bit
 * first-touch frame number; the scrambled physical frame is computed
 * on the way out.  Every other page lives in a hash table: pages beyond
 * the directory cap or of an out-of-range process id for good, pages
 * of a region until it has kLeafPromotePages of them (the region then
 * gets a leaf and its pages move in), and pages of a region the
 * directory may not grow to cover yet.  Host memory therefore grows
 * with the pages touched and never with the highest virtual address
 * touched.
 */

#ifndef BEAR_VM_PAGE_MAPPER_HH
#define BEAR_VM_PAGE_MAPPER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/prefetch.hh"
#include "common/types.hh"

namespace bear
{

/** First-touch virtual-to-physical page mapper shared by all cores. */
class PageMapper
{
  public:
    PageMapper() = default;

    /**
     * Physical frame numbers stay below 2^kFrameBits: physicalFrame()
     * shifts a 32-bit scramble left by 3.  Lines are therefore below
     * 2^kPhysLineBits (common/types.hh).
     */
    static constexpr unsigned kFrameBits = 35;
    static_assert(kFrameBits + kPageShift - kLineShift == kPhysLineBits,
                  "the physical line width follows from the frame width");

    /**
     * Translate a virtual byte address of @p process to a physical byte
     * address, allocating a fresh frame on first touch.
     */
    Addr
    translate(std::uint32_t process, Addr vaddr)
    {
        const std::uint64_t vpage = vaddr >> kPageShift;
        const std::uint32_t *slot = leafSlot(process, vpage);
        const std::uint32_t entry = slot ? *slot : 0;
        const std::uint64_t frame =
            entry != 0 ? entry - 1 : firstTouch(process, vpage);
        return physicalAddr(frame, vaddr);
    }

    /**
     * What translate() would return for a page that already has a
     * radix leaf entry, without allocating or changing any state;
     * std::nullopt for a page not touched yet or kept in the hash.
     * The System's lookahead uses it to prefetch a reference's cache
     * sets one core-turn ahead (DESIGN.md §15).
     */
    std::optional<Addr>
    peek(std::uint32_t process, Addr vaddr) const
    {
        const std::uint32_t *slot = leafSlot(process, vaddr >> kPageShift);
        if (!slot || *slot == 0)
            return std::nullopt;
        return physicalAddr(*slot - 1, vaddr);
    }

    /** Host prefetch of @p vaddr's radix leaf entry, if it has a leaf. */
    void
    prefetchLeaf(std::uint32_t process, Addr vaddr) const
    {
        if (const std::uint32_t *slot =
                leafSlot(process, vaddr >> kPageShift))
            hostPrefetch(slot);
    }

    /**
     * Physical frame of the @p frame-th allocation.  Runs of 8 pages
     * stay physically contiguous so that spatial streams still enjoy
     * some row-buffer locality; the runs scatter at that coarser grain.
     */
    static std::uint64_t
    physicalFrame(std::uint64_t frame)
    {
        return (scramble(frame >> 3) << 3) | (frame & 7);
    }

    /** Number of physical frames allocated so far. */
    std::uint64_t framesAllocated() const { return next_frame_; }

    /** Physical footprint in bytes. */
    std::uint64_t physicalFootprint() const
    {
        return next_frame_ * kPageSize;
    }

  private:
    static constexpr unsigned kLeafBits = 9;
    static constexpr std::size_t kLeafPages = std::size_t{1} << kLeafBits;

    /** Directory cap: vpages at or above 2^27 (512 GB) use the hash. */
    static constexpr std::uint64_t kDirectorySlots = 1ULL << 18;

    /** Process ids at or above this use the hash. */
    static constexpr std::uint32_t kRadixProcesses = 256;

    /**
     * Pages a region collects in the hash before it gets a leaf, which
     * caps leaf memory at 2 KB / 16 = 128 B per page touched however
     * sparsely a trace scatters its pages.
     */
    static constexpr std::uint32_t kLeafPromotePages = 16;

    /**
     * Directory budget: all directories together may hold at most this
     * base plus this much per allocated frame.  Until the budget
     * allows a directory to cover a region, the region's pages stay in
     * the hash.
     */
    static constexpr std::uint64_t kDirectoryBaseBytes = 256 << 10;
    static constexpr std::uint64_t kDirectoryBytesPerFrame = 16;

    /** First-touch frame number + 1; 0 marks an untouched page. */
    using Leaf = std::array<std::uint32_t, kLeafPages>;

    /** One directory slot: a 2 MB region of one process. */
    struct Region
    {
        std::unique_ptr<Leaf> leaf;
        std::uint32_t hashed = 0; ///< pages it has put in the hash
    };
    using Directory = std::vector<Region>;

    /** Invertible mixing of the frame number to de-pattern placement. */
    static std::uint64_t
    scramble(std::uint64_t frame)
    {
        // Bijective mixing on 32 bits (odd-constant multiply + rotate),
        // so distinct allocations can never collide in physical space
        // while successive allocations scatter across cache sets and
        // DRAM banks.
        std::uint32_t x = static_cast<std::uint32_t>(frame);
        x *= 0x9E3779B1U;
        x = (x << 16) | (x >> 16);
        x *= 0x85EBCA77U;
        return x;
    }

    static Addr
    physicalAddr(std::uint64_t frame, Addr vaddr)
    {
        return (physicalFrame(frame) << kPageShift)
            | (vaddr & (kPageSize - 1));
    }

    /** @p vpage's radix leaf entry, or null when it has no leaf. */
    const std::uint32_t *
    leafSlot(std::uint32_t process, std::uint64_t vpage) const
    {
        if (process >= spaces_.size())
            return nullptr;
        const Directory &dir = spaces_[process];
        const std::uint64_t slot = vpage >> kLeafBits;
        if (slot >= dir.size() || !dir[slot].leaf)
            return nullptr;
        return &(*dir[slot].leaf)[vpage & (kLeafPages - 1)];
    }

    /** Slow path: the frame of a page with no leaf entry yet. */
    std::uint64_t firstTouch(std::uint32_t process, std::uint64_t vpage);

    /**
     * The directory slot of a radix-eligible region, widening the
     * directory if the budget allows; null if the region's pages
     * belong in the hash for now.
     */
    Region *regionOf(std::uint32_t process, std::uint64_t slot);

    /** Give @p r a leaf and move the region's pages out of the hash. */
    void promote(std::uint32_t process, std::uint64_t slot, Region &r);

    std::uint64_t allocateFrame();

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

    std::vector<Directory> spaces_; ///< indexed by process id
    std::unordered_map<Key, std::uint64_t, KeyHash> hashed_;
    std::uint64_t directory_bytes_ = 0;
    std::uint64_t next_frame_ = 0;
};

} // namespace bear

#endif // BEAR_VM_PAGE_MAPPER_HH
