/**
 * @file
 * Fundamental types and constants shared by every subsystem.
 *
 * All addresses are byte addresses in a flat 64-bit physical or virtual
 * space.  Time is measured in CPU cycles of the 3.2 GHz core clock
 * (paper Table 1); DRAM timing parameters are expressed in the same
 * unit so that no clock-domain conversion is needed in the hot path.
 */

#ifndef BEAR_COMMON_TYPES_HH
#define BEAR_COMMON_TYPES_HH

#include <cstdint>

#include "common/units.hh"

namespace bear
{

/** Byte address (virtual or physical, 64-bit flat). */
using Addr = std::uint64_t;

/** Cache-line-granular address (byte address >> 6). */
using LineAddr = std::uint64_t;

/** Time in CPU cycles (3.2 GHz core clock). */
using Cycle = std::uint64_t;

/** Program counter of the instruction issuing a memory reference. */
using Pc = std::uint64_t;

/** Identifier of a core in the simulated system. */
using CoreId = std::uint32_t;

/** Cache line size used throughout the hierarchy (paper Section 3.1). */
constexpr Bytes kLineSize{64};
constexpr std::uint64_t kLineShift = 6;

/** 4 KB pages for the virtual memory system.  Kept as raw integers:
 *  they participate in address arithmetic, not bandwidth accounting. */
constexpr std::uint64_t kPageSize = 4096;
constexpr std::uint64_t kPageShift = 12;

/**
 * Width of a simulated physical line address.  PageMapper hands out
 * frame numbers below 2^35 (vm/page_mapper.hh pins the two together),
 * so every line the hierarchy sees lies below 2^41.  Direct-mapped
 * L4s size their tag words from this bound (DESIGN.md §14).
 */
constexpr unsigned kPhysLineBits = 41;
constexpr std::uint64_t kMaxPhysLine = (1ULL << kPhysLineBits) - 1;

/** Alloy Cache Tag-And-Data entry: 8 B tag + 64 B data (paper Sec 6.1). */
constexpr Bytes kTadSize{72};

/** The stacked-DRAM cache bus moves 16 B per beat (128-bit DDR bus,
 *  paper Table 1). */
constexpr BeatWidth kCacheBeatWidth{16};

/**
 * Bytes actually moved on the bus per TAD access: the 128-bit bus
 * transfers the 72-byte TAD in five 16-byte beats = 80 bytes
 * (paper Figure 10).  Derived, not asserted: the unit system computes
 * ceil(72 B / 16 B-per-beat) = 5 beats, then 5 beats x 16 B = 80 B.
 */
constexpr Bytes kTadTransfer =
    beatsToCover(kTadSize, kCacheBeatWidth) * kCacheBeatWidth;
static_assert(kTadTransfer == Bytes{80});

/** Whole 64 B lines -> data volume. */
constexpr Bytes
bytesOfLines(Lines n)
{
    return Bytes{n.count() << kLineShift};
}

/** Data volume -> whole 64 B lines it spans (rounds up). */
constexpr Lines
linesToCover(Bytes volume)
{
    return Lines{(volume.count() + kLineSize.count() - 1)
                 >> kLineShift};
}

static_assert(bytesOfLines(Lines{3}) == Bytes{192});
static_assert(linesToCover(Bytes{65}) == Lines{2});

/**
 * A dirty LLC eviction headed for the DRAM cache.  Carried as a struct
 * so new fields (trace ids, priorities) extend every writeback path at
 * once instead of rippling a fresh positional parameter through nine
 * designs and the system's pending-writeback queue.
 */
struct WritebackRequest
{
    LineAddr line = 0;
    /** The victim's DRAM-cache-presence bit (BEAR's DCP scheme;
     *  designs without DCP ignore it). */
    bool dcpPresent = false;
    /** When the eviction left the LLC (the writeback's arrival time at
     *  the DRAM cache controller). */
    Cycle issuedAt = 0;
};

/** Convert a byte address to a line address. */
constexpr LineAddr
lineOf(Addr addr)
{
    return addr >> kLineShift;
}

/** Convert a line address back to the base byte address of the line. */
constexpr Addr
addrOf(LineAddr line)
{
    return line << kLineShift;
}

} // namespace bear

#endif // BEAR_COMMON_TYPES_HH
