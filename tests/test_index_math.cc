/**
 * @file
 * The precomputed index math (common/divisor.hh) against the division
 * formulas it replaced: Divisor itself, the TAD layout, the DRAM line
 * interleave and the bus burst length, exhaustively over bandwidth
 * ratios 8 and 6 (4 and 3 channels), 64 and 48 banks, and set counts
 * that are and are not powers of two; plus the set/tag split of the
 * caches on both kinds of set count.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/sram_cache.hh"
#include "common/divisor.hh"
#include "common/rng.hh"
#include "dramcache/alloy_cache.hh"
#include "mem/dram_channel.hh"
#include "mem/dram_system.hh"

using namespace bear;

namespace
{

/** The four cache geometries: ratio 8 / 6 x 64 / 48 banks. */
std::vector<DramGeometry>
cacheGeometries()
{
    std::vector<DramGeometry> out;
    for (const std::uint32_t ratio : {8U, 6U})
        for (const std::uint32_t banks : {64U, 48U})
            out.push_back(makeCacheGeometry(ratio, banks));
    return out;
}

/** Dividends around every power of two plus seeded 64-bit draws. */
std::vector<std::uint64_t>
dividends()
{
    std::vector<std::uint64_t> xs;
    for (std::uint64_t x = 0; x < 4096; ++x)
        xs.push_back(x);
    for (unsigned b = 12; b < 64; ++b) {
        for (std::uint64_t d = 0; d < 3; ++d) {
            xs.push_back((1ULL << b) - d);
            xs.push_back((1ULL << b) + d);
        }
    }
    xs.push_back(~0ULL);
    Rng rng(0xD1);
    for (int i = 0; i < 2000; ++i)
        xs.push_back(rng.next());
    return xs;
}

} // namespace

TEST(Divisor, MatchesDivisionAndRemainder)
{
    const std::vector<std::uint64_t> xs = dividends();
    std::vector<std::uint64_t> ds;
    for (std::uint64_t d = 1; d <= 300; ++d)
        ds.push_back(d);
    for (const std::uint64_t d : {1ULL << 20, (1ULL << 20) + 1, 1ULL << 63,
                                  3ULL << 40, ~0ULL})
        ds.push_back(d);
    for (const std::uint64_t d : ds) {
        const Divisor div(d);
        ASSERT_EQ(div.value(), d);
        for (const std::uint64_t x : xs) {
            ASSERT_EQ(div.quot(x), x / d) << x << " / " << d;
            ASSERT_EQ(div.rem(x), x % d) << x << " % " << d;
        }
    }
}

TEST(IndexMath, TadLayoutMatchesTheDivisionFormulas)
{
    for (const DramGeometry &g : cacheGeometries()) {
        for (const std::uint64_t sets : {1ULL << 16, 50000ULL}) {
            SCOPED_TRACE(testing::Message()
                         << g.channels << " ch x " << g.banksPerChannel
                         << " banks, " << sets << " sets");
            const TadLayout layout(sets, g);
            const std::uint64_t per_row = g.rowBytes / kTadSize;
            ASSERT_EQ(layout.tadsPerRow(), per_row);
            for (std::uint64_t set = 0; set < sets; ++set) {
                const std::uint64_t row_id = set / per_row;
                const std::uint64_t rest = row_id / g.channels;
                const DramCoord c = layout.coordOf(set);
                ASSERT_EQ(c.channel, row_id % g.channels) << set;
                ASSERT_EQ(c.bank, rest % g.banksPerChannel) << set;
                ASSERT_EQ(c.row, rest / g.banksPerChannel) << set;
                const std::uint64_t next = set + 1;
                const std::uint64_t neighbor =
                    next >= sets || next / per_row != set / per_row
                    ? sets
                    : next;
                ASSERT_EQ(layout.neighborOf(set), neighbor) << set;
            }
        }
    }
}

TEST(IndexMath, LineInterleaveMatchesTheDivisionFormulas)
{
    std::vector<DramGeometry> geometries = cacheGeometries();
    geometries.push_back(makeMemoryGeometry());
    const std::vector<std::uint64_t> lines = dividends();
    for (const DramGeometry &g : geometries) {
        SCOPED_TRACE(testing::Message() << g.channels << " ch x "
                                        << g.banksPerChannel << " banks");
        const DramSystem dram("d", DramTiming{}, g);
        const std::uint64_t per_row = g.rowBytes / kLineSize;
        for (std::uint64_t line = 0; line < (1ULL << 16); ++line) {
            const DramCoord c = dram.mapLine(line);
            const std::uint64_t rest = line / g.channels;
            ASSERT_EQ(c.channel, line % g.channels) << line;
            ASSERT_EQ(c.bank, rest % g.banksPerChannel) << line;
            ASSERT_EQ(c.row, rest / g.banksPerChannel / per_row) << line;
        }
        for (const std::uint64_t line : lines) {
            const DramCoord c = dram.mapLine(line);
            const std::uint64_t rest = line / g.channels;
            ASSERT_EQ(c.channel, line % g.channels) << line;
            ASSERT_EQ(c.bank, rest % g.banksPerChannel) << line;
            ASSERT_EQ(c.row, rest / g.banksPerChannel / per_row) << line;
        }
    }
}

TEST(IndexMath, BurstLengthIsTheBeatCeiling)
{
    // Bus time per access shows up in busBusyCycles(); 12 B beats
    // take the division path.
    for (const std::uint64_t width : {16ULL, 4ULL, 12ULL}) {
        DramGeometry g = makeCacheGeometry();
        g.busBeatWidth = BeatWidth{width};
        DramChannel channel(DramTiming{}, g, WriteQueuePolicy{});
        std::uint64_t busy = 0;
        Cycle at = 0;
        for (std::uint64_t volume = 1; volume <= 300; ++volume) {
            channel.read(at, 0, 0, Bytes{volume});
            const std::uint64_t burst = (volume + width - 1) / width;
            ASSERT_EQ(channel.busBusyCycles() - busy, burst)
                << volume << " B on " << width << " B beats";
            busy = channel.busBusyCycles();
            at += 1000;
        }
    }
}

TEST(IndexMath, SramSetTagSplitRebuildsVictimLines)
{
    // A victim line is rebuilt as tag * sets + set: any slip in the
    // split shows up as a wrong eviction address.
    for (const std::uint64_t sets : {64ULL, 48ULL}) {
        SramCacheConfig config;
        config.capacityBytes = sets * 2 * kLineSize.count();
        config.ways = 2;
        SramCache cache(config);
        ASSERT_EQ(cache.sets(), sets);
        Rng rng(sets);
        for (int i = 0; i < 5000; ++i) {
            const LineAddr line = rng.below(kMaxPhysLine);
            cache.fill(line, false, false);
            ASSERT_TRUE(cache.contains(line));
            // Two more lines of the same set push this one out.
            const LineAddr a = line + sets, b = line + 2 * sets;
            cache.fill(a, false, false);
            const SramEviction out = cache.fill(b, false, false);
            ASSERT_TRUE(out.valid);
            ASSERT_EQ(out.line, line) << "sets " << sets;
            ASSERT_FALSE(cache.contains(line));
        }
    }
}

TEST(IndexMath, AlloySetTagSplitOnPowerOfTwoAndOddSetCounts)
{
    for (const std::uint64_t sets : {1ULL << 12, 3000ULL}) {
        SCOPED_TRACE(testing::Message() << sets << " sets");
        DramSystem dram("l4", DramTiming{}, makeCacheGeometry());
        DramSystem memory("ddr", DramTiming{}, makeMemoryGeometry());
        BloatTracker bloat;
        AlloyConfig config;
        config.capacityBytes = sets * kLineSize.count();
        config.useMapI = false;
        AlloyCache cache(config, dram, memory, bloat);
        ASSERT_EQ(cache.sets(), sets);
        std::vector<LineAddr> evicted;
        cache.setEvictionListener([&](LineAddr line) {
            evicted.push_back(line);
            return false;
        });
        Rng rng(sets);
        Cycle at = 0;
        for (int i = 0; i < 3000; ++i) {
            const LineAddr line = rng.below(kMaxPhysLine - sets);
            cache.read(at, line, 0, 0);
            ASSERT_TRUE(cache.contains(line));
            ASSERT_FALSE(cache.contains(line + sets));
            evicted.clear();
            cache.read(at + 10, line + sets, 0, 0);
            ASSERT_EQ(evicted, std::vector<LineAddr>{line});
            at += 1000;
        }
    }
}
