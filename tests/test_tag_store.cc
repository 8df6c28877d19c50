/**
 * @file
 * Unit tests for the shared SoA TagStore (DESIGN.md §14): probe /
 * install / evict / invalidate / touch semantics, the replacement
 * plane contracts each ported design relies on, the metadata planes,
 * and the cache-line alignment guarantee of every plane.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "common/types.hh"
#include "dramcache/tag_store.hh"

using namespace bear;

namespace
{

TagStore
makeStore(std::uint64_t sets, std::uint32_t ways, TagRepl repl,
          std::uint32_t metaPlanes = 0)
{
    return TagStore(TagStoreConfig{sets, ways, repl, 1, metaPlanes});
}

} // namespace

TEST(TagStore, StartsEmpty)
{
    TagStore store = makeStore(8, 4, TagRepl::None);
    EXPECT_EQ(store.sets(), 8u);
    EXPECT_EQ(store.ways(), 4u);
    EXPECT_EQ(store.validCount(), 0u);
    for (std::uint64_t set = 0; set < 8; ++set) {
        EXPECT_EQ(store.validMask(set), 0u);
        EXPECT_FALSE(store.probe(set, 0).hit);
    }
}

TEST(TagStore, ProbeFindsInstalledTag)
{
    TagStore store = makeStore(4, 4, TagRepl::None);
    store.install(2, 1, 0xBEEF);
    const TagProbe hit = store.probe(2, 0xBEEF);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.way, 1u);
    // Same tag in another set stays invisible.
    EXPECT_FALSE(store.probe(1, 0xBEEF).hit);
    // A probe that misses reports way == ways().
    const TagProbe miss = store.probe(2, 0xF00D);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.way, store.ways());
}

TEST(TagStore, ProbeIgnoresInvalidWaysAndPrefersLowest)
{
    TagStore store = makeStore(2, 4, TagRepl::None);
    // A stale matching tag in way 0 (installed then evicted) must not
    // hit; a duplicate valid tag resolves to the lowest way, exactly
    // as the historic way-order scans did.
    store.install(0, 0, 7);
    store.evict(0, 0);
    store.install(0, 2, 7);
    store.install(0, 3, 7);
    const TagProbe probe = store.probe(0, 7);
    EXPECT_TRUE(probe.hit);
    EXPECT_EQ(probe.way, 2u);
}

TEST(TagStore, InstallSeedsDirtyAndClearsFlagAndMeta)
{
    TagStore store = makeStore(2, 2, TagRepl::None, 2);
    store.install(1, 0, 42, /*dirty=*/true);
    EXPECT_TRUE(store.validAt(1, 0));
    EXPECT_TRUE(store.dirtyAt(1, 0));
    store.setFlag(1, 0, true);
    store.setMeta(1, 0, 0, 0x1111);
    store.setMeta(1, 0, 1, 0x2222);

    // Reinstalling the way resets dirty, flag and metadata.
    store.install(1, 0, 43);
    EXPECT_EQ(store.tagAt(1, 0), 43u);
    EXPECT_FALSE(store.dirtyAt(1, 0));
    EXPECT_FALSE(store.flagAt(1, 0));
    EXPECT_EQ(store.meta(1, 0, 0), 0u);
    EXPECT_EQ(store.meta(1, 0, 1), 0u);
}

TEST(TagStore, EvictKeepsStaleTagAndReplacementState)
{
    TagStore store = makeStore(1, 2, TagRepl::Lru);
    store.install(0, 1, 6);
    store.touch(0, 1);
    store.install(0, 0, 5, /*dirty=*/true);
    store.touch(0, 0); // way 0 is now the newest touch

    store.evict(0, 0);
    EXPECT_FALSE(store.validAt(0, 0));
    EXPECT_FALSE(store.dirtyAt(0, 0));
    // The stale tag survives eviction (NTC neighbour-capture contract).
    EXPECT_EQ(store.tagAt(0, 0), 5u);

    // The way's LRU age also survives (sector-cache contract): after a
    // refill without a touch, way 1 — genuinely older — is the victim.
    // Had evict() reset way 0's age to zero, way 0 would be chosen.
    store.install(0, 0, 7);
    EXPECT_EQ(store.victimWay(0), 1u) << "evicted way kept its age";
}

TEST(TagStore, InvalidateResetsLruAge)
{
    TagStore store = makeStore(1, 2, TagRepl::Lru);
    store.install(0, 0, 5);
    store.touch(0, 0);
    store.install(0, 1, 6);
    store.touch(0, 1);
    // Way 1 was touched last; invalidate it and refill.  Its age reset
    // to 0 makes it the victim over way 0 once both are valid again.
    store.invalidate(0, 1);
    store.install(0, 1, 8);
    EXPECT_EQ(store.victimWay(0), 1u) << "invalidate resets the age";
}

TEST(TagStore, VictimPrefersLowestInvalidWay)
{
    TagStore store = makeStore(1, 4, TagRepl::Lru);
    store.install(0, 0, 1);
    store.install(0, 2, 3);
    EXPECT_EQ(store.victimWay(0), 1u);
    store.install(0, 1, 2);
    EXPECT_EQ(store.victimWay(0), 3u);
}

TEST(TagStore, LruVictimIsOldestTouch)
{
    TagStore store = makeStore(1, 4, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 4; ++w) {
        store.install(0, w, w);
        store.touch(0, w);
    }
    store.touch(0, 0); // way 1 is now the oldest
    EXPECT_EQ(store.victimWay(0), 1u);
    store.touch(0, 1);
    EXPECT_EQ(store.victimWay(0), 2u);
}

TEST(TagStore, DirectMappedVictimIsWayZero)
{
    TagStore store = makeStore(4, 1, TagRepl::None);
    store.install(3, 0, 9);
    EXPECT_EQ(store.victimWay(3), 0u);
}

TEST(TagStore, NruClockSweep)
{
    TagStore store = makeStore(1, 3, TagRepl::Nru);
    for (std::uint32_t w = 0; w < 3; ++w)
        store.install(0, w, w);
    store.touch(0, 0);
    store.touch(0, 2);
    EXPECT_EQ(store.victimWay(0), 1u) << "first unreferenced way";
    store.touch(0, 1);
    // Every way referenced: the sweep clears the set and takes way 0.
    EXPECT_EQ(store.victimWay(0), 0u);
    EXPECT_EQ(store.victimWay(0), 0u) << "bits cleared, way 0 again";
    store.touch(0, 0);
    EXPECT_EQ(store.victimWay(0), 1u);
}

TEST(TagStore, RandomVictimMatchesSeededRng)
{
    // The plane must reproduce RandomPolicy exactly: same Rng, same
    // seed (1), same below(ways) draw per victim request.
    TagStore store = makeStore(1, 8, TagRepl::Random);
    for (std::uint32_t w = 0; w < 8; ++w)
        store.install(0, w, w);
    Rng reference(1);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(store.victimWay(0),
                  static_cast<std::uint32_t>(reference.below(8)));
}

TEST(TagStore, DirtyAndFlagBitsAreIndependent)
{
    TagStore store = makeStore(1, 2, TagRepl::None);
    store.install(0, 0, 1);
    store.install(0, 1, 2);
    store.setDirty(0, 0, true);
    store.setFlag(0, 1, true);
    EXPECT_TRUE(store.dirtyAt(0, 0));
    EXPECT_FALSE(store.flagAt(0, 0));
    EXPECT_FALSE(store.dirtyAt(0, 1));
    EXPECT_TRUE(store.flagAt(0, 1));
    EXPECT_EQ(store.dirtyMask(0), 0b01u);
    store.setDirty(0, 0, false);
    EXPECT_EQ(store.dirtyMask(0), 0u);
}

TEST(TagStore, MetaPlanesHoldPerEntryWords)
{
    TagStore store = makeStore(2, 2, TagRepl::None, 2);
    store.install(0, 1, 1);
    store.setMeta(0, 1, 0, ~0ULL);
    store.setMeta(0, 1, 1, 0xA5A5);
    EXPECT_EQ(store.meta(0, 1, 0), ~0ULL);
    EXPECT_EQ(store.meta(0, 1, 1), 0xA5A5u);
    EXPECT_EQ(store.meta(0, 0, 0), 0u) << "neighbour entry untouched";
    store.evict(0, 1);
    EXPECT_EQ(store.meta(0, 1, 0), 0u) << "evict clears metadata";
    EXPECT_EQ(store.meta(0, 1, 1), 0u);
}

TEST(TagStore, ValidCountTracksPopulation)
{
    TagStore store = makeStore(4, 4, TagRepl::None);
    EXPECT_EQ(store.validCount(), 0u);
    store.install(0, 0, 1);
    store.install(3, 3, 2);
    EXPECT_EQ(store.validCount(), 2u);
    store.evict(0, 0);
    EXPECT_EQ(store.validCount(), 1u);
}

TEST(TagStore, SixtyFourWaysUseTheFullMask)
{
    TagStore store = makeStore(2, 64, TagRepl::Lru);
    for (std::uint32_t w = 0; w < 64; ++w) {
        store.install(0, w, 1000 + w);
        store.touch(0, w);
    }
    EXPECT_EQ(store.validMask(0), ~0ULL);
    const TagProbe probe = store.probe(0, 1063);
    EXPECT_TRUE(probe.hit);
    EXPECT_EQ(probe.way, 63u);
    EXPECT_EQ(store.victimWay(0), 0u) << "way 0 is the oldest touch";
}

TEST(TagStore, PlanesAreCacheLineAligned)
{
    static_assert(TagStore::kPlaneAlignment == 64,
                  "planes must start on a cache-line boundary");
    static_assert(AlignedPlane<std::uint64_t>::kAlignment == 64,
                  "AlignedPlane contract is 64-byte alignment");
    // 7 sets * 3 ways: deliberately not a multiple of 8 words, so any
    // alignment would be accidental without the aligned allocation.
    TagStore store = makeStore(7, 3, TagRepl::Lru);
    const auto misalign = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p)
            % TagStore::kPlaneAlignment;
    };
    EXPECT_EQ(misalign(store.tagPlane()), 0u);
    EXPECT_EQ(misalign(store.validPlane()), 0u);
    EXPECT_EQ(misalign(store.dirtyPlane()), 0u);
    TagStore narrow(TagStoreConfig{7, 3, TagRepl::Lru, 1, 0, 0xFFFF});
    ASSERT_EQ(narrow.tagWordBytes(), 4u);
    EXPECT_EQ(misalign(narrow.tagPlane()), 0u);
}

TEST(TagStore, TagWordWidthFollowsTheDeclaredMaximum)
{
    const auto store = [](std::uint64_t max_tag) {
        return TagStore(TagStoreConfig{16, 2, TagRepl::None, 1, 0,
                                       max_tag});
    };
    EXPECT_EQ(makeStore(16, 2, TagRepl::None).tagWordBytes(), 8u)
        << "the default keeps 64-bit words";
    EXPECT_EQ(store(0xFFFFFFFFULL).tagWordBytes(), 4u);
    EXPECT_EQ(store(0x100000000ULL).tagWordBytes(), 8u);
    // A direct-mapped L4 of 1024 sets or more always fits in 32 bits.
    EXPECT_LE(kMaxPhysLine / 1024, 0xFFFFFFFFULL);
}

TEST(TagStore, NarrowWordsKeepEveryTagUpToTheMaximum)
{
    TagStore store(TagStoreConfig{4, 2, TagRepl::None, 1, 0,
                                  0xFFFFFFFFULL});
    store.install(0, 0, 0xFFFFFFFFULL);
    store.install(0, 1, 0);
    store.install(3, 1, 0x80000001ULL);
    EXPECT_EQ(store.tagAt(0, 0), 0xFFFFFFFFULL);
    EXPECT_EQ(store.probe(0, 0xFFFFFFFFULL).way, 0u);
    EXPECT_EQ(store.probe(0, 0).way, 1u);
    EXPECT_TRUE(store.probe(3, 0x80000001ULL).hit);
    // A wider probe tag never matches its 32-bit truncation.
    EXPECT_FALSE(store.probe(0, 0x1FFFFFFFFULL).hit);
    EXPECT_FALSE(store.probe(3, 0x180000001ULL).hit);
}

TEST(TagStoreDeathTest, InstallAboveTheDeclaredMaximumPanics)
{
    TagStore store(TagStoreConfig{8, 1, TagRepl::None, 1, 0, 1000});
    store.install(0, 0, 1000);
    EXPECT_DEATH(store.install(1, 0, 1001), "exceeds the declared maximum");
    TagStore narrow(TagStoreConfig{8, 1, TagRepl::None, 1, 0,
                                   0xFFFFFFFFULL});
    EXPECT_DEATH(narrow.install(1, 0, 0x100000000ULL),
                 "exceeds the declared maximum");
}
