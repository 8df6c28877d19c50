/**
 * @file
 * Unit tests for the reference replacement policies, and a seeded
 * fuzz that holds the TagStore replacement planes to them victim for
 * victim.
 */

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dramcache/tag_store.hh"
#include "tests/reference_replacement.hh"

using namespace bear;
using namespace bear::test;

TEST(LruPolicy, EvictsLeastRecentlyTouched)
{
    LruPolicy lru(4, 4);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(0, 2);
    lru.touch(0, 3);
    EXPECT_EQ(lru.victim(0), 0u);
    lru.touch(0, 0);
    EXPECT_EQ(lru.victim(0), 1u);
}

TEST(LruPolicy, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(1, 1);
    lru.touch(1, 0);
    EXPECT_EQ(lru.victim(0), 0u);
    EXPECT_EQ(lru.victim(1), 1u);
}

TEST(LruPolicy, InvalidatedWayBecomesVictim)
{
    LruPolicy lru(1, 3);
    lru.touch(0, 0);
    lru.touch(0, 1);
    lru.touch(0, 2);
    lru.invalidate(0, 2);
    EXPECT_EQ(lru.victim(0), 2u);
}

TEST(RandomPolicy, VictimInRangeAndDeterministic)
{
    RandomPolicy a(1, 8, 42), b(1, 8, 42);
    for (int i = 0; i < 100; ++i) {
        const std::uint32_t va = a.victim(0);
        EXPECT_LT(va, 8u);
        EXPECT_EQ(va, b.victim(0));
    }
}

TEST(NruPolicy, PrefersUnreferencedWays)
{
    NruPolicy nru(1, 4);
    nru.touch(0, 0);
    nru.touch(0, 2);
    const std::uint32_t v = nru.victim(0);
    EXPECT_TRUE(v == 1 || v == 3);
}

TEST(NruPolicy, AllReferencedResetsAndPicksZero)
{
    NruPolicy nru(1, 2);
    nru.touch(0, 0);
    nru.touch(0, 1);
    EXPECT_EQ(nru.victim(0), 0u);
    // The sweep cleared the bits: way 1 is now unreferenced too.
    nru.touch(0, 0);
    EXPECT_EQ(nru.victim(0), 1u);
}

namespace
{

/**
 * Drive a TagStore and @p oracle through one seeded random sequence
 * with every way valid: touches, invalidate + re-install of a way
 * (the SRAM back-invalidation path), and victim requests each
 * followed by a fill of the victim way.  Every victim must agree.
 */
template <typename Oracle>
void
fuzzAgainstOracle(Oracle oracle, TagRepl repl, std::uint64_t sets,
                  std::uint32_t ways, std::uint64_t max_tag)
{
    TagStore store(TagStoreConfig{sets, ways, repl, 1, 0, max_tag});
    // Tags count down from the declared maximum, so the narrow store
    // holds full 32-bit values and the wide one values above 2^32.
    std::uint64_t next_tag = max_tag;
    // Every installed tag must probe back to the way it went into.
    const auto install = [&](std::uint64_t set, std::uint32_t way) {
        store.install(set, way, next_tag);
        const TagProbe probe = store.probe(set, next_tag);
        EXPECT_TRUE(probe.hit && probe.way == way)
            << "tag " << next_tag << " in set " << set << " way " << way;
        --next_tag;
    };
    for (std::uint64_t set = 0; set < sets; ++set) {
        for (std::uint32_t w = 0; w < ways; ++w) {
            install(set, w);
            store.touch(set, w);
            oracle.touch(set, w);
        }
    }

    Rng fuzz(0xF022);
    int victims = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t set = fuzz.below(sets);
        const auto way = static_cast<std::uint32_t>(fuzz.below(ways));
        switch (fuzz.below(3)) {
        case 0:
            store.touch(set, way);
            oracle.touch(set, way);
            break;
        case 1:
            store.invalidate(set, way);
            oracle.invalidate(set, way);
            install(set, way);
            break;
        default: {
            const std::uint32_t victim = store.victimWay(set);
            ASSERT_EQ(victim, oracle.victim(set))
                << "step " << step << ", set " << set;
            install(set, victim);
            store.touch(set, victim);
            oracle.touch(set, victim);
            ++victims;
            break;
        }
        }
    }
    EXPECT_GT(victims, 5000);
}

} // namespace

TEST(TagStoreOracle, SeededFuzzMatchesReferencePolicies)
{
    // 8 ways: one byte of mask per set.  29 ways (LH-Cache's
    // associativity): 32-bit masks, two sets per word, odd set count.
    // Each geometry runs with 32-bit and with 64-bit tag words.
    for (const auto &[sets, ways] :
         {std::pair<std::uint64_t, std::uint32_t>{16, 8}, {5, 29}}) {
        for (const std::uint64_t max_tag : {0xFFFFFFFFULL, ~0ULL}) {
            SCOPED_TRACE(testing::Message() << sets << "x" << ways
                                            << " maxTag " << max_tag);
            fuzzAgainstOracle(LruPolicy(sets, ways), TagRepl::Lru, sets,
                              ways, max_tag);
            fuzzAgainstOracle(RandomPolicy(sets, ways, 1),
                              TagRepl::Random, sets, ways, max_tag);
            fuzzAgainstOracle(NruPolicy(sets, ways), TagRepl::Nru, sets,
                              ways, max_tag);
        }
    }
}
