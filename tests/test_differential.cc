/**
 * @file
 * Differential testing: every Alloy-family configuration is compared,
 * on long randomized request sequences, against an independent
 * functional reference model of a direct-mapped cache.
 *
 * The reference model knows nothing about timing, bandwidth, NTC
 * snapshots or presence bits — it only tracks which line each set
 * holds and whether it is dirty, applying the same fill/bypass
 * decisions the design reports (via the outcome's presentAfter).  Any
 * divergence in hit/miss behaviour or dirty state is a tag-management
 * bug in the design under test.
 */

#include <ostream>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dramcache/alloy_cache.hh"
#include "tests/test_util.hh"

using namespace bear;
using test::CacheHarness;

namespace
{

/** Timing-free direct-mapped reference. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(std::uint64_t sets) : sets_(sets) {}

    bool
    isHit(LineAddr line) const
    {
        const auto it = content_.find(line % sets_);
        return it != content_.end() && it->second.line == line;
    }

    bool
    isDirty(LineAddr line) const
    {
        const auto it = content_.find(line % sets_);
        return it != content_.end() && it->second.line == line
            && it->second.dirty;
    }

    void
    install(LineAddr line)
    {
        content_[line % sets_] = Entry{line, false};
    }

    void
    markDirty(LineAddr line)
    {
        auto it = content_.find(line % sets_);
        if (it != content_.end() && it->second.line == line)
            it->second.dirty = true;
    }

    void
    remove(LineAddr line)
    {
        auto it = content_.find(line % sets_);
        if (it != content_.end() && it->second.line == line)
            content_.erase(it);
    }

  private:
    struct Entry
    {
        LineAddr line;
        bool dirty;
    };

    std::uint64_t sets_;
    std::unordered_map<std::uint64_t, Entry> content_;
};

struct DifferentialCase
{
    const char *name;
    bool mapi;
    bool dcp;
    bool ntc;
    bool ttc;
    FillPolicy fill;
};

// Print a case by its name. Without this, gtest prints the raw bytes of
// the struct, which include the address of `name`; that address moves
// with ASLR, so the discovered ctest names would change on every build.
void
PrintTo(const DifferentialCase &dc, std::ostream *os)
{
    *os << dc.name;
}

class Differential : public ::testing::TestWithParam<DifferentialCase>
{
};

} // namespace

TEST_P(Differential, MatchesReferenceModel)
{
    const DifferentialCase &dc = GetParam();
    CacheHarness h;
    AlloyConfig config;
    config.capacityBytes = 1ULL << 20; // tiny: heavy conflict traffic
    config.cores = 2;
    config.useMapI = dc.mapi;
    config.useDcp = dc.dcp;
    config.useNtc = dc.ntc;
    config.useTtc = dc.ttc;
    config.fillPolicy = dc.fill;
    AlloyCache cache(config, h.dram, h.memory, h.bloat);
    ReferenceCache reference(cache.sets());

    Rng rng(0xD1FF);
    Cycle t = 0;
    LineAddr held = ~0ULL;
    bool held_dirty = false;
    bool held_dcp = false;

    cache.setEvictionListener([&](LineAddr line) {
        reference.remove(line);
        if (line == held)
            held_dcp = false;
        return false;
    });

    for (int i = 0; i < 30000; ++i) {
        const LineAddr line = rng.below(1 << 15);
        const bool expected_hit = reference.isHit(line);
        ASSERT_EQ(cache.contains(line), expected_hit)
            << dc.name << " diverged before access " << i;
        ASSERT_EQ(cache.isDirty(line), reference.isDirty(line))
            << dc.name << " dirty-state diverged at access " << i;

        const auto outcome =
            cache.read(t, line, 0x400000 + (rng.below(32) << 2), 0);
        ASSERT_EQ(outcome.hit(), expected_hit)
            << dc.name << " hit/miss diverged at access " << i;
        if (!expected_hit && outcome.presentAfter)
            reference.install(line);

        // Occasionally write the previously held line back.
        if (held != ~0ULL && held_dirty) {
            cache.writeback({held, held_dcp, t + 10});
            reference.markDirty(held); // only if still resident
        }
        held = line;
        held_dirty = rng.chance(0.4);
        held_dcp = outcome.presentAfter;
        t += 200;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AlloyFamily, Differential,
    ::testing::Values(
        DifferentialCase{"plain", false, false, false, false,
                         FillPolicy::Always},
        DifferentialCase{"mapi", true, false, false, false,
                         FillPolicy::Always},
        DifferentialCase{"pb90", false, false, false, false,
                         FillPolicy::Probabilistic},
        DifferentialCase{"bab", false, false, false, false,
                         FillPolicy::BandwidthAware},
        DifferentialCase{"dcp", false, true, false, false,
                         FillPolicy::Always},
        DifferentialCase{"ntc", false, false, true, false,
                         FillPolicy::Always},
        DifferentialCase{"ttc", false, false, false, true,
                         FillPolicy::Always},
        DifferentialCase{"bear", true, true, true, false,
                         FillPolicy::BandwidthAware},
        DifferentialCase{"bear_ttc", true, true, true, true,
                         FillPolicy::BandwidthAware}),
    [](const ::testing::TestParamInfo<DifferentialCase> &param_info) {
        return param_info.param.name;
    });
