/**
 * @file
 * The Alloy Cache engine (Qureshi & Loh, MICRO 2012) and its BEAR
 * extensions (this paper).
 *
 * The Alloy Cache is a direct-mapped, tags-in-DRAM L4: each set is a
 * single 72-byte Tag-And-Data (TAD) entry; 28 consecutive sets share a
 * 2 KB row buffer, and every access moves 80 bytes on the 16-byte bus
 * (Figure 10).  The engine implements, behind feature flags, every
 * Alloy-family configuration evaluated in the paper:
 *
 *  - the plain baseline with the MAP-I hit/miss predictor,
 *  - Probabilistic Bypass (Section 4.1),
 *  - Bandwidth-Aware Bypass (Section 4.2),
 *  - the DRAM-Cache-Presence writeback flow (Section 5),
 *  - the Neighboring Tag Cache (Section 6),
 *  - the inclusive variant (Sections 5.1 and 7.5).
 *
 * BEAR is the combination BAB + DCP + NTC (Section 7); convenience
 * factories for all named configurations live in bear_cache.hh.
 */

#ifndef BEAR_DRAMCACHE_ALLOY_CACHE_HH
#define BEAR_DRAMCACHE_ALLOY_CACHE_HH

#include <memory>
#include <string>

#include "common/rng.hh"
#include "dramcache/bab.hh"
#include "dramcache/dram_cache.hh"
#include "dramcache/map_i.hh"
#include "dramcache/ntc.hh"
#include "dramcache/tag_store.hh"

namespace bear
{

/** Fill policy on demand misses. */
enum class FillPolicy
{
    Always,        ///< baseline: install every missed line
    Probabilistic, ///< bypass a fixed fraction of fills (PB, Sec 4.1)
    BandwidthAware ///< set-dueling BAB (Sec 4.2)
};

/** Configuration of an Alloy-family DRAM cache. */
struct AlloyConfig
{
    std::string name = "Alloy";
    std::uint64_t capacityBytes = 1ULL << 30;
    std::uint32_t cores = 8;

    bool useMapI = true;
    bool inclusive = false;
    bool useDcp = false;
    bool useNtc = false;
    std::uint32_t ntcEntriesPerBank = 8;

    /**
     * Extension (paper Section 9.4): a Temporal Tag Cache holding the
     * tags of *recently accessed* sets, complementing the NTC's
     * spatially adjacent tags.  The paper notes the two are orthogonal
     * and can be adopted simultaneously; this implements that
     * combination for the ablation study.
     */
    bool useTtc = false;
    std::uint32_t ttcEntries = 512;

    FillPolicy fillPolicy = FillPolicy::Always;
    double bypassProbability = 0.9; ///< for Probabilistic / BAB
    BabConfig bab;

    /**
     * Allocate writeback misses into the cache (Writeback Fill
     * traffic) instead of forwarding them to memory.  The paper's
     * baseline is no-allocate (Section 3.1); this knob exists for the
     * write-allocation ablation study.
     */
    bool writebackAllocate = false;

    std::uint64_t seed = 0xA110C;
};

/** Direct-mapped TAD-organised DRAM cache with BEAR extensions. */
class AlloyCache : public DramCache
{
  public:
    AlloyCache(const AlloyConfig &config, DramSystem &dram,
               DramSystem &memory, BloatTracker &bloat);

    std::string name() const override { return config_.name; }
    Bytes sramOverheadBytes() const override;
    void resetStats() override;

    /** Functional probe: is @p line resident? (tests/checker) */
    bool contains(LineAddr line) const;

    /** Functional probe: is @p line resident and dirty? */
    bool isDirty(LineAddr line) const;

    bool holdsDirty(LineAddr line) const override
    {
        return isDirty(line);
    }

    /** Prefetch @p line's TAD tag word and valid mask word. */
    void prefetch(LineAddr line) const override;

    std::uint64_t sets() const { return sets_; }
    const AlloyConfig &config() const { return config_; }

    std::uint64_t fillsBypassed() const { return fills_bypassed_; }
    std::uint64_t wbRaces() const { return wb_races_; }
    std::uint64_t missProbesAvoided() const { return probes_avoided_; }
    std::uint64_t ttcProbesAvoided() const { return ttc_probes_avoided_; }
    std::uint64_t wbProbesAvoided() const { return wb_probes_avoided_; }
    std::uint64_t parallelSquashed() const { return parallel_squashed_; }
    std::uint64_t parallelWasted() const { return parallel_wasted_; }

    const MapIPredictor *mapi() const { return mapi_.get(); }
    const BandwidthAwareBypass *bab() const { return bab_.get(); }
    const NeighboringTagCache *ntc() const { return ntc_.get(); }
    const NeighboringTagCache *ttc() const { return ttc_.get(); }

  protected:
    DramCacheReadOutcome serviceRead(Cycle at, LineAddr line, Pc pc,
                                     CoreId core) override;
    Cycle serviceWriteback(const WritebackRequest &request) override;

  private:
    std::uint64_t setOf(LineAddr line) const { return split_.rem(line); }
    std::uint64_t tagOf(LineAddr line) const { return split_.quot(line); }

    /** Flat bank id for the NTC. */
    std::uint32_t bankIdOf(const DramCoord &coord) const;

    /** Demand-miss fill decision. */
    bool decideBypass(std::uint64_t set);

    /**
     * Install @p line into @p set at time @p at, handling the victim
     * (dirty writeback to memory, eviction notification, NTC refresh).
     * @p victim_known true when a probe already fetched the TAD (so a
     * dirty victim costs no extra read).
     */
    void install(Cycle at, std::uint64_t set, LineAddr line,
                 const DramCoord &coord, bool victim_known);

    /** Stream the neighbour tag of @p set into the NTC (read paths). */
    void captureNeighbor(std::uint64_t set, const DramCoord &coord);

    /** Snapshot @p set's TAD into the Temporal Tag Cache extension. */
    void recordTemporal(std::uint64_t set);

    AlloyConfig config_;
    std::uint64_t sets_;
    Divisor split_; ///< line -> (set, tag)
    TadLayout layout_;
    /** Direct-mapped TAD metadata (the 64 B of data are not
     *  materialised): one way per set in the shared SoA store. */
    TagStore tags_;
    Rng fill_rng_;

    std::unique_ptr<MapIPredictor> mapi_;
    std::unique_ptr<BandwidthAwareBypass> bab_;
    std::unique_ptr<NeighboringTagCache> ntc_;
    /** Temporal tag cache: one "bank", LRU over recently used sets. */
    std::unique_ptr<NeighboringTagCache> ttc_;

    std::uint64_t fills_bypassed_ = 0;
    std::uint64_t wb_races_ = 0;
    std::uint64_t probes_avoided_ = 0;
    std::uint64_t ttc_probes_avoided_ = 0;
    std::uint64_t wb_probes_avoided_ = 0;
    std::uint64_t parallel_squashed_ = 0;
    std::uint64_t parallel_wasted_ = 0;
};

} // namespace bear

#endif // BEAR_DRAMCACHE_ALLOY_CACHE_HH
