/**
 * @file
 * The idealised Bandwidth-Optimised (BW-Opt) DRAM cache (paper
 * Section 2.2).
 *
 * BW-Opt performs "all the secondary cache operations logically,
 * without using any of the physical resources": hit/miss detection,
 * fills, writeback probes and updates are free.  The only DRAM-cache
 * bus traffic is the 64-byte data transfer of each demand hit, so its
 * Bloat Factor is exactly 1.  Tag organisation and fill policy match
 * the baseline Alloy Cache so that the hit rate is identical.
 */

#ifndef BEAR_DRAMCACHE_BWOPT_CACHE_HH
#define BEAR_DRAMCACHE_BWOPT_CACHE_HH

#include "dramcache/dram_cache.hh"
#include "dramcache/tag_store.hh"

namespace bear
{

/** Idealised cache: secondary operations are free (Bloat Factor 1). */
class BwOptCache : public DramCache
{
  public:
    BwOptCache(std::uint64_t capacity_bytes, DramSystem &dram,
               DramSystem &memory, BloatTracker &bloat);

    std::string name() const override { return "BW-Opt"; }

    bool contains(LineAddr line) const;

    bool holdsDirty(LineAddr line) const override
    {
        const std::uint64_t set = setOf(line);
        return tags_.probe(set, tagOf(line)).hit
            && tags_.dirtyAt(set, 0);
    }

  protected:
    DramCacheReadOutcome serviceRead(Cycle at, LineAddr line, Pc pc,
                                     CoreId core) override;
    Cycle serviceWriteback(const WritebackRequest &request) override;

  private:
    std::uint64_t setOf(LineAddr line) const { return split_.rem(line); }
    std::uint64_t tagOf(LineAddr line) const { return split_.quot(line); }

    std::uint64_t sets_;
    Divisor split_; ///< line -> (set, tag)
    TadLayout layout_;
    TagStore tags_; ///< direct-mapped: one way per set
};

} // namespace bear

#endif // BEAR_DRAMCACHE_BWOPT_CACHE_HH
