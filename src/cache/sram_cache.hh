/**
 * @file
 * Set-associative writeback SRAM cache.
 *
 * Serves as L1/L2/L3 in the simulated hierarchy.  Beyond the ordinary
 * tag machinery it implements the two architectural hooks BEAR needs
 * in the on-chip LLC:
 *
 *  - the DRAM-Cache Presence (DCP) bit per line (paper Section 5.2):
 *    set when the fill was serviced by / installed in the DRAM cache,
 *    cleared when the DRAM cache evicts the line;
 *  - back-invalidation for inclusive DRAM-cache designs
 *    (paper Section 5.1).
 *
 * The cache is a functional + structural model: it tracks tags, dirty
 * bits and replacement state; latency is accounted by the system model
 * that owns it.
 */

#ifndef BEAR_CACHE_SRAM_CACHE_HH
#define BEAR_CACHE_SRAM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/divisor.hh"
#include "common/types.hh"
#include "dramcache/tag_store.hh"

namespace bear
{

/**
 * Replacement policy of one SRAM cache level; each kind selects the
 * matching TagStore replacement plane.  LRU is the paper's policy for
 * the on-chip hierarchy; Random and NRU serve the tests and ablations.
 */
enum class ReplacementKind { LRU, Random, NRU };

/** Geometry/latency parameters of one SRAM cache level. */
struct SramCacheConfig
{
    std::string name = "cache";
    std::uint64_t capacityBytes = 8ULL << 20;
    std::uint32_t ways = 16;
    Cycle latency = 24; ///< access latency in CPU cycles
    ReplacementKind replacement = ReplacementKind::LRU;
};

/** Outcome of a lookup. */
struct SramAccessResult
{
    bool hit = false;
    bool dcp = false; ///< presence bit of the hit line (valid if hit)
};

/** A line evicted by a fill. */
struct SramEviction
{
    bool valid = false; ///< an eviction actually happened
    LineAddr line = 0;
    bool dirty = false;
    bool dcp = false;
};

/** Set-associative writeback cache with DCP support. */
class SramCache
{
  public:
    explicit SramCache(const SramCacheConfig &config);

    /**
     * Look up @p line; on a hit, updates replacement state and, for a
     * write, the dirty bit.  Misses do not allocate — the caller
     * completes the fill via fill() once the data returns.
     */
    SramAccessResult access(LineAddr line, bool is_write);

    /** Probe without perturbing replacement or dirty state. */
    bool contains(LineAddr line) const;

    /**
     * Install @p line (allocating-on-miss policy).  @p dirty seeds the
     * dirty bit (true for write-allocate of a store miss); @p dcp seeds
     * the DRAM-cache presence bit.  Returns the victim, if any.
     */
    SramEviction fill(LineAddr line, bool dirty, bool dcp);

    /**
     * Remove @p line if present (back-invalidation from an inclusive
     * DRAM cache).  Returns the eviction record so the caller can
     * forward dirty data.
     */
    SramEviction invalidate(LineAddr line);

    /** Clear the DCP bit of @p line if present (DRAM-cache eviction). */
    void clearPresence(LineAddr line);

    /** Set the DCP bit of @p line if present. */
    void setPresence(LineAddr line);

    /** Read the DCP bit; false if the line is absent. */
    bool presence(LineAddr line) const;

    /** Host prefetch of @p line's set rows (DESIGN.md §15). */
    void prefetch(LineAddr line) const { tags_.prefetch(setOf(line)); }

    const SramCacheConfig &config() const { return config_; }
    std::uint64_t sets() const { return sets_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t dirtyEvictions() const { return dirty_evictions_; }
    std::uint64_t linesValid() const;

    void resetStats();

  private:
    std::uint64_t setOf(LineAddr line) const { return split_.rem(line); }
    std::uint64_t tagOf(LineAddr line) const { return split_.quot(line); }

    SramCacheConfig config_;
    std::uint64_t sets_;
    Divisor split_; ///< line -> (set, tag)
    /** Tags, valid/dirty masks, the DCP bit (flag plane) and the
     *  replacement plane all live in the shared SoA store. */
    TagStore tags_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t dirty_evictions_ = 0;
};

} // namespace bear

#endif // BEAR_CACHE_SRAM_CACHE_HH
