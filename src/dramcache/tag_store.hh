/**
 * @file
 * TagStore: the shared struct-of-arrays tag organisation for every
 * set-associative tag array in the simulator (DESIGN.md §14).
 *
 * Each design used to hand-roll its tags as a vector of per-way
 * structs (`std::vector<Tad>` and friends) plus shadow `lru_` vectors,
 * so a probe chased pointers across interleaved tag/valid/dirty/LRU
 * bytes.  TagStore packs the same state into cache-line-aligned
 * planes:
 *
 *  - the tag plane — one tag word per (set, way), row-major, so
 *    probing a set scans one contiguous run of at most 8 cache lines.
 *    A word is 32 bits when the caller's declared maximum tag fits in
 *    32 bits and 64 bits otherwise (DESIGN.md §14): a direct-mapped
 *    L4 never needs more than 31 tag bits, so its plane halves;
 *  - `valid_` / `dirty_` / `flag_` — per-set way bitmasks (bit w =
 *    way w), packed `64 / bit_ceil(ways)` sets per 64-bit word so the
 *    mask planes stay dense at every associativity (a direct-mapped
 *    store keeps 64 sets' presence bits in one word instead of
 *    wasting a word per set).  Presence tests and mask filters are
 *    still single loads plus a shift, and `probe()` is branch-lean:
 *    compare every way, build a match mask, AND with the valid mask,
 *    count trailing zeros;
 *  - optional per-entry metadata planes (`meta`) — 64-bit payloads per
 *    (set, way); the sector cache keeps its per-block valid/dirty
 *    bitmaps here;
 *  - a pluggable per-set replacement plane (None / LRU / Random /
 *    NRU) so way-recency state stops living in shadow vectors.
 *
 * Ownership contract: TagStore owns tag, valid, dirty, flag, metadata
 * and replacement state; designs own *policy* — when to probe, fill,
 * bypass or evict, and all counter/bloat accounting.  Mutations are
 * explicit (`install` / `evict` / `invalidate` / `touch` /
 * `setDirty`); nothing is updated implicitly, so ports preserve their
 * pre-TagStore call sequences exactly (the differential parity suite
 * in tests/test_design_parity.cc holds them to it).
 *
 * `evict()` clears the entry but deliberately leaves both the stale
 * tag and the replacement state behind — that reproduces the historic
 * sector-cache behaviour (an evicted way keeps its LRU age) and the
 * historic neighbour-capture behaviour (the NTC records stale tags of
 * invalid ways).  `invalidate()` additionally resets replacement
 * state, which is the SRAM-cache back-invalidation semantics.
 *
 * Associativity is capped at 64 so each per-set mask is one machine
 * word; every design in the paper uses 1, 29 or 32 ways.
 */

#ifndef BEAR_DRAMCACHE_TAG_STORE_HH
#define BEAR_DRAMCACHE_TAG_STORE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "common/log.hh"
#include "common/prefetch.hh"
#include "common/rng.hh"

namespace bear
{

/**
 * A heap array of trivially-copyable elements whose storage starts on
 * a cache-line boundary.  std::vector cannot guarantee the alignment
 * without allocator gymnastics; this is the minimal replacement.
 */
template <typename T>
class AlignedPlane
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "planes hold raw machine words");

  public:
    static constexpr std::size_t kAlignment = 64;

    AlignedPlane() = default;

    explicit AlignedPlane(std::size_t n, T init = T{}) { reset(n, init); }

    void
    reset(std::size_t n, T init = T{})
    {
        size_ = n;
        if (n == 0) {
            data_.reset();
            return;
        }
        data_.reset(static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kAlignment})));
        for (std::size_t i = 0; i < n; ++i)
            data_[i] = init;
    }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    std::size_t size() const { return size_; }
    const T *data() const { return data_.get(); }

  private:
    struct Deleter
    {
        void
        operator()(T *p) const
        {
            ::operator delete(p, std::align_val_t{kAlignment});
        }
    };

    std::unique_ptr<T[], Deleter> data_;
    std::size_t size_ = 0;
};

/** Replacement-state plane selector. */
enum class TagRepl : std::uint8_t
{
    None,   ///< direct-mapped / caller never asks for a victim
    Lru,    ///< true LRU via per-entry last-touch timestamps
    Random, ///< deterministic PRNG victim
    Nru     ///< one reference bit per entry, clock-style victim
};

/** Geometry and policy of one TagStore. */
struct TagStoreConfig
{
    std::uint64_t sets = 0;
    std::uint32_t ways = 1;
    TagRepl repl = TagRepl::None;
    std::uint64_t replSeed = 1; ///< TagRepl::Random only
    std::uint32_t metaPlanes = 0; ///< per-entry u64 payload planes
    /** Largest tag install() may be given; <= 2^32 - 1 selects 32-bit
     *  tag words.  The default keeps 64-bit words. */
    std::uint64_t maxTag = ~0ULL;
};

/** Result of a set probe. */
struct TagProbe
{
    std::uint32_t way = 0; ///< matching way; ways() when !hit
    bool hit = false;
};

/** Cache-line-aligned SoA tag array with a replacement plane. */
class TagStore
{
  public:
    static constexpr std::uint32_t kMaxWays = 64;
    static constexpr std::uint32_t kMaxMetaPlanes = 2;
    static constexpr std::size_t kPlaneAlignment =
        AlignedPlane<std::uint64_t>::kAlignment;

    explicit TagStore(const TagStoreConfig &config)
        : sets_(config.sets), ways_(config.ways),
          way_mask_(config.ways >= kMaxWays
                        ? ~0ULL
                        : (1ULL << config.ways) - 1),
          repl_(config.repl), meta_planes_(config.metaPlanes),
          max_tag_(config.maxTag),
          narrow_(config.maxTag <= 0xFFFFFFFFULL), rng_(config.replSeed)
    {
        bear_assert(sets_ > 0, "TagStore needs at least one set");
        bear_assert(ways_ >= 1 && ways_ <= kMaxWays,
                    "TagStore associativity must be 1..64, got ",
                    ways_);
        bear_assert(meta_planes_ <= kMaxMetaPlanes,
                    "TagStore supports at most ", kMaxMetaPlanes,
                    " metadata planes");
        // Each set's mask occupies bit_ceil(ways) bits; 64/bit_ceil
        // sets share one word.  Both counts are powers of two, so the
        // set -> (word, shift) split is two shifts and an AND.
        mask_bits_log2_ = static_cast<std::uint32_t>(
            std::countr_zero(std::bit_ceil(std::uint64_t{ways_})));
        spw_shift_ = 6 - mask_bits_log2_;
        spw_mask_ = (1ULL << spw_shift_) - 1;
        const std::uint64_t mask_words =
            (sets_ >> spw_shift_) + ((sets_ & spw_mask_) ? 1 : 0);
        if (narrow_)
            tags32_.reset(sets_ * ways_, 0);
        else
            tags64_.reset(sets_ * ways_, 0);
        valid_.reset(mask_words, 0);
        dirty_.reset(mask_words, 0);
        flag_.reset(mask_words, 0);
        for (std::uint32_t p = 0; p < meta_planes_; ++p)
            meta_[p].reset(sets_ * ways_, 0);
        if (repl_ == TagRepl::Lru)
            last_touch_.reset(sets_ * ways_, 0);
        else if (repl_ == TagRepl::Nru)
            referenced_.reset(mask_words, 0);
    }

    std::uint64_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }
    /** Bytes per stored tag: 4 when the declared maximum tag fits in
     *  32 bits, else 8. */
    std::uint32_t tagWordBytes() const { return narrow_ ? 4 : 8; }

    /**
     * Branch-lean associative lookup: compare every way's tag, fold
     * the comparisons into a match mask, AND out invalid ways, and
     * take the lowest set bit — the first valid matching way, exactly
     * as the historic way-order scans resolved duplicates.
     */
    TagProbe
    probe(std::uint64_t set, std::uint64_t tag) const
    {
        std::uint64_t match = narrow_ ? matchRow(tags32_, set, tag)
                                      : matchRow(tags64_, set, tag);
        match &= maskOf(valid_, set);
        TagProbe result;
        result.hit = match != 0;
        result.way = result.hit
            ? static_cast<std::uint32_t>(std::countr_zero(match))
            : ways_;
        return result;
    }

    /**
     * The way a fill should overwrite: the lowest invalid way when one
     * exists, otherwise the replacement plane's victim.  With
     * TagRepl::None and all ways valid this is way 0 (the
     * direct-mapped overwrite).
     */
    std::uint32_t
    victimWay(std::uint64_t set)
    {
        const std::uint64_t invalid = ~maskOf(valid_, set) & way_mask_;
        if (invalid != 0)
            return static_cast<std::uint32_t>(std::countr_zero(invalid));
        switch (repl_) {
          case TagRepl::None:
            return 0;
          case TagRepl::Lru: {
            const std::uint64_t *row = &last_touch_[set * ways_];
            std::uint32_t best = 0;
            std::uint64_t oldest = ~0ULL;
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (row[w] < oldest) {
                    oldest = row[w];
                    best = w;
                }
            }
            return best;
          }
          case TagRepl::Random:
            return static_cast<std::uint32_t>(rng_.below(ways_));
          case TagRepl::Nru: {
            // Clock sweep: lowest unreferenced way; if every way is
            // referenced, clear the set's bits and take way 0.
            const std::uint64_t unref =
                ~maskOf(referenced_, set) & way_mask_;
            if (unref != 0)
                return static_cast<std::uint32_t>(
                    std::countr_zero(unref));
            referenced_[set >> spw_shift_] &=
                ~(way_mask_ << shiftOf(set));
            return 0;
          }
        }
        bear_panic("bad TagRepl");
    }

    /**
     * Write @p tag into (set, way) and mark it valid.  Dirty is seeded
     * from @p dirty; the flag bit and metadata planes reset to zero.
     * Replacement state is NOT touched — callers that promoted on fill
     * before the port keep calling touch() themselves.
     */
    void
    install(std::uint64_t set, std::uint32_t way, std::uint64_t tag,
            bool dirty = false)
    {
        bear_assert(tag <= max_tag_, "TagStore tag ", tag,
                    " exceeds the declared maximum ", max_tag_);
        if (narrow_)
            tags32_[set * ways_ + way] = static_cast<std::uint32_t>(tag);
        else
            tags64_[set * ways_ + way] = tag;
        setBit(valid_, set, way, true);
        setBit(dirty_, set, way, dirty);
        setBit(flag_, set, way, false);
        for (std::uint32_t p = 0; p < meta_planes_; ++p)
            meta_[p][set * ways_ + way] = 0;
    }

    /**
     * Clear (set, way): valid, dirty, flag and metadata reset; the
     * stale tag and the replacement state stay behind (see the file
     * comment for why both are contractual).
     */
    void
    evict(std::uint64_t set, std::uint32_t way)
    {
        setBit(valid_, set, way, false);
        setBit(dirty_, set, way, false);
        setBit(flag_, set, way, false);
        for (std::uint32_t p = 0; p < meta_planes_; ++p)
            meta_[p][set * ways_ + way] = 0;
    }

    /** evict() plus a replacement-state reset (back-invalidation). */
    void
    invalidate(std::uint64_t set, std::uint32_t way)
    {
        evict(set, way);
        if (repl_ == TagRepl::Lru)
            last_touch_[set * ways_ + way] = 0;
        else if (repl_ == TagRepl::Nru)
            setBit(referenced_, set, way, false);
    }

    /** Promote (set, way) in the replacement plane. */
    void
    touch(std::uint64_t set, std::uint32_t way)
    {
        if (repl_ == TagRepl::Lru)
            last_touch_[set * ways_ + way] = tick_++;
        else if (repl_ == TagRepl::Nru)
            setBit(referenced_, set, way, true);
    }

    void
    setDirty(std::uint64_t set, std::uint32_t way, bool dirty)
    {
        setBit(dirty_, set, way, dirty);
    }

    /** The designs' spare per-entry bit (DCP in the SRAM hierarchy). */
    void
    setFlag(std::uint64_t set, std::uint32_t way, bool flag)
    {
        setBit(flag_, set, way, flag);
    }

    std::uint64_t
    tagAt(std::uint64_t set, std::uint32_t way) const
    {
        return narrow_ ? tags32_[set * ways_ + way]
                       : tags64_[set * ways_ + way];
    }

    /**
     * Host prefetch of what a probe and a fill of @p set read: the tag
     * row, the valid mask word and, under LRU, the timestamp row.  A
     * hint only; no state changes (DESIGN.md §15).
     */
    void
    prefetch(std::uint64_t set) const
    {
        const std::size_t entry = set * ways_;
        if (narrow_)
            prefetchSpan(&tags32_[entry], ways_ * sizeof(std::uint32_t));
        else
            prefetchSpan(&tags64_[entry], ways_ * sizeof(std::uint64_t));
        hostPrefetch(&valid_[set >> spw_shift_]);
        if (repl_ == TagRepl::Lru)
            prefetchSpan(&last_touch_[entry],
                         ways_ * sizeof(std::uint64_t));
    }

    bool
    validAt(std::uint64_t set, std::uint32_t way) const
    {
        return (maskOf(valid_, set) >> way) & 1;
    }

    bool
    dirtyAt(std::uint64_t set, std::uint32_t way) const
    {
        return (maskOf(dirty_, set) >> way) & 1;
    }

    bool
    flagAt(std::uint64_t set, std::uint32_t way) const
    {
        return (maskOf(flag_, set) >> way) & 1;
    }

    std::uint64_t validMask(std::uint64_t set) const
    {
        return maskOf(valid_, set);
    }

    std::uint64_t dirtyMask(std::uint64_t set) const
    {
        return maskOf(dirty_, set);
    }

    /** Valid entries across the whole store.  Way bits above ways_ are
     *  never set, so whole packed words popcount exactly. */
    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < valid_.size(); ++i)
            n += static_cast<std::uint64_t>(std::popcount(valid_[i]));
        return n;
    }

    std::uint64_t
    meta(std::uint64_t set, std::uint32_t way, std::uint32_t plane) const
    {
        return meta_[plane][set * ways_ + way];
    }

    void
    setMeta(std::uint64_t set, std::uint32_t way, std::uint32_t plane,
            std::uint64_t value)
    {
        meta_[plane][set * ways_ + way] = value;
    }

    /** Plane base addresses, for the alignment checks in tests. */
    const void *
    tagPlane() const
    {
        return narrow_ ? static_cast<const void *>(tags32_.data())
                       : static_cast<const void *>(tags64_.data());
    }
    const std::uint64_t *validPlane() const { return valid_.data(); }
    const std::uint64_t *dirtyPlane() const { return dirty_.data(); }

  private:
    /** Match mask of @p tag against @p set's row: bit w = way w. */
    template <typename Word>
    std::uint64_t
    matchRow(const AlignedPlane<Word> &plane, std::uint64_t set,
             std::uint64_t tag) const
    {
        // A 32-bit word widens before the compare, so a tag above
        // 2^32 - 1 matches nothing rather than its truncation.
        const Word *row = &plane[set * ways_];
        std::uint64_t match = 0;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            match |= static_cast<std::uint64_t>(
                         std::uint64_t{row[w]} == tag)
                << w;
        }
        return match;
    }

    /** Prefetch every cache line of [@p p, @p p + @p bytes). */
    static void
    prefetchSpan(const void *p, std::size_t bytes)
    {
        const auto first = reinterpret_cast<std::uintptr_t>(p)
            & ~std::uintptr_t{kPlaneAlignment - 1};
        const auto last = reinterpret_cast<std::uintptr_t>(p) + bytes - 1;
        for (std::uintptr_t line = first; line <= last;
             line += kPlaneAlignment)
            hostPrefetch(reinterpret_cast<const void *>(line));
    }

    /** Bit offset of @p set's mask inside its packed word. */
    std::uint32_t
    shiftOf(std::uint64_t set) const
    {
        return static_cast<std::uint32_t>((set & spw_mask_)
                                          << mask_bits_log2_);
    }

    /** Extract @p set's way bitmask from a packed mask plane. */
    std::uint64_t
    maskOf(const AlignedPlane<std::uint64_t> &plane,
           std::uint64_t set) const
    {
        return (plane[set >> spw_shift_] >> shiftOf(set)) & way_mask_;
    }

    /** Set or clear one way bit inside a packed mask plane. */
    void
    setBit(AlignedPlane<std::uint64_t> &plane, std::uint64_t set,
           std::uint32_t way, bool value)
    {
        const std::uint64_t bit = 1ULL << (shiftOf(set) + way);
        plane[set >> spw_shift_] =
            value ? plane[set >> spw_shift_] | bit
                  : plane[set >> spw_shift_] & ~bit;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    std::uint64_t way_mask_;
    TagRepl repl_;
    std::uint32_t meta_planes_;
    std::uint64_t max_tag_;
    bool narrow_; ///< 32-bit tag words (max_tag_ fits in 32 bits)
    std::uint32_t mask_bits_log2_ = 6; ///< log2(bit_ceil(ways))
    std::uint32_t spw_shift_ = 0;      ///< log2(sets per mask word)
    std::uint64_t spw_mask_ = 0;       ///< (sets per word) - 1

    AlignedPlane<std::uint32_t> tags32_; ///< [set * ways + way], narrow
    AlignedPlane<std::uint64_t> tags64_; ///< [set * ways + way], wide
    AlignedPlane<std::uint64_t> valid_; ///< packed per-set way bitmasks
    AlignedPlane<std::uint64_t> dirty_; ///< packed per-set way bitmasks
    AlignedPlane<std::uint64_t> flag_;  ///< packed per-set way bitmasks
    AlignedPlane<std::uint64_t> meta_[kMaxMetaPlanes];

    AlignedPlane<std::uint64_t> last_touch_; ///< TagRepl::Lru
    AlignedPlane<std::uint64_t> referenced_; ///< TagRepl::Nru, packed
    std::uint64_t tick_ = 1;
    Rng rng_;
};

} // namespace bear

#endif // BEAR_DRAMCACHE_TAG_STORE_HH
