#include "cache/sram_cache.hh"

#include "common/log.hh"

namespace bear
{

namespace
{

/** Geometry checks live here; TagStore asserts the rest. */
std::uint64_t
setsOf(const SramCacheConfig &config)
{
    bear_assert(config.ways > 0, config.name, ": needs at least one way");
    const std::uint64_t lines = Bytes{config.capacityBytes} / kLineSize;
    bear_assert(lines % config.ways == 0, config.name,
                ": capacity not divisible by associativity");
    const std::uint64_t sets = lines / config.ways;
    bear_assert(sets > 0, config.name, ": zero sets");
    return sets;
}

TagRepl
replOf(ReplacementKind kind)
{
    switch (kind) {
      case ReplacementKind::LRU: return TagRepl::Lru;
      case ReplacementKind::Random: return TagRepl::Random;
      case ReplacementKind::NRU: return TagRepl::Nru;
    }
    bear_panic("unknown replacement kind");
}

} // namespace

SramCache::SramCache(const SramCacheConfig &config)
    : config_(config), sets_(setsOf(config)), split_(sets_),
      tags_(TagStoreConfig{sets_, config.ways, replOf(config.replacement),
                           1, 0})
{
}

SramAccessResult
SramCache::access(LineAddr line, bool is_write)
{
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    const TagProbe probe = tags_.probe(set, tag);

    SramAccessResult result;
    if (!probe.hit) {
        ++misses_;
        return result;
    }
    ++hits_;
    if (is_write)
        tags_.setDirty(set, probe.way, true);
    tags_.touch(set, probe.way);
    result.hit = true;
    result.dcp = tags_.flagAt(set, probe.way);
    return result;
}

bool
SramCache::contains(LineAddr line) const
{
    return tags_.probe(setOf(line), tagOf(line)).hit;
}

SramEviction
SramCache::fill(LineAddr line, bool dirty, bool dcp)
{
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);

    // victimWay() prefers an invalid way and only consults the
    // replacement plane when the set is full, as the hand-rolled scan
    // plus policy_->victim() pair did.
    const std::uint32_t w = tags_.victimWay(set);

    SramEviction evicted;
    if (tags_.validAt(set, w)) {
        evicted.valid = true;
        evicted.line = tags_.tagAt(set, w) * sets_ + set;
        evicted.dirty = tags_.dirtyAt(set, w);
        evicted.dcp = tags_.flagAt(set, w);
        ++evictions_;
        if (evicted.dirty)
            ++dirty_evictions_;
    }

    tags_.install(set, w, tag, dirty);
    tags_.setFlag(set, w, dcp);
    tags_.touch(set, w);
    return evicted;
}

SramEviction
SramCache::invalidate(LineAddr line)
{
    const std::uint64_t set = setOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(line));
    SramEviction evicted;
    if (!probe.hit)
        return evicted;
    evicted.valid = true;
    evicted.line = line;
    evicted.dirty = tags_.dirtyAt(set, probe.way);
    evicted.dcp = tags_.flagAt(set, probe.way);
    tags_.invalidate(set, probe.way);
    return evicted;
}

void
SramCache::clearPresence(LineAddr line)
{
    const std::uint64_t set = setOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(line));
    if (probe.hit)
        tags_.setFlag(set, probe.way, false);
}

void
SramCache::setPresence(LineAddr line)
{
    const std::uint64_t set = setOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(line));
    if (probe.hit)
        tags_.setFlag(set, probe.way, true);
}

bool
SramCache::presence(LineAddr line) const
{
    const std::uint64_t set = setOf(line);
    const TagProbe probe = tags_.probe(set, tagOf(line));
    return probe.hit && tags_.flagAt(set, probe.way);
}

std::uint64_t
SramCache::linesValid() const
{
    return tags_.validCount();
}

void
SramCache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    dirty_evictions_ = 0;
}

} // namespace bear
