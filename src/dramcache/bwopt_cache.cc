#include "dramcache/bwopt_cache.hh"

#include "common/log.hh"

namespace bear
{

BwOptCache::BwOptCache(std::uint64_t capacity_bytes, DramSystem &dram,
                       DramSystem &memory, BloatTracker &bloat)
    : DramCache(dram, memory, bloat),
      sets_(Bytes{capacity_bytes} / kLineSize), split_(sets_),
      layout_(sets_, dram.geometry()),
      tags_(TagStoreConfig{sets_, 1, TagRepl::None, 1, 0,
                           directMappedMaxTag(sets_)})
{
}

DramCacheReadOutcome
BwOptCache::serviceRead(Cycle at, LineAddr line, Pc, CoreId)
{
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);

    DramCacheReadOutcome outcome;
    if (tags_.probe(set, tag).hit) {
        // The single physical operation: move the demand line.
        const DramResult res =
            dram_.read(at, layout_.coordOf(set), kLineSize);
        bloat_.noteHit(kLineSize);
        outcome.source = ServiceSource::L4Hit;
        outcome.presentAfter = true;
        outcome.dataReady = res.dataReady;
        return outcome;
    }

    // Miss detection is free and instantaneous.
    const DramResult mem = memory_.readLine(at, line);
    outcome.source = ServiceSource::L4MissMemory;
    outcome.dataReady = mem.dataReady;

    // Logical fill: no DRAM-cache bus traffic.  A dirty victim's data
    // still has to reach main memory (that is main-memory bandwidth).
    if (tags_.validAt(set, 0)) {
        const LineAddr victim_line = tags_.tagAt(set, 0) * sets_ + set;
        if (tags_.dirtyAt(set, 0))
            memory_.writeLine(at, victim_line);
        notifyEviction(victim_line);
    }
    tags_.install(set, 0, tag);
    if (trace_)
        trace_->record(obs::TraceEventKind::Fill, at, line);
    outcome.presentAfter = true;
    return outcome;
}

Cycle
BwOptCache::serviceWriteback(const WritebackRequest &request)
{
    const std::uint64_t set = setOf(request.line);
    if (tags_.probe(set, tagOf(request.line)).hit) {
        // Logical update: free.
        tags_.setDirty(set, 0, true);
        ++writeback_hits_;
    } else {
        ++writeback_misses_;
        memory_.writeLine(request.issuedAt, request.line);
    }
    return request.issuedAt;
}

bool
BwOptCache::contains(LineAddr line) const
{
    return tags_.probe(setOf(line), tagOf(line)).hit;
}

} // namespace bear
