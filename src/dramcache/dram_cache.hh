/**
 * @file
 * Common interface of every DRAM-cache (L4) design.
 *
 * A design owns its tag organisation and policies; it borrows the
 * stacked-DRAM array and the off-chip main memory (both DramSystem
 * instances) from the system.  Demand reads return completion timing
 * so the core model can account latency; writebacks are posted.
 *
 * The public entry points read() and writeback() are non-virtual
 * template methods: they delegate to serviceRead()/serviceWriteback()
 * and centralise the bookkeeping every design used to repeat — demand
 * hit/miss counters, latency histograms, demand-read trace events.  A
 * design implements only its policy; the observable statistics are
 * defined once, here, so they cannot drift between designs and the
 * system never needs to downcast to harvest them.
 *
 * The eviction listener is how a design tells the on-chip hierarchy
 * that a line left the DRAM cache: the DCP flow clears presence bits,
 * and inclusive designs back-invalidate.  The listener returns true if
 * a *dirty on-chip copy* was dropped and its data must be forwarded to
 * main memory by the design (only inclusive designs ever return true).
 */

#ifndef BEAR_DRAMCACHE_DRAM_CACHE_HH
#define BEAR_DRAMCACHE_DRAM_CACHE_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

#include "common/divisor.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "dramcache/bloat.hh"
#include "mem/dram_system.hh"
#include "obs/event_trace.hh"
#include "obs/histogram.hh"

namespace bear
{

/**
 * Who ultimately serviced a demand read.  The event trace and the
 * bloat breakdown both need more than a hit bool: a miss that bypassed
 * the fill and a miss that installed are different traffic classes,
 * and an NTC guaranteed-miss never even paid the probe.
 */
enum class ServiceSource : std::uint8_t
{
    L4Hit,          ///< data came from the DRAM cache
    L4MissMemory,   ///< probe missed; memory serviced, line installed
    BypassedMemory, ///< memory serviced and the fill was bypassed
    NtcAvoidedProbe ///< NTC/TTC proved a miss without probing the array
};

/** Stable lower-case name for reports. */
const char *serviceSourceName(ServiceSource source);

/** Result of a demand (LLC-miss) read. */
struct DramCacheReadOutcome
{
    ServiceSource source = ServiceSource::L4MissMemory;
    Cycle dataReady = 0;    ///< cycle at which the demand data arrives
    bool presentAfter = false; ///< line resides in the L4 afterwards (DCP)

    /** Serviced by the DRAM cache? */
    constexpr bool hit() const { return source == ServiceSource::L4Hit; }
};

/** Notification that the DRAM cache evicted/invalidated a line. */
using EvictionListener = std::function<bool(LineAddr)>;

/** Abstract gigascale DRAM cache. */
class DramCache
{
  public:
    /**
     * @param dram   the stacked high-bandwidth array backing the cache
     * @param memory off-chip main memory for misses and dirty victims
     * @param bloat  shared bandwidth accounting
     */
    DramCache(DramSystem &dram, DramSystem &memory, BloatTracker &bloat)
        : dram_(dram), memory_(memory), bloat_(bloat)
    {
    }

    virtual ~DramCache() = default;

    /**
     * Service an LLC demand miss for @p line issued at @p at.  @p pc
     * and @p core feed PC-indexed predictors (MAP-I).  Non-virtual:
     * counts the hit/miss, samples the latency distribution and emits
     * the trace event around the design's serviceRead().
     */
    DramCacheReadOutcome
    read(Cycle at, LineAddr line, Pc pc, CoreId core)
    {
        const DramCacheReadOutcome out = serviceRead(at, line, pc, core);
        if (out.dataReady < at) {
            // Cycles is unsigned: a dataReady before the issue cycle
            // would wrap into an astronomical latency sample.  Name
            // the design loudly; in debug builds, stop.
            bear_warn(name(), ": serviceRead returned dataReady ",
                      out.dataReady, " before issue cycle ", at,
                      " -- unsigned latency would wrap");
            assert(out.dataReady >= at && "dataReady precedes issue");
        }
        const Cycles latency{out.dataReady - at};
        if (out.hit()) {
            ++demand_hits_;
            hit_latency_.sample(latency);
        } else {
            ++demand_misses_;
            miss_latency_.sample(latency);
        }
        if (trace_) {
            trace_->record(obs::TraceEventKind::DemandRead, at, line,
                           latency.count());
        }
        return out;
    }

    /**
     * Handle a dirty eviction from the LLC.  Non-virtual, symmetric
     * with read(): delegates to serviceWriteback(), samples the
     * writeback service-latency distribution from the returned
     * completion cycle and emits the trace event.  Designs keep
     * owning writeback_{hits,misses}_ — only the probe knows whether
     * the line was present.
     */
    void
    writeback(const WritebackRequest &request)
    {
        const Cycle done = serviceWriteback(request);
        if (done < request.issuedAt) {
            bear_warn(name(), ": serviceWriteback returned completion ",
                      done, " before issue cycle ", request.issuedAt,
                      " -- unsigned latency would wrap");
            assert(done >= request.issuedAt
                   && "writeback completion precedes issue");
        }
        wb_latency_.sample(Cycles{done - request.issuedAt});
        if (trace_) {
            trace_->record(obs::TraceEventKind::Writeback,
                           request.issuedAt, request.line,
                           done - request.issuedAt);
        }
    }

    /** Design name for reports. */
    virtual std::string name() const = 0;

    /**
     * Functional probe used by the correctness checker: does the cache
     * currently hold a dirty copy of @p line (i.e. the only up-to-date
     * copy in the off-chip world)?
     */
    virtual bool holdsDirty(LineAddr) const { return false; }

    /** On-chip SRAM the design requires (Table 5 / Section 8). */
    virtual Bytes sramOverheadBytes() const { return Bytes{0}; }

    /**
     * Host prefetch of the tag state a read or writeback of @p line
     * will touch.  A hint for the simulator's own memory system: it
     * changes no simulated state, so the default does nothing
     * (DESIGN.md §15).
     */
    virtual void prefetch(LineAddr) const {}

    void setEvictionListener(EvictionListener listener)
    {
        eviction_listener_ = std::move(listener);
    }

    /** Attach (or detach with nullptr) an event trace sink. */
    void setTrace(obs::EventTrace *trace) { trace_ = trace; }

    std::uint64_t demandHits() const { return demand_hits_; }
    std::uint64_t demandMisses() const { return demand_misses_; }
    std::uint64_t writebackHits() const { return writeback_hits_; }
    std::uint64_t writebackMisses() const { return writeback_misses_; }

    /** Demand-hit service-latency distribution. */
    const obs::LatencyHistogram &
    hitLatencyHistogram() const
    {
        return hit_latency_;
    }

    /** Demand-miss service-latency distribution. */
    const obs::LatencyHistogram &
    missLatencyHistogram() const
    {
        return miss_latency_;
    }

    /**
     * Writeback service-latency distribution (accessor only — not
     * part of the serialized report).  Zero-latency samples are the
     * posted/short-circuited writebacks; nonzero ones paid a probe.
     */
    const obs::LatencyHistogram &
    writebackLatencyHistogram() const
    {
        return wb_latency_;
    }

    double avgHitLatency() const { return hit_latency_.mean(); }
    double avgMissLatency() const { return miss_latency_.mean(); }

    double
    hitRate() const
    {
        const std::uint64_t total = demand_hits_ + demand_misses_;
        return total ? static_cast<double>(demand_hits_)
                / static_cast<double>(total)
            : 0.0;
    }

    virtual void
    resetStats()
    {
        demand_hits_ = 0;
        demand_misses_ = 0;
        writeback_hits_ = 0;
        writeback_misses_ = 0;
        hit_latency_.reset();
        miss_latency_.reset();
        wb_latency_.reset();
    }

  protected:
    /**
     * The design's read policy.  Must fill `source`, `dataReady` and
     * `presentAfter`; must NOT touch the demand counters or latency
     * histograms — the read() wrapper owns those.
     */
    virtual DramCacheReadOutcome serviceRead(Cycle at, LineAddr line,
                                             Pc pc, CoreId core) = 0;

    /**
     * The design's writeback policy.  Returns the cycle at which the
     * writeback was resolved (probe completion for probing paths, the
     * issue cycle for posted or short-circuited ones); the writeback()
     * wrapper turns it into the latency sample and the trace event.
     * Updates writeback_{hits,misses}_ itself: only the probe knows
     * whether the line was present.
     */
    virtual Cycle serviceWriteback(const WritebackRequest &request) = 0;

    /** Tell the hierarchy a line left the cache; true => dirty on-chip
     *  copy dropped (inclusive designs must push it to memory). */
    bool
    notifyEviction(LineAddr line)
    {
        return eviction_listener_ && eviction_listener_(line);
    }

    DramSystem &dram_;
    DramSystem &memory_;
    BloatTracker &bloat_;
    obs::EventTrace *trace_ = nullptr;

    std::uint64_t demand_hits_ = 0;
    std::uint64_t demand_misses_ = 0;
    std::uint64_t writeback_hits_ = 0;
    std::uint64_t writeback_misses_ = 0;

  private:
    EvictionListener eviction_listener_;

    obs::LatencyHistogram hit_latency_;
    obs::LatencyHistogram miss_latency_;
    obs::LatencyHistogram wb_latency_;
};

/**
 * Largest tag a direct-mapped L4 of @p sets sets is ever given: the
 * tag of the highest physical line.  Below 2^31 from 1024 sets up, so
 * such a store keeps 32-bit tag words (DESIGN.md §14).
 */
inline std::uint64_t
directMappedMaxTag(std::uint64_t sets)
{
    return sets ? kMaxPhysLine / sets : kMaxPhysLine;
}

/**
 * Physical layout of a direct-mapped TAD array (paper Figure 10):
 * 28 consecutive TADs share one 2 KB row; rows interleave across
 * channels, then banks.
 */
class TadLayout
{
  public:
    TadLayout(std::uint64_t sets, const DramGeometry &geometry)
        : tads_per_row_(geometry.rowBytes / kTadSize),
          channels_(geometry.channels), banks_(geometry.banksPerChannel),
          sets_(sets)
    {
    }

    DramCoord
    coordOf(std::uint64_t set) const
    {
        const std::uint64_t row_id = tads_per_row_.quot(set);
        DramCoord coord;
        coord.channel = static_cast<std::uint32_t>(channels_.rem(row_id));
        const std::uint64_t rest = channels_.quot(row_id);
        coord.bank = static_cast<std::uint32_t>(banks_.rem(rest));
        coord.row = banks_.quot(rest);
        return coord;
    }

    std::uint64_t tadsPerRow() const { return tads_per_row_.value(); }
    std::uint64_t sets() const { return sets_; }

    /** The set whose tag rides along on an access to @p set (the next
     *  TAD in the row, paper Figure 10); sets_ if none does. */
    std::uint64_t
    neighborOf(std::uint64_t set) const
    {
        // set + 1 leaves the row exactly when it starts the next one.
        const std::uint64_t next = set + 1;
        if (next >= sets_ || tads_per_row_.rem(next) == 0)
            return sets_;
        return next;
    }

  private:
    Divisor tads_per_row_; ///< 28 on a 2 KB row: the division path
    Divisor channels_;
    Divisor banks_;
    std::uint64_t sets_;
};

} // namespace bear

#endif // BEAR_DRAMCACHE_DRAM_CACHE_HH
