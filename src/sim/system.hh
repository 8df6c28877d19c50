/**
 * @file
 * The full simulated system: 8 cores, on-chip hierarchy, a DRAM-cache
 * design, the stacked-DRAM array, and off-chip main memory
 * (paper Table 1).
 *
 * The simulation loop is event-ordered across cores: the core with the
 * smallest local clock issues its next reference, which flows through
 * the hierarchy, possibly into the DRAM cache and memory.  Timing
 * feedback (MSHR windows, dependent-load stalls, DRAM queueing) makes
 * faster memory service translate into higher reference rates, which
 * is the loop through which BEAR's bandwidth savings become speedup.
 *
 * Capacity-like quantities are scaled by SystemConfig::scale
 * (DESIGN.md): caches, footprints and monitor sizes shrink together,
 * preserving every ratio that determines hit rates and bloat factors.
 */

#ifndef BEAR_SIM_SYSTEM_HH
#define BEAR_SIM_SYSTEM_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_hierarchy.hh"
#include "core/core_model.hh"
#include "core/trace.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/bear_cache.hh"
#include "mem/dram_system.hh"
#include "obs/event_trace.hh"
#include "obs/histogram.hh"
#include "sim/job_control.hh"
#include "vm/page_mapper.hh"

namespace bear
{

/** Top-level knobs of one simulation. */
struct SystemConfig
{
    DesignKind design = DesignKind::Alloy;
    std::uint32_t cores = 8;

    /** Capacity scale (1.0 = paper-size 1 GB cache, 8 MB L3). */
    double scale = 0.0625;

    /** DRAM-cache capacity at scale 1.0. */
    std::uint64_t cacheCapacityBytes = 1ULL << 30;
    /** L3 capacity at scale 1.0. */
    std::uint64_t llcCapacityBytes = 8ULL << 20;

    /** DRAM-cache : main-memory bandwidth ratio (Section 7.3). */
    std::uint32_t bandwidthRatio = 8;
    /** Total DRAM-cache banks (Section 7.4). */
    std::uint32_t totalBanks = 64;

    double baseCpi = 0.5;
    std::uint64_t seed = 0x5EED;
    bool modelL1L2 = false;

    /**
     * Event-trace ring capacity; 0 (the default) disables tracing
     * entirely — no trace object exists and the hot paths skip their
     * emission branches (BEAR_TRACE env knob via RunnerOptions).
     */
    std::size_t traceCapacity = 0;

    /**
     * Ablation hook: build the L4 from this Alloy-family configuration
     * instead of the named design (capacity and core count are still
     * taken from the fields above).
     */
    std::optional<AlloyConfig> alloyOverride;

    /**
     * Cooperative cancellation hook (not owned).  When set, run()
     * publishes forward progress here and checkpoints the cancel flag
     * before its first reference and then every
     * System::kControlPollRefs references, throwing JobCancelled once
     * a cancel is requested — the mechanism behind the runner's
     * watchdog timeout and SIGINT/SIGTERM drain (DESIGN.md §11).  A
     * run that returns has published all of its references.  Null: no
     * overhead.
     */
    JobControl *control = nullptr;
};

/** Trace-activity summary carried in SystemStats (empty if no trace). */
struct TraceSummary
{
    bool enabled = false;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::vector<std::uint64_t> kindCounts; ///< per obs::TraceEventKind
};

/** Per-run results gathered after the measurement phase. */
struct SystemStats
{
    /** Bumped whenever the JSON stats layout changes shape. */
    static constexpr int kSchemaVersion = 2;

    double ipcTotal = 0.0;             ///< sum of per-core IPCs
    std::vector<double> ipcPerCore;
    Cycle execCycles = 0;              ///< max per-core measured cycles
    double l4HitRate = 0.0;
    double l4HitLatency = 0.0;
    double l4MissLatency = 0.0;
    double l4AvgLatency = 0.0;
    double bloatFactor = 0.0;
    std::vector<double> bloatBreakdown; ///< per BloatCategory
    std::vector<Bytes> bloatBytes;      ///< per BloatCategory, absolute
    double measuredMpki = 0.0;          ///< L3 misses per kilo-instr
    Bytes sramOverheadBytes{0};
    Bytes l4BytesTransferred{0};  ///< DRAM-cache bus traffic (measured)
    Bytes memBytesTransferred{0}; ///< main-memory bus traffic (measured)

    // Distributions (tentpole): the scalar latencies above are the
    // exact means of these histograms.
    obs::LatencyHistogram l4HitLatencyHist;
    obs::LatencyHistogram l4MissLatencyHist;
    obs::LatencyHistogram l4QueueDelayHist;  ///< DRAM-cache array reads
    obs::LatencyHistogram memQueueDelayHist; ///< main-memory reads
    obs::DepthHistogram l4WriteQueueDepthHist;

    std::vector<BankUtilization> l4Banks; ///< per DRAM-cache bank
    TraceSummary trace;
};

/** A configured, runnable system instance. */
class System
{
  public:
    /**
     * @param config  system knobs
     * @param streams one reference stream per core (rate mode: copies
     *                of the same profile with distinct seeds)
     */
    System(const SystemConfig &config,
           std::vector<std::unique_ptr<RefStream>> streams);
    ~System();

    /** References between two SystemConfig::control checkpoints. */
    static constexpr std::uint64_t kControlPollRefs = 1024;

    /** Advance every core by @p refs_per_core references. */
    void run(std::uint64_t refs_per_core);

    /** Reset all statistics (warm-up boundary); state is preserved. */
    void resetStats();

    /** Gather the measurement-phase statistics. */
    SystemStats stats() const;

    DramCache &dramCache() { return *dram_cache_; }
    CacheHierarchy &hierarchy() { return *hierarchy_; }
    DramSystem &cacheDram() { return *cache_dram_; }
    DramSystem &mainMemory() { return *main_memory_; }
    BloatTracker &bloat() { return bloat_; }
    const SystemConfig &config() const { return config_; }

    /** The event trace, or nullptr when traceCapacity == 0. */
    obs::EventTrace *trace() { return trace_.get(); }

  private:
    /** Process one reference of @p core. */
    void step(CoreId core);

    /**
     * Host prefetches for @p core's coming references, issued right
     * after run() steps it: the radix leaf entry of the reference
     * kLeafLookahead places ahead, and the L3 set rows and L4 tag
     * words of the next one.  Reads only peek() and const lookups, so
     * simulated state and the order of next() calls are untouched
     * (DESIGN.md §15).
     */
    void prefetchAhead(CoreId core);

    /** peek() depth of the page-table prefetch: the third reference
     *  ahead, so its leaf arrives before the translation needs it. */
    static constexpr std::size_t kLeafLookahead = 2;

    /**
     * Issue deferred writebacks whose time has come (<= @p now).
     * Called once per simulated reference, so the common nothing-due
     * case is a single compare against the cached min-issuedAt
     * watermark — the heap itself is only touched when a writeback is
     * actually due (DESIGN.md §15).
     */
    void
    flushWritebacks(Cycle now)
    {
        if (now < wb_next_due_)
            return;
        drainDueWritebacks(now);
    }

    /** Slow path of flushWritebacks: pop and issue every due entry,
     *  then refresh the watermark from the new heap top. */
    void drainDueWritebacks(Cycle now);

    /**
     * Dirty L3 evictions waiting for their logical issue time
     * (issuedAt).  The eviction physically happens when the displacing
     * fill's data arrives, which lies in the simulated future when the
     * miss is processed; deferring keeps DRAM-bus arrivals time-ordered
     * (the reservation timing model requires it).  Min-heap on issuedAt
     * via issuedLater.
     */
    struct IssuedLater
    {
        bool
        operator()(const WritebackRequest &a,
                   const WritebackRequest &b) const
        {
            return a.issuedAt > b.issuedAt;
        }
    };

    std::vector<WritebackRequest> wb_queue_; ///< min-heap by issuedAt

    /** Smallest issuedAt in wb_queue_ (~0 when empty): the per-ref
     *  drain check never touches the heap until something is due. */
    Cycle wb_next_due_ = ~Cycle{0};

    SystemConfig config_;
    std::vector<std::unique_ptr<RefStream>> streams_;
    std::vector<CoreModel> cores_;
    std::vector<std::uint64_t> refs_done_;

    PageMapper mapper_;
    std::unique_ptr<DramSystem> cache_dram_;
    std::unique_ptr<DramSystem> main_memory_;
    BloatTracker bloat_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    std::unique_ptr<DramCache> dram_cache_;
    std::unique_ptr<obs::EventTrace> trace_;

    std::uint64_t demand_accesses_ = 0; ///< L3 accesses (measured)
    std::uint64_t llc_misses_ = 0;      ///< L3 misses (measured)
};

} // namespace bear

#endif // BEAR_SIM_SYSTEM_HH
