/**
 * @file
 * Span recording and the traced mirror of System::step.
 *
 * The mirror rebuilds the simulated system from the library's public
 * parts (DramSystem, CacheHierarchy, makeDesign, PageMapper,
 * CoreModel) and drives them in the same order as System::run/step,
 * so its statistics must equal a System run of the same cell bit for
 * bit; the driver checks that before it trusts any traced number.
 * One reference in every `sampleEvery` is timed: a root span covers
 * the core pick and the whole step, and one child span covers each
 * call into a layer.  Untimed references take a copy of the step with
 * no clock reads.
 */

#ifndef PERFBENCH_MIRROR_HH
#define PERFBENCH_MIRROR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench
{

/** A span's layer: the src/ module whose call it brackets. */
enum class Layer : std::uint8_t
{
    Ref,          ///< root: one sampled reference (sim driver)
    Workloads,    ///< WorkloadStream::next
    TraceDecode,  ///< TraceReplayStream::next
    Vm,           ///< PageMapper::translate
    CacheAccess,  ///< CacheHierarchy::access
    CacheFill,    ///< CacheHierarchy::fillLlc
    DramRead,     ///< DramCache::read
    DramWriteback ///< DramCache::writeback
};

constexpr std::size_t kLayers = 8;

/** Stable span name, `module.call`. */
const char *layerName(Layer layer);

/** One timed interval; `parent` indexes the same log (kNoParent: root). */
struct Span
{
    std::uint64_t ref = 0; ///< id shared by the spans of one reference
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t parent = 0;
    Layer layer = Layer::Ref;
};

/** In-memory span store, written out once the run ends. */
class SpanLog
{
  public:
    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

    std::uint32_t open(Layer layer, std::uint32_t parent,
                       std::uint64_t ref);
    void close(std::uint32_t id);

    /** Grow once up front so no sampled span pays a reallocation. */
    void reserve(std::size_t spans) { spans_.reserve(spans); }

    std::uint64_t newRef() { return next_ref_++; }
    const std::vector<Span> &spans() const { return spans_; }

    /** One tab-separated line per span; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::uint64_t next_ref_ = 0;
};

/** Opens a span on construction and closes it on destruction; a null
 *  log makes it free. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, Layer layer, std::uint32_t parent,
              std::uint64_t ref)
        : log_(log), id_(log ? log->open(layer, parent, ref) : 0)
    {
    }

    ~SpanScope()
    {
        if (log_)
            log_->close(id_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

/**
 * What recording a span costs, measured on empty spans: a clock read
 * is tens of nanoseconds here, about the size of the calls being
 * timed, so LayerTotals subtracts these before reporting.
 */
struct SpanCost
{
    double emptyNs = 0.0;  ///< measured length of an empty span
    double parentNs = 0.0; ///< self time a child adds to its parent
    double rootNs = 0.0;   ///< self time of an empty sim.ref span

    static SpanCost measure();
};

/** Per-layer totals over a slice of a span log. */
struct LayerTotals
{
    std::array<double, kLayers> ns{}; ///< summed span time
    std::array<std::uint64_t, kLayers> calls{};
    double rootSelfNs = 0.0; ///< sim.ref spans minus their children

    void add(const LayerTotals &other);
    /** Totals of spans [first, last) of @p log, less @p cost. */
    static LayerTotals of(const SpanLog &log, std::size_t first,
                          std::size_t last, const SpanCost &cost);
};

/** The traced mirror of bear::System. */
class Mirror
{
  public:
    /**
     * @param stream_layer Workloads or TraceDecode: what the streams'
     *                     next() calls are attributed to
     * @param log          span sink; null runs untimed
     */
    Mirror(const bear::SystemConfig &config,
           std::vector<std::unique_ptr<bear::RefStream>> streams,
           Layer stream_layer, SpanLog *log,
           std::uint64_t sample_every);
    ~Mirror();

    Mirror(const Mirror &) = delete;
    Mirror &operator=(const Mirror &) = delete;

    void run(std::uint64_t refs_per_core);
    void resetStats();
    bear::SystemStats stats() const;

    std::uint64_t framesAllocated() const;
    /** Counts since the last resetStats(). */
    std::uint64_t refs() const { return refs_; }
    std::uint64_t demandAccesses() const { return demand_accesses_; }
    std::uint64_t llcMisses() const { return llc_misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    bear::DramCache &dramCache() { return *dram_cache_; }
    bear::DramSystem &cacheDram() { return *cache_dram_; }
    bear::DramSystem &mainMemory() { return *main_memory_; }

  private:
    struct IssuedLater
    {
        bool
        operator()(const bear::WritebackRequest &a,
                   const bear::WritebackRequest &b) const
        {
            return a.issuedAt > b.issuedAt;
        }
    };

    template <bool Timed>
    void step(bear::CoreId core_id, std::uint32_t root,
              std::uint64_t ref);
    template <bool Timed>
    void flushWritebacks(bear::Cycle now, std::uint32_t root,
                         std::uint64_t ref);

    bear::SystemConfig config_;
    std::vector<std::unique_ptr<bear::RefStream>> streams_;
    std::vector<bear::CoreModel> cores_;

    bear::PageMapper mapper_;
    std::unique_ptr<bear::DramSystem> cache_dram_;
    std::unique_ptr<bear::DramSystem> main_memory_;
    bear::BloatTracker bloat_;
    std::unique_ptr<bear::CacheHierarchy> hierarchy_;
    std::unique_ptr<bear::DramCache> dram_cache_;

    std::vector<bear::WritebackRequest> wb_queue_;
    bear::Cycle wb_next_due_ = ~bear::Cycle{0};

    Layer stream_layer_;
    SpanLog *log_;
    std::uint64_t sample_every_;
    std::uint64_t sequence_ = 0;

    std::uint64_t refs_ = 0;
    std::uint64_t demand_accesses_ = 0;
    std::uint64_t llc_misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_MIRROR_HH
