#include "mirror.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/log.hh"

namespace perfbench
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** System's capacity scaling (sim/system.cc keeps it file-local). */
bear::Bytes
scaleBytes(bear::Bytes volume, double scale)
{
    const auto scaled =
        static_cast<std::uint64_t>(volume.toDouble() * scale);
    return std::max(bear::Bytes{scaled}, bear::Bytes{64 * 1024});
}

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Ref:
        return "sim.ref";
    case Layer::Workloads:
        return "workloads.next";
    case Layer::TraceDecode:
        return "trace.decode";
    case Layer::Vm:
        return "vm.translate";
    case Layer::CacheAccess:
        return "cache.access";
    case Layer::CacheFill:
        return "cache.fillLlc";
    case Layer::DramRead:
        return "dramcache.read";
    case Layer::DramWriteback:
        return "dramcache.writeback";
    }
    return "?";
}

std::uint32_t
SpanLog::open(Layer layer, std::uint32_t parent, std::uint64_t ref)
{
    Span span;
    span.ref = ref;
    span.parent = parent;
    span.layer = layer;
    spans_.push_back(span);
    // Read the clock last so the push_back is outside the interval.
    spans_.back().startNs = nowNs();
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
SpanLog::close(std::uint32_t id)
{
    spans_[id].endNs = nowNs();
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "id\tref\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out, "%zu\t%llu\t%lld\t%s\t%lld\t%lld\n", i,
                     static_cast<unsigned long long>(s.ref),
                     s.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(s.parent),
                     layerName(s.layer),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    const bool ok = std::ferror(out) == 0;
    return std::fclose(out) == 0 && ok;
}

void
LayerTotals::add(const LayerTotals &other)
{
    for (std::size_t i = 0; i < kLayers; ++i) {
        ns[i] += other.ns[i];
        calls[i] += other.calls[i];
    }
    rootSelfNs += other.rootSelfNs;
}

SpanCost
SpanCost::measure()
{
    constexpr int kRoots = 4096;
    constexpr int kChildren = 4;
    SpanLog log;
    log.reserve(kRoots * (2 + kChildren));
    std::vector<std::uint32_t> bare, parents;
    for (int i = 0; i < kRoots; ++i) {
        bare.push_back(log.open(Layer::Ref, SpanLog::kNoParent, 0));
        log.close(bare.back());
        parents.push_back(log.open(Layer::Ref, SpanLog::kNoParent, 0));
        for (int k = 0; k < kChildren; ++k)
            SpanScope child(&log, Layer::Vm, parents.back(), 0);
        log.close(parents.back());
    }
    auto total = [&](const std::vector<std::uint32_t> &ids) {
        double ns = 0.0;
        for (const std::uint32_t id : ids) {
            const Span &s = log.spans()[id];
            ns += static_cast<double>(s.endNs - s.startNs);
        }
        return ns;
    };
    double children = 0.0;
    for (const Span &s : log.spans()) {
        if (s.layer == Layer::Vm)
            children += static_cast<double>(s.endNs - s.startNs);
    }
    SpanCost cost;
    cost.emptyNs = children / (kRoots * kChildren);
    cost.rootNs = total(bare) / kRoots;
    cost.parentNs =
        std::max(0.0, (total(parents) - children) / kRoots - cost.rootNs)
        / kChildren;
    return cost;
}

LayerTotals
LayerTotals::of(const SpanLog &log, std::size_t first, std::size_t last,
                const SpanCost &cost)
{
    LayerTotals t;
    const std::vector<Span> &spans = log.spans();
    for (std::size_t i = first; i < last; ++i) {
        const Span &s = spans[i];
        const auto d = static_cast<double>(s.endNs - s.startNs);
        const auto l = static_cast<std::size_t>(s.layer);
        ++t.calls[l];
        if (s.layer == Layer::Ref) {
            t.ns[l] += d - cost.rootNs;
            t.rootSelfNs += d - cost.rootNs;
            continue;
        }
        t.ns[l] += d - cost.emptyNs;
        if (s.parent != SpanLog::kNoParent
            && spans[s.parent].layer == Layer::Ref) {
            // Children never overlap each other.  A child's own cost
            // lies inside its parent, so it leaves the parent too.
            const double charged = d + cost.parentNs;
            t.ns[static_cast<std::size_t>(Layer::Ref)] -=
                cost.emptyNs + cost.parentNs;
            t.rootSelfNs -= charged;
        }
    }
    return t;
}

Mirror::Mirror(const bear::SystemConfig &config,
               std::vector<std::unique_ptr<bear::RefStream>> streams,
               Layer stream_layer, SpanLog *log,
               std::uint64_t sample_every)
    : config_(config), streams_(std::move(streams)),
      stream_layer_(stream_layer), log_(log),
      sample_every_(sample_every)
{
    bear_assert(streams_.size() == config.cores,
                "need one stream per core");
    bear_assert(sample_every_ > 0, "sampling stride must be positive");

    cache_dram_ = std::make_unique<bear::DramSystem>(
        "l4dram", bear::DramTiming{},
        bear::makeCacheGeometry(config.bandwidthRatio,
                                config.totalBanks));
    main_memory_ = std::make_unique<bear::DramSystem>(
        "ddr", bear::DramTiming{}, bear::makeMemoryGeometry());

    bear::HierarchyConfig hier;
    hier.modelL1L2 = config.modelL1L2;
    hier.cores = config.cores;
    hier.l3.capacityBytes =
        scaleBytes(bear::Bytes{config.llcCapacityBytes}, config.scale)
            .count();
    hierarchy_ = std::make_unique<bear::CacheHierarchy>(hier);

    bear::DesignParams params;
    params.capacityBytes =
        scaleBytes(bear::Bytes{config.cacheCapacityBytes}, config.scale)
            .count();
    params.cores = config.cores;
    params.seed = config.seed;
    dram_cache_ = bear::makeDesign(config.design, params, *cache_dram_,
                                   *main_memory_, bloat_);
    if (config.design == bear::DesignKind::InclusiveAlloy) {
        dram_cache_->setEvictionListener([this](bear::LineAddr line) {
            return hierarchy_->backInvalidate(line);
        });
    } else {
        dram_cache_->setEvictionListener([this](bear::LineAddr line) {
            hierarchy_->onDramCacheEviction(line);
            return false;
        });
    }

    cores_.reserve(config.cores);
    for (bear::CoreId c = 0; c < config.cores; ++c)
        cores_.emplace_back(c, config.baseCpi);
}

Mirror::~Mirror() = default;

std::uint64_t
Mirror::framesAllocated() const
{
    return mapper_.framesAllocated();
}

template <bool Timed>
void
Mirror::flushWritebacks(bear::Cycle now, std::uint32_t root,
                        std::uint64_t ref)
{
    if (now < wb_next_due_)
        return;
    while (!wb_queue_.empty() && wb_queue_.front().issuedAt <= now) {
        const bear::WritebackRequest wb = wb_queue_.front();
        std::pop_heap(wb_queue_.begin(), wb_queue_.end(),
                      IssuedLater{});
        wb_queue_.pop_back();
        ++writebacks_;
        SpanScope span(Timed ? log_ : nullptr, Layer::DramWriteback,
                       root, ref);
        dram_cache_->writeback(wb);
    }
    wb_next_due_ =
        wb_queue_.empty() ? ~bear::Cycle{0} : wb_queue_.front().issuedAt;
}

template <bool Timed>
void
Mirror::step(bear::CoreId core_id, std::uint32_t root, std::uint64_t ref)
{
    SpanLog *const log = Timed ? log_ : nullptr;
    bear::CoreModel &core = cores_[core_id];
    bear::MemRef r;
    {
        SpanScope span(log, stream_layer_, root, ref);
        r = streams_[core_id]->next();
    }

    core.advanceInstructions(r.instGap);
    flushWritebacks<Timed>(core.cycle(), root, ref);

    bear::Addr paddr = 0;
    {
        SpanScope span(log, Layer::Vm, root, ref);
        paddr = mapper_.translate(core_id, r.vaddr);
    }
    const bear::LineAddr line = bear::lineOf(paddr);

    bear::HierarchyOutcome outcome;
    {
        SpanScope span(log, Layer::CacheAccess, root, ref);
        outcome = hierarchy_->access(core_id, line, r.isWrite);
    }
    ++demand_accesses_;

    if (!outcome.llcMiss) {
        core.completeOnChip(outcome.onChipLatency, r.dependent);
        return;
    }

    ++llc_misses_;
    const bear::Cycle issue = core.cycle() + outcome.onChipLatency;
    bear::DramCacheReadOutcome read;
    {
        SpanScope span(log, Layer::DramRead, root, ref);
        read = dram_cache_->read(issue, line, r.pc, core_id);
    }

    std::optional<bear::WritebackRequest> wb;
    {
        SpanScope span(log, Layer::CacheFill, root, ref);
        wb = hierarchy_->fillLlc(line, r.isWrite, read.presentAfter);
    }
    if (wb) {
        wb->issuedAt = read.dataReady;
        wb_queue_.push_back(*wb);
        std::push_heap(wb_queue_.begin(), wb_queue_.end(),
                       IssuedLater{});
        wb_next_due_ = std::min(wb_next_due_, wb->issuedAt);
    }

    core.completeMiss(read.dataReady, r.dependent);
}

void
Mirror::run(std::uint64_t refs_per_core)
{
    const std::uint32_t n = config_.cores;
    const std::uint64_t total = refs_per_core * n;
    std::vector<std::uint64_t> quota(n, refs_per_core);

    for (std::uint64_t i = 0; i < total; ++i) {
        const bool timed =
            log_ != nullptr && sequence_++ % sample_every_ == 0;
        std::uint64_t ref = 0;
        std::uint32_t root = 0;
        if (timed) {
            ref = log_->newRef();
            root = log_->open(Layer::Ref, SpanLog::kNoParent, ref);
        }
        bear::CoreId best = n;
        bear::Cycle earliest = ~bear::Cycle{0};
        for (bear::CoreId c = 0; c < n; ++c) {
            if (quota[c] == 0)
                continue;
            if (cores_[c].nextReady() < earliest) {
                earliest = cores_[c].nextReady();
                best = c;
            }
        }
        bear_assert(best < n, "no runnable core");
        --quota[best];
        ++refs_;
        if (timed) {
            step<true>(best, root, ref);
            log_->close(root);
        } else {
            step<false>(best, 0, 0);
        }
    }
    flushWritebacks<false>(~bear::Cycle{0}, 0, 0);
}

void
Mirror::resetStats()
{
    bloat_.reset();
    dram_cache_->resetStats();
    cache_dram_->resetStats();
    main_memory_->resetStats();
    hierarchy_->resetStats();
    for (auto &core : cores_)
        core.markEpoch();
    refs_ = 0;
    demand_accesses_ = 0;
    llc_misses_ = 0;
    writebacks_ = 0;
}

bear::SystemStats
Mirror::stats() const
{
    // Field for field what System::stats() gathers (tracing off).
    bear::SystemStats s;
    std::uint64_t instructions = 0;
    for (const auto &core : cores_) {
        s.ipcPerCore.push_back(core.ipcSinceEpoch());
        s.ipcTotal += core.ipcSinceEpoch();
        s.execCycles = std::max(s.execCycles, core.cyclesSinceEpoch());
        instructions += core.instructionsSinceEpoch();
    }

    s.l4HitRate = dram_cache_->hitRate();
    s.bloatFactor = bloat_.bloatFactor();
    for (std::size_t i = 0; i < bear::BloatTracker::kCategories; ++i) {
        const auto c = static_cast<bear::BloatCategory>(i);
        s.bloatBreakdown.push_back(bloat_.categoryFactor(c));
        s.bloatBytes.push_back(bloat_.bytes(c));
    }
    s.l4BytesTransferred = cache_dram_->totalBytesTransferred();
    s.memBytesTransferred = main_memory_->totalBytesTransferred();
    s.measuredMpki = instructions
        ? 1000.0 * static_cast<double>(llc_misses_)
            / static_cast<double>(instructions)
        : 0.0;
    s.sramOverheadBytes = dram_cache_->sramOverheadBytes();

    s.l4HitLatency = dram_cache_->avgHitLatency();
    s.l4MissLatency = dram_cache_->avgMissLatency();
    s.l4AvgLatency = s.l4HitRate * s.l4HitLatency
        + (1.0 - s.l4HitRate) * s.l4MissLatency;

    s.l4HitLatencyHist = dram_cache_->hitLatencyHistogram();
    s.l4MissLatencyHist = dram_cache_->missLatencyHistogram();
    s.l4QueueDelayHist = cache_dram_->queueDelayHistogram();
    s.memQueueDelayHist = main_memory_->queueDelayHistogram();
    s.l4WriteQueueDepthHist = cache_dram_->writeQueueDepthHistogram();
    s.l4Banks = cache_dram_->bankUtilization();
    return s;
}

} // namespace perfbench
