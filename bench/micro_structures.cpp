/**
 * @file
 * Microbenchmarks (google-benchmark) for the simulator's hot
 * structures: TagStore probe/install, NTC lookup, SRAM cache access,
 * DRAM channel scheduling, the gap-filling bus timeline, and workload
 * generation.  These guard the simulation throughput that makes the
 * scaled reproduction practical on one core.
 *
 * Besides the normal console output, main() captures every result and
 * writes BENCH_micro.json (override with BEAR_BENCH_MICRO_OUT) — the
 * pinned microbenchmark trajectory described in DESIGN.md §14.  The
 * document is re-parsed with common/json before exit 0, so tools/ci.sh
 * can trust that an exit-0 run produced a well-formed snapshot.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "cache/sram_cache.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/ntc.hh"
#include "dramcache/tag_store.hh"
#include "mem/dram_system.hh"
#include "serve/frame.hh"
#include "vm/page_mapper.hh"
#include "workloads/workload.hh"

using namespace bear;

namespace
{

/** Associative probe against a populated 32-way SoA store (the TIS /
 *  sector geometry; ~93.75% of probes hit). */
void
BM_TagStoreProbe(benchmark::State &state)
{
    constexpr std::uint64_t kSets = 1 << 14;
    constexpr std::uint32_t kWays = 32;
    TagStore store(TagStoreConfig{kSets, kWays, TagRepl::Lru, 1, 0});
    Rng rng(7);
    for (std::uint64_t set = 0; set < kSets; ++set) {
        for (std::uint32_t w = 0; w + 2 < kWays; ++w) {
            store.install(set, w, rng.below(1 << 20));
            store.touch(set, w);
        }
    }
    std::uint64_t set = 0;
    for (auto _ : state) {
        // Mix of hits (resident tags repeat) and misses (fresh draws).
        const std::uint64_t tag = (set & 15)
            ? store.tagAt(set % kSets,
                          static_cast<std::uint32_t>(set % (kWays - 2)))
            : rng.below(1 << 20);
        benchmark::DoNotOptimize(store.probe(set % kSets, tag));
        ++set;
    }
}
BENCHMARK(BM_TagStoreProbe);

/** Direct-mapped probe: the Alloy/BEAR fast path (one way, one set
 *  bitmask load). */
void
BM_TagStoreProbeDirectMapped(benchmark::State &state)
{
    constexpr std::uint64_t kSets = 1 << 18;
    TagStore store(TagStoreConfig{kSets, 1, TagRepl::None, 1, 0});
    Rng rng(8);
    for (std::uint64_t set = 0; set < kSets; ++set)
        store.install(set, 0, rng.below(1 << 20));
    std::uint64_t set = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            store.probe(set % kSets, (set * 2654435761u) % (1 << 20)));
        ++set;
    }
}
BENCHMARK(BM_TagStoreProbeDirectMapped);

/** The rate-mcf L4 at scale 0.0625: 1M direct-mapped sets with 32-bit
 *  tag words (a 4 MB plane, past the L2), probed at random sets. */
void
BM_TagStoreProbeDirectMapped1M(benchmark::State &state)
{
    constexpr std::uint64_t kSets = 1 << 20;
    const std::uint64_t max_tag = directMappedMaxTag(kSets);
    TagStore store(TagStoreConfig{kSets, 1, TagRepl::None, 1, 0, max_tag});
    Rng rng(10);
    for (std::uint64_t set = 0; set < kSets; ++set)
        store.install(set, 0, rng.below(max_tag));
    for (auto _ : state) {
        const std::uint64_t set = rng.below(kSets);
        benchmark::DoNotOptimize(store.probe(set, set & 0xFFFF));
    }
}
BENCHMARK(BM_TagStoreProbeDirectMapped1M);

/** Fill/evict churn: victim selection plus install plus touch. */
void
BM_TagStoreInstallEvict(benchmark::State &state)
{
    constexpr std::uint64_t kSets = 1 << 10;
    constexpr std::uint32_t kWays = 29;
    TagStore store(TagStoreConfig{kSets, kWays, TagRepl::Lru, 1, 0});
    Rng rng(9);
    std::uint64_t i = 0;
    for (auto _ : state) {
        const std::uint64_t set = i % kSets;
        const std::uint32_t victim = store.victimWay(set);
        if (store.validAt(set, victim))
            store.evict(set, victim);
        store.install(set, victim, rng.below(1 << 20));
        store.touch(set, victim);
        benchmark::DoNotOptimize(victim);
        ++i;
    }
}
BENCHMARK(BM_TagStoreInstallEvict);

void
BM_NtcLookup(benchmark::State &state)
{
    NeighboringTagCache ntc(64, 8);
    Rng rng(1);
    for (int i = 0; i < 512; ++i)
        ntc.record(i % 64, rng.below(4096), rng.below(64), true, false);
    std::uint64_t set = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ntc.lookup(static_cast<std::uint32_t>(set % 64), set % 4096,
                       set % 64));
        ++set;
    }
}
BENCHMARK(BM_NtcLookup);

void
BM_SramCacheAccess(benchmark::State &state)
{
    SramCacheConfig config;
    config.capacityBytes = 1ULL << 20;
    config.ways = 16;
    SramCache cache(config);
    Rng rng(2);
    for (int i = 0; i < 20000; ++i)
        cache.fill(rng.below(1 << 16), false, false);
    LineAddr line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(line % (1 << 16), false));
        line += 97;
    }
}
BENCHMARK(BM_SramCacheAccess);

void
BM_DramChannelRead(benchmark::State &state)
{
    DramSystem dram("l4", DramTiming{}, makeCacheGeometry());
    Rng rng(3);
    Cycle t = 0;
    for (auto _ : state) {
        DramCoord coord;
        coord.channel = static_cast<std::uint32_t>(rng.below(4));
        coord.bank = static_cast<std::uint32_t>(rng.below(16));
        coord.row = rng.below(1 << 14);
        benchmark::DoNotOptimize(dram.read(t, coord, kTadTransfer));
        t += 7;
    }
}
BENCHMARK(BM_DramChannelRead);

/**
 * Posted-write churn with reads interleaved to trigger batch drains:
 * the write path exercises the arrival-sorted ring post (out-of-order
 * by up to ~7 slots), the cursor-cached arrived count, and the O(1)
 * head pop of drainWrites.
 */
void
BM_DramChannelWriteDrain(benchmark::State &state)
{
    DramChannel ch(DramTiming{}, makeCacheGeometry(), {});
    Rng rng(11);
    Cycle t = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        t += 13;
        // Adversarial out-of-order arrivals: the post time jumps ahead
        // of the channel clock by a random jitter, so sorted insertion
        // happens mid-ring, not just at the tail.
        ch.write(t + rng.below(96),
                 static_cast<std::uint32_t>(rng.below(16)),
                 rng.below(1 << 14), kLineSize);
        if ((++i & 7) == 0) {
            benchmark::DoNotOptimize(
                ch.read(t, static_cast<std::uint32_t>(rng.below(16)),
                        rng.below(1 << 14), kLineSize));
        }
    }
}
BENCHMARK(BM_DramChannelWriteDrain);

/**
 * Gap-filling bus reservation under an adversarial arrival pattern:
 * earliest repeatedly jumps back by up to kSkewWindow/4, forcing the
 * hint-resumed gap search to walk instead of staying pinned at the
 * tail (the circular window's worst case).
 */
void
BM_BusTimelineReserve(benchmark::State &state)
{
    BusTimeline bus;
    Rng rng(10);
    Cycle t = 0;
    for (auto _ : state) {
        t += 9;
        const Cycle skew = rng.below(BusTimeline::kSkewWindow / 4);
        benchmark::DoNotOptimize(
            bus.reserve(t > skew ? t - skew : 0, 5));
    }
}
BENCHMARK(BM_BusTimelineReserve);

void
BM_AlloyCacheRead(benchmark::State &state)
{
    DramSystem dram("l4", DramTiming{}, makeCacheGeometry());
    DramSystem memory("ddr", DramTiming{}, makeMemoryGeometry());
    BloatTracker bloat;
    AlloyConfig config;
    config.capacityBytes = 64ULL << 20;
    AlloyCache cache(config, dram, memory, bloat);
    Rng rng(4);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.read(t, rng.below(1 << 22), 0x400000, 0));
        t += 11;
    }
}
BENCHMARK(BM_AlloyCacheRead);

void
BM_WorkloadStreamNext(benchmark::State &state)
{
    WorkloadStream stream(profileByName("soplex"), 5, 0.0625);
    for (auto _ : state)
        benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_WorkloadStreamNext);

void
BM_PageMapperTranslate(benchmark::State &state)
{
    PageMapper mapper;
    Rng rng(6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mapper.translate(static_cast<std::uint32_t>(rng.below(8)),
                             rng.below(1ULL << 30)));
    }
}
BENCHMARK(BM_PageMapperTranslate);

void
BM_ServeFrameEncode(benchmark::State &state)
{
    // One TraceData frame of typical size: 64 KiB of trace bytes,
    // the slice bearload sends per frame.
    std::vector<std::uint8_t> body(64 * 1024);
    for (std::size_t i = 0; i < body.size(); ++i)
        body[i] = static_cast<std::uint8_t>(i * 131);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            serve::encodeFrame(serve::FrameType::TraceData, body));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_ServeFrameEncode);

void
BM_ServeFrameDecode(benchmark::State &state)
{
    std::vector<std::uint8_t> body(64 * 1024);
    for (std::size_t i = 0; i < body.size(); ++i)
        body[i] = static_cast<std::uint8_t>(i * 131);
    const std::vector<std::uint8_t> wire =
        serve::encodeFrame(serve::FrameType::TraceData, body);
    for (auto _ : state) {
        serve::FrameDecoder decoder;
        decoder.ingest(wire.data(), wire.size());
        auto next = decoder.next();
        if (!next.hasValue() || !next->has_value())
            state.SkipWithError("frame failed to decode");
        benchmark::DoNotOptimize(next);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_ServeFrameDecode);

/**
 * Console output as usual, plus a captured (name, ns/op) pair per
 * benchmark for the JSON snapshot.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Result
    {
        std::string name;
        double nsPerOp = 0.0;
    };

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.error_occurred)
                continue;
            results_.push_back(
                {run.benchmark_name(), run.GetAdjustedRealTime()});
        }
        ConsoleReporter::ReportRuns(reports);
    }

    const std::vector<Result> &results() const { return results_; }

  private:
    std::vector<Result> results_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    JsonWriter w;
    w.beginObject();
    w.field("schema", std::string("bear-bench-micro-v1"));
    w.beginArray("benchmarks");
    for (const auto &r : reporter.results()) {
        w.beginObject();
        w.field("name", r.name);
        w.field("nsPerOp", r.nsPerOp);
        w.field("opsPerSec", r.nsPerOp > 0.0 ? 1e9 / r.nsPerOp : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    const std::string doc = w.str();

    const auto parsed = bear::JsonValue::parse(doc);
    if (!parsed.hasValue()) {
        std::fprintf(stderr, "BENCH_micro self-check failed: %s\n",
                     parsed.error().message().c_str());
        return 1;
    }
    if (reporter.results().empty()) {
        std::fprintf(stderr,
                     "BENCH_micro self-check failed: no results\n");
        return 1;
    }

    const char *env = std::getenv("BEAR_BENCH_MICRO_OUT");
    const std::string path = env ? env : "BENCH_micro.json";
    std::ofstream out(path, std::ios::trunc);
    out << doc << "\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    benchmark::Shutdown();
    return 0;
}
