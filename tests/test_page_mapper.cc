/** @file Unit tests for the virtual memory page mapper. */

#include <sys/resource.h>

#include <map>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/metrics.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "tests/reference_page_mapper.hh"
#include "trace/trace_reader.hh"
#include "vm/page_mapper.hh"

using namespace bear;

namespace
{

/** First vpage past the radix directory cap (DESIGN.md §3). */
constexpr std::uint64_t kDirectoryCapVpage = 1ULL << 27;

/** Pages one radix leaf covers (2 MB of virtual space). */
constexpr std::uint64_t kLeafPages = 512;

Addr
pageAddr(std::uint64_t vpage, Rng &rng)
{
    return (vpage << kPageShift) | rng.below(kPageSize);
}

/**
 * Seeded translation mix for the oracle comparison.  Phase 0 is dense
 * and mixed, so regions fill up and are promoted into leaves; phase 1
 * scatters single pages over random 2 MB regions below the cap, which
 * asks for directories far larger than their budget; phase 2 mixes
 * everything again over more processes, so pages land in leaves, in
 * the hash, and in regions a grown directory only covers later.
 */
std::pair<std::uint32_t, Addr>
drawTranslation(Rng &rng, int phase,
                const std::vector<std::pair<std::uint32_t, Addr>> &seen)
{
    const std::uint32_t process = static_cast<std::uint32_t>(
        rng.below(phase == 2 ? 64 : 24));
    if (phase == 1) {
        const std::uint64_t region =
            rng.below(kDirectoryCapVpage / kLeafPages);
        return {process,
                pageAddr(region * kLeafPages + rng.below(kLeafPages), rng)};
    }
    switch (rng.below(8)) {
      case 0: // dense low vpages
      case 1:
        return {process, pageAddr(rng.below(4096), rng)};
      case 2: { // sparse strides, reaching past the cap
        static constexpr std::uint64_t kStrides[] = {3, 511, 512, 513,
                                                     4097};
        return {process,
                pageAddr(rng.below(1 << 16) * kStrides[rng.below(5)],
                         rng)};
      }
      case 3: // both sides of the directory cap
        return {process,
                pageAddr(kDirectoryCapVpage - 1024 + rng.below(2048), rng)};
      case 4: // vaddrs at or above 2^40
        return {process, (Addr{1} << 40) + (rng.next() >> 1)};
      case 5: // vaddrs near 2^64
        return {process, ~Addr{0} - rng.below(Addr{1} << 24)};
      case 6: { // process ids outside the radix range
        static constexpr std::uint32_t kIds[] = {255, 256, 1000,
                                                 0xFFFFFFFFU};
        return {kIds[rng.below(4)], pageAddr(rng.below(64), rng)};
      }
      default: // revisit an earlier translation
        if (seen.empty())
            return {process, 0};
        return seen[rng.below(seen.size())];
    }
}

} // namespace

TEST(PageMapper, StableTranslation)
{
    PageMapper m;
    const Addr p1 = m.translate(0, 0x1000);
    const Addr p2 = m.translate(0, 0x1000);
    EXPECT_EQ(p1, p2);
}

TEST(PageMapper, OffsetWithinPagePreserved)
{
    PageMapper m;
    const Addr base = m.translate(0, 0x2000);
    const Addr inner = m.translate(0, 0x2abc);
    EXPECT_EQ(base & ~(kPageSize - 1), inner & ~(kPageSize - 1));
    EXPECT_EQ(inner & (kPageSize - 1), 0xabcULL);
}

TEST(PageMapper, ProcessesNeverCollide)
{
    // Paper Section 3.2: the mapping ensures two benchmarks never map
    // to the same physical address.
    PageMapper m;
    std::set<Addr> frames;
    for (std::uint32_t proc = 0; proc < 8; ++proc) {
        for (Addr v = 0; v < 512 * kPageSize; v += kPageSize) {
            const Addr phys = m.translate(proc, v) >> kPageShift;
            EXPECT_TRUE(frames.insert(phys).second)
                << "collision: proc " << proc << " vpage " << v;
        }
    }
}

TEST(PageMapper, SameVirtualPageDifferentProcessesDiffer)
{
    PageMapper m;
    const Addr a = m.translate(0, 0x5000);
    const Addr b = m.translate(1, 0x5000);
    EXPECT_NE(a, b);
}

TEST(PageMapper, FootprintTracksAllocations)
{
    PageMapper m;
    EXPECT_EQ(m.physicalFootprint(), 0u);
    m.translate(0, 0);
    m.translate(0, kPageSize);
    m.translate(0, 0); // repeat: no new frame
    EXPECT_EQ(m.framesAllocated(), 2u);
    EXPECT_EQ(m.physicalFootprint(), 2 * kPageSize);
}

TEST(PageMapper, ChunksKeepLocalContiguity)
{
    // Eight consecutively allocated pages land in one physically
    // contiguous chunk (row-buffer friendliness).
    PageMapper m;
    std::vector<Addr> phys;
    for (int i = 0; i < 8; ++i)
        phys.push_back(m.translate(0, i * kPageSize) >> kPageShift);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(phys[i], phys[0] + i);
}

TEST(PageMapper, ScatterAcrossChunks)
{
    // Distinct chunks should not be physically adjacent in general.
    PageMapper m;
    const Addr a = m.translate(0, 0) >> kPageShift;
    Addr b = 0;
    for (int i = 0; i < 16; ++i)
        b = m.translate(0, i * kPageSize) >> kPageShift;
    EXPECT_NE(b, a + 15);
}

TEST(PageMapper, MatchesReferenceOracle)
{
    static constexpr int kPhaseOps[] = {20000, 3000, 30000};
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        Rng rng(seed);
        PageMapper mapper;
        test::ReferencePageMapper reference;
        std::vector<std::pair<std::uint32_t, Addr>> seen;
        std::uint64_t op = 0;
        for (int phase = 0; phase < 3; ++phase) {
            for (int i = 0; i < kPhaseOps[phase]; ++i, ++op) {
                const auto [process, vaddr] =
                    drawTranslation(rng, phase, seen);
                seen.emplace_back(process, vaddr);
                ASSERT_EQ(mapper.translate(process, vaddr),
                          reference.translate(process, vaddr))
                    << "seed " << seed << " op " << op << " process "
                    << process << " vaddr 0x" << std::hex << vaddr;
                ASSERT_EQ(mapper.framesAllocated(),
                          reference.framesAllocated())
                    << "seed " << seed << " op " << op;
            }
        }
    }
}

namespace
{

using CoreRecords = std::vector<std::vector<MemRef>>;

/**
 * Per-core references over a pool of sparse pages: near 2^64, at or
 * above 2^40, and one page per 2 MB region below the directory cap.
 */
CoreRecords
sparseHighRecords(std::uint32_t cores, std::size_t refs)
{
    CoreRecords out(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        Rng rng(0xB1A5 + c);
        std::vector<Addr> pages;
        for (int i = 0; i < 3000; ++i) {
            switch (i % 3) {
              case 0:
                pages.push_back((~Addr{0} - (rng.below(1 << 20) << 12))
                                & ~(kPageSize - 1));
                break;
              case 1:
                pages.push_back(((Addr{1} << 40) + (rng.next() >> 1))
                                & ~(kPageSize - 1));
                break;
              default:
                pages.push_back(rng.below(kDirectoryCapVpage / kLeafPages)
                                * kLeafPages * kPageSize);
                break;
            }
        }
        for (std::size_t r = 0; r < refs; ++r) {
            // A hot eighth of the pool takes half the references.
            const std::size_t page = rng.chance(0.5)
                ? rng.below(pages.size() / 8)
                : rng.below(pages.size());
            MemRef ref;
            ref.vaddr = pages[page] | (rng.below(kPageSize / 64) * 64);
            ref.pc = 0x400000 + rng.below(64) * 4;
            ref.instGap = static_cast<std::uint32_t>(1 + rng.below(16));
            ref.isWrite = rng.chance(0.3);
            ref.dependent = rng.chance(0.5);
            out[c].push_back(ref);
        }
    }
    return out;
}

/** The same references with every vpage of a core relabelled to
 *  0, 1, 2, ... in the order the core first touches it. */
CoreRecords
denseAlias(const CoreRecords &records)
{
    CoreRecords out = records;
    for (auto &core : out) {
        std::map<std::uint64_t, std::uint64_t> alias;
        for (MemRef &ref : core) {
            const auto it = alias.try_emplace(ref.vaddr >> kPageShift,
                                              alias.size())
                                .first;
            ref.vaddr = (it->second << kPageShift)
                | (ref.vaddr & (kPageSize - 1));
        }
    }
    return out;
}

std::vector<std::unique_ptr<RefStream>>
replayStreams(const CoreRecords &records)
{
    std::vector<std::unique_ptr<RefStream>> streams;
    for (const auto &core : records)
        streams.push_back(
            std::make_unique<trace::VectorReplayStream>(core));
    return streams;
}

SystemConfig
replayConfig(std::uint32_t cores)
{
    SystemConfig config;
    config.design = DesignKind::Bear;
    config.cores = cores;
    config.scale = 0.015625;
    return config;
}

std::string
replayReport(const CoreRecords &records)
{
    System sys(replayConfig(static_cast<std::uint32_t>(records.size())),
               replayStreams(records));
    sys.run(20000);
    sys.resetStats();
    sys.run(20000);
    RunResult result;
    result.workload = "sparse-high-replay";
    result.design = "BEAR";
    result.stats = sys.stats();
    return runResultToJson(result);
}

long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

} // namespace

TEST(PageMapper, SparseHighReplayMatchesDenseAlias)
{
    // Physical frames depend only on the global first-touch order, so
    // relabelling each core's pages densely in first-touch order must
    // leave every paddr, and hence the whole report, unchanged.  The
    // sparse run sends most pages through the hash fallback.
    const CoreRecords sparse = sparseHighRecords(4, 25000);
    const std::string sparse_report = replayReport(sparse);
    const std::string dense_report = replayReport(denseAlias(sparse));
    EXPECT_EQ(sparse_report, dense_report);
}

TEST(PageMapper, SparseTraceMemoryTracksPagesTouched)
{
    // One page at each of many vpages: half spread over the 64-bit
    // space, half one per 2 MB region from address 0 up (a 2 KB leaf
    // each, were leaves made on first touch).  Page-table memory must
    // grow with the pages touched, not with the span they cover.
    // ctest runs every test in its own process, so the peak is this
    // test's own.
    constexpr std::size_t kPages = 100000;
    constexpr long kBoundBytesPerPage = 256;
    Rng rng(0x5EA5E);
    std::vector<MemRef> refs(kPages);
    for (std::size_t i = 0; i < kPages; ++i) {
        refs[i].vaddr = i % 2 == 0
            ? rng.next() & ~(kPageSize - 1)
            : (i / 2) * kLeafPages * kPageSize;
        refs[i].instGap = 4;
    }
    std::vector<std::unique_ptr<RefStream>> streams;
    streams.push_back(
        std::make_unique<trace::VectorReplayStream>(std::move(refs)));
    System sys(replayConfig(1), std::move(streams));
    const long before_kb = peakRssKb();
    sys.run(kPages);
    const long grown_kb = peakRssKb() - before_kb;
    EXPECT_LT(grown_kb * 1024, static_cast<long>(kPages) * kBoundBytesPerPage)
        << "peak RSS grew " << grown_kb << " KB for " << kPages
        << " pages";
}

TEST(PageMapper, HighestVaddrDoesNotSizeTheTable)
{
    // One page per process just below the directory cap, and one just
    // below 2^64: a table sized by the highest vpage would need 2^18
    // directory slots per process here.
    PageMapper mapper;
    const long before_kb = peakRssKb();
    for (std::uint32_t process = 0; process < 64; ++process) {
        mapper.translate(process, (kDirectoryCapVpage - 1) << kPageShift);
        mapper.translate(process, ~Addr{0});
    }
    EXPECT_EQ(mapper.framesAllocated(), 128u);
    const long grown_kb = peakRssKb() - before_kb;
    EXPECT_LT(grown_kb, 4096) << "peak RSS grew " << grown_kb << " KB";
}

TEST(PageMapper, PhysicalLineWidthCoversTheLargestFrame)
{
    // physicalFrame() is a 32-bit bijection shifted left by 3; invert
    // the scramble of the all-ones word to reach its largest output.
    const auto inverse = [](std::uint32_t odd) {
        std::uint32_t inv = odd; // Newton: 5 steps double 3 -> 96 bits
        for (int i = 0; i < 5; ++i)
            inv *= 2 - odd * inv;
        return inv;
    };
    std::uint32_t x = 0xFFFFFFFFU * inverse(0x85EBCA77U);
    x = (x << 16) | (x >> 16);
    x *= inverse(0x9E3779B1U);
    const std::uint64_t largest =
        PageMapper::physicalFrame((std::uint64_t{x} << 3) | 7);
    EXPECT_EQ(largest, (1ULL << PageMapper::kFrameBits) - 1)
        << "kFrameBits must be exactly the widest frame";
    EXPECT_EQ(lineOf((largest << kPageShift) | (kPageSize - 1)),
              kMaxPhysLine);

    Rng rng(41);
    for (int i = 0; i < 100000; ++i) {
        EXPECT_LT(PageMapper::physicalFrame(rng.below(0xFFFFFFFFULL)),
                  1ULL << PageMapper::kFrameBits);
    }
    PageMapper mapper;
    for (int i = 0; i < 1000; ++i) {
        const Addr vaddr = rng.next() | (kPageSize - 1);
        EXPECT_LE(lineOf(mapper.translate(i % 300, vaddr)), kMaxPhysLine);
    }
}

TEST(PageMapper, PeekSeesOnlyRadixPagesAndNeverAllocates)
{
    PageMapper mapper;
    Rng rng(5);
    EXPECT_FALSE(mapper.peek(0, 0x1234).has_value());
    EXPECT_EQ(mapper.framesAllocated(), 0u);

    // A dense region gets a leaf: every touched page peeks to its
    // translation, an untouched one to nothing.
    for (std::uint64_t vpage = 0; vpage < 64; ++vpage)
        mapper.translate(1, pageAddr(vpage, rng));
    const std::uint64_t frames = mapper.framesAllocated();
    for (std::uint64_t vpage = 0; vpage < 64; ++vpage) {
        const Addr vaddr = pageAddr(vpage, rng);
        const auto peeked = mapper.peek(1, vaddr);
        ASSERT_TRUE(peeked.has_value()) << vpage;
        EXPECT_EQ(*peeked, mapper.translate(1, vaddr));
        mapper.prefetchLeaf(1, vaddr);
    }
    EXPECT_FALSE(mapper.peek(1, pageAddr(100, rng)).has_value());
    EXPECT_FALSE(mapper.peek(2, pageAddr(3, rng)).has_value());

    // Hashed pages (a process id past the radix range) never peek.
    mapper.translate(4000, 0x5000);
    EXPECT_FALSE(mapper.peek(4000, 0x5000).has_value());
    mapper.prefetchLeaf(4000, 0x5000);
    EXPECT_EQ(mapper.framesAllocated(), frames + 1);
}
