/**
 * @file
 * Lookahead neutrality (DESIGN.md §15): RefStream::peek never
 * consumes.  Interleaving peek(k) with next() yields the next()
 * sequence of a stream that is never peeked; a RecordingStream writes
 * the same .beartrace bytes and an armed trace.write fault fires at
 * the same record whether or not it is peeked; and a System whose
 * streams hide peek() (so it issues no host prefetches) reports
 * byte-identical results to one that looks ahead.
 */

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/rng.hh"
#include "sim/metrics.hh"
#include "sim/report.hh"
#include "sim/system.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workloads/workload.hh"

using namespace bear;
using namespace bear::trace;

namespace
{

constexpr double kScale = 0.015625;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "bear-lookahead-" + name;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

bool
sameRef(const MemRef &a, const MemRef &b)
{
    return a.vaddr == b.vaddr && a.pc == b.pc && a.instGap == b.instGap
        && a.isWrite == b.isWrite && a.dependent == b.dependent;
}

/** Test-only adapter: forwards next() and hides peek(). */
class PeekHidingStream : public RefStream
{
  public:
    explicit PeekHidingStream(std::unique_ptr<RefStream> inner)
        : inner_(std::move(inner))
    {
    }

    MemRef next() override { return inner_->next(); }

  private:
    std::unique_ptr<RefStream> inner_;
};

std::unique_ptr<RefStream>
generator(CoreId core)
{
    return std::make_unique<WorkloadStream>(profileByName("mcf"),
                                            0x5EED + 0x1000 * (core + 1),
                                            kScale);
}

/** @p n references of generator(@p core), for replay streams. */
std::vector<MemRef>
recorded(CoreId core, std::size_t n)
{
    auto stream = generator(core);
    std::vector<MemRef> refs;
    for (std::size_t i = 0; i < n; ++i)
        refs.push_back(stream->next());
    return refs;
}

/**
 * Drive @p peeked with a seeded mix of peek(k) and next() calls and
 * @p plain with next() only; every next() must agree, and every
 * peek(k) must name the reference the (k+1)-th next() returns.
 */
void
expectPeekIsNeutral(RefStream &peeked, RefStream &plain, int steps)
{
    Rng rng(0x9EE4);
    std::vector<MemRef> expected; // plain's upcoming references
    for (int i = 0; i < steps; ++i) {
        if (rng.chance(0.5)) {
            const std::size_t k = rng.below(RefStream::kMaxPeek);
            const MemRef *ahead = peeked.peek(k);
            ASSERT_NE(ahead, nullptr) << "step " << i << " k " << k;
            while (expected.size() <= k)
                expected.push_back(plain.next());
            ASSERT_TRUE(sameRef(*ahead, expected[k]))
                << "step " << i << " k " << k;
        } else {
            if (expected.empty())
                expected.push_back(plain.next());
            ASSERT_TRUE(sameRef(peeked.next(), expected.front()))
                << "step " << i;
            expected.erase(expected.begin());
        }
    }
}

} // namespace

TEST(Lookahead, WorkloadStreamPeekNeverConsumes)
{
    for (const std::string name : {"mcf", "lbm", "GemsFDTD"}) {
        SCOPED_TRACE(name);
        WorkloadStream peeked(profileByName(name), 77, kScale);
        WorkloadStream plain(profileByName(name), 77, kScale);
        expectPeekIsNeutral(peeked, plain, 20000);
        // Its ring ends at kMaxPeek references.
        EXPECT_EQ(peeked.peek(RefStream::kMaxPeek), nullptr);
    }
}

TEST(Lookahead, ReplayStreamPeekWrapsLikeNext)
{
    // 3 records: peeks reach past the end and wrap, as next() does.
    for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                std::size_t{500}}) {
        SCOPED_TRACE(n);
        VectorReplayStream peeked(recorded(0, n));
        VectorReplayStream plain(recorded(0, n));
        expectPeekIsNeutral(peeked, plain, 5000);
    }
    // Peeking past the end reads the wrapped record but never wraps.
    VectorReplayStream stream(recorded(0, 3));
    const std::vector<MemRef> records = recorded(0, 3);
    ASSERT_TRUE(sameRef(*stream.peek(3), records[0]));
    EXPECT_EQ(stream.wrapCount(), 0u);
    ASSERT_TRUE(sameRef(stream.next(), records[0]));
}

TEST(Lookahead, RecordingStreamPeekForwardsAndWritesTheSameBytes)
{
    TraceMeta meta;
    meta.workload = "mcf";
    meta.seed = 1;
    meta.coreCount = 1;
    std::vector<std::vector<char>> files;
    for (const bool peek : {false, true}) {
        const std::string path = tempPath(peek ? "peeked" : "plain");
        auto created = TraceWriter::create(path, meta);
        ASSERT_TRUE(created.hasValue());
        TraceWriter writer = std::move(created.value());
        RecordingStream tee(generator(0), writer, 0);
        if (peek) {
            auto plain = generator(0);
            expectPeekIsNeutral(tee, *plain, 20000);
        } else {
            // The same number of next() calls as the peeked run makes.
            Rng rng(0x9EE4);
            std::size_t nexts = 0;
            for (int i = 0; i < 20000; ++i) {
                if (rng.chance(0.5))
                    (void)rng.below(RefStream::kMaxPeek);
                else
                    ++nexts;
            }
            for (std::size_t i = 0; i < nexts; ++i)
                (void)tee.next();
        }
        ASSERT_TRUE(writer.finish().hasValue());
        files.push_back(slurp(path));
    }
    ASSERT_FALSE(files[0].empty());
    EXPECT_EQ(files[0], files[1]);
}

TEST(Lookahead, TraceWriteFaultFiresAtTheSameRecordWhenPeeked)
{
    constexpr std::uint64_t kFireAt = 700;
    TraceMeta meta;
    meta.workload = "mcf";
    meta.coreCount = 1;
    std::vector<std::uint64_t> thrown_at;
    for (const bool peek : {false, true}) {
        auto plan = fault::parseFaultSpec("trace-io@trace.write:n="
                                          + std::to_string(kFireAt));
        ASSERT_TRUE(plan.hasValue());
        fault::ArmedPlan armed(std::move(*plan));
        auto created =
            TraceWriter::create(tempPath("fault"), meta);
        ASSERT_TRUE(created.hasValue());
        TraceWriter writer = std::move(created.value());
        RecordingStream tee(generator(0), writer, 0);
        std::uint64_t nexts = 0;
        try {
            for (; nexts < 20000; ++nexts) {
                if (peek) {
                    for (std::size_t k = 0; k < RefStream::kMaxPeek; ++k)
                        ASSERT_NE(tee.peek(k), nullptr);
                }
                EXPECT_EQ(fault::injector().firedAt("trace.write"),
                          nexts >= kFireAt ? 1u : 0u)
                    << "before record " << nexts;
                (void)tee.next();
            }
            FAIL() << "the armed fault never surfaced";
        } catch (const TraceIoFailure &) {
            thrown_at.push_back(nexts);
        }
    }
    ASSERT_EQ(thrown_at.size(), 2u);
    EXPECT_EQ(thrown_at[0], thrown_at[1]);
}

TEST(Lookahead, SystemReportsIgnoreTheLookahead)
{
    constexpr std::uint32_t kCores = 4;
    using StreamFactory = std::function<std::unique_ptr<RefStream>(CoreId)>;
    std::vector<std::vector<MemRef>> corpus;
    for (CoreId c = 0; c < kCores; ++c)
        corpus.push_back(recorded(c, 6000)); // wraps within the run
    const std::vector<std::pair<std::string, StreamFactory>> sources = {
        {"generated", generator},
        {"replayed", [&](CoreId c) -> std::unique_ptr<RefStream> {
             return std::make_unique<VectorReplayStream>(corpus[c]);
         }}};

    for (const DesignKind design :
         {DesignKind::Alloy, DesignKind::Bear, DesignKind::BwOptimized}) {
        for (const auto &[source, make] : sources) {
            SCOPED_TRACE(testing::Message() << designName(design) << ", "
                                            << source);
            std::vector<std::string> reports;
            for (const bool hide : {false, true}) {
                std::vector<std::unique_ptr<RefStream>> streams;
                for (CoreId c = 0; c < kCores; ++c) {
                    auto stream = make(c);
                    if (hide) {
                        stream = std::make_unique<PeekHidingStream>(
                            std::move(stream));
                    }
                    streams.push_back(std::move(stream));
                }
                SystemConfig config;
                config.design = design;
                config.cores = kCores;
                config.scale = kScale;
                System system(config, std::move(streams));
                system.run(20000);
                system.resetStats();
                system.run(10000);
                RunResult result;
                result.workload = "mcf";
                result.design = designName(design);
                result.stats = system.stats();
                reports.push_back(runResultToJson(result));
            }
            EXPECT_EQ(reports[0], reports[1]);
        }
    }
}
