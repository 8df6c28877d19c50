/**
 * @file
 * Unit tests for the binary trace subsystem (src/trace): encoding
 * round-trips, the RecordingStream tee, per-core replay, corruption
 * rejection, entry-point parity (loadTrace on a file and the streaming
 * decoder on sliced bytes settle every corrupt input identically), the
 * once-per-Runner corpus load, and the headline guarantee — a recorded
 * workload replayed through VectorReplayStream produces a
 * byte-identical schema-v2 JSON report to the live-generator run.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/trace_format.hh"
#include "tests/mutation.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_stream_decoder.hh"
#include "trace/trace_writer.hh"
#include "workloads/workload.hh"

using namespace bear;
using namespace bear::trace;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "beartrace-" + name;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Write a small multi-core trace from real generators. */
std::string
writeSampleTrace(const std::string &name, std::uint32_t cores,
                 std::uint64_t refs_per_core)
{
    const std::string path = tempPath(name);
    TraceMeta meta;
    meta.workload = "mcf";
    meta.seed = 0x5EED;
    meta.coreCount = cores;
    auto created = TraceWriter::create(path, meta);
    EXPECT_TRUE(created.hasValue());
    TraceWriter writer = std::move(created.value());
    for (CoreId c = 0; c < cores; ++c) {
        WorkloadStream stream(profileByName("mcf"),
                              0x5EED + 0x1000 * (c + 1), 0.015625);
        for (std::uint64_t i = 0; i < refs_per_core; ++i)
            EXPECT_TRUE(writer.append(c, stream.next()).hasValue());
    }
    EXPECT_TRUE(writer.finish().hasValue());
    return path;
}

/** A 2-core trace whose core 1 recorded nothing. */
std::string
writeIdleCoreTrace(const std::string &name)
{
    const std::string path = tempPath(name);
    TraceMeta meta;
    meta.workload = "mcf";
    meta.seed = 0x5EED;
    meta.coreCount = 2;
    auto created = TraceWriter::create(path, meta);
    EXPECT_TRUE(created.hasValue());
    TraceWriter writer = std::move(created.value());
    WorkloadStream stream(profileByName("mcf"), 0x5EED + 0x1000,
                          0.015625);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(writer.append(0, stream.next()).hasValue());
    EXPECT_TRUE(writer.finish().hasValue());
    return path;
}

/** Records of every core of @p trace. */
std::uint64_t
totalRecords(const LoadedTrace &trace)
{
    std::uint64_t n = 0;
    for (const auto &records : trace.coreRecords)
        n += records.size();
    return n;
}

/**
 * Load @p path; returns the verdict and, in @p records, the records
 * it handed out (none when it failed).
 */
Expected<bool, TraceError>
decodeAll(const std::string &path, std::uint64_t *records = nullptr)
{
    auto loaded = loadTrace(path);
    if (records)
        *records = loaded.hasValue() ? totalRecords(*loaded) : 0;
    if (!loaded.hasValue())
        return unexpected(loaded.error());
    return true;
}

} // namespace

TEST(TraceFormat, VarintRoundTripsEdgeValues)
{
    const std::uint64_t values[] = {0,  1,  127, 128, 300,
                                    UINT32_MAX,
                                    UINT64_MAX - 1, UINT64_MAX};
    for (const std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        const std::uint8_t *p = buf.data();
        std::uint64_t out = 0;
        ASSERT_TRUE(getVarint(&p, buf.data() + buf.size(), &out));
        EXPECT_EQ(out, v);
        EXPECT_EQ(p, buf.data() + buf.size());
    }
}

TEST(TraceFormat, VarintRejectsTruncationAndOverflow)
{
    // All continuation bits, no terminator: runs off the buffer.
    std::vector<std::uint8_t> endless(9, 0xFF);
    const std::uint8_t *p = endless.data();
    std::uint64_t out = 0;
    EXPECT_FALSE(
        getVarint(&p, endless.data() + endless.size(), &out));

    // A 10th byte with magnitude above bit 63 would overflow.
    std::vector<std::uint8_t> wide(10, 0xFF);
    wide.back() = 0x02;
    p = wide.data();
    EXPECT_FALSE(getVarint(&p, wide.data() + wide.size(), &out));
}

TEST(TraceFormat, Crc32MatchesKnownVector)
{
    // The classic check value: CRC32("123456789") = 0xCBF43926.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926U);
}

TEST(TraceWriterReader, RoundTripsExtremeRecords)
{
    const std::string path = tempPath("extremes");
    std::vector<MemRef> refs;
    MemRef ref;
    ref.vaddr = 0;
    ref.pc = UINT64_MAX;
    ref.instGap = 0;
    refs.push_back(ref);
    ref.vaddr = UINT64_MAX; // max positive delta
    ref.pc = 0;             // max negative delta
    ref.instGap = UINT32_MAX;
    ref.isWrite = true;
    refs.push_back(ref);
    ref.vaddr = 1; // near-max negative delta
    ref.dependent = true;
    refs.push_back(ref);

    TraceMeta meta;
    meta.workload = "extremes";
    meta.seed = 1;
    meta.coreCount = 1;
    auto created = TraceWriter::create(path, meta);
    ASSERT_TRUE(created.hasValue());
    TraceWriter writer = std::move(created.value());
    for (const MemRef &r : refs)
        ASSERT_TRUE(writer.append(0, r).hasValue());
    auto finished = writer.finish();
    ASSERT_TRUE(finished.hasValue());
    EXPECT_EQ(*finished, refs.size());

    auto loaded = loadTrace(path); // clean end, count check passed
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().message();
    EXPECT_EQ(loaded->meta.workload, "extremes");
    EXPECT_EQ(loaded->meta.recordCount, refs.size());
    ASSERT_EQ(loaded->coreRecords.size(), 1u); // every record: core 0
    const std::vector<MemRef> &decoded = loaded->coreRecords[0];
    ASSERT_EQ(decoded.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
        const MemRef &expected = refs[i];
        const MemRef &got = decoded[i];
        EXPECT_EQ(got.vaddr, expected.vaddr);
        EXPECT_EQ(got.pc, expected.pc);
        EXPECT_EQ(got.instGap, expected.instGap);
        EXPECT_EQ(got.isWrite, expected.isWrite);
        EXPECT_EQ(got.dependent, expected.dependent);
    }
}

TEST(TraceWriterReader, GeneratorStreamsRoundTripExactly)
{
    // Spans multiple chunks (kMaxChunkRecords = 4096 per core).
    const std::uint64_t refs_per_core = 6000;
    const std::string path =
        writeSampleTrace("generators", 2, refs_per_core);

    auto loaded = loadTrace(path);
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded->meta.recordCount, 2 * refs_per_core);

    // Replaying each core must reproduce the generator bit-exactly.
    for (CoreId c = 0; c < 2; ++c) {
        EXPECT_EQ(loaded->coreRecords[c].size(), refs_per_core);
        auto stream = std::make_unique<VectorReplayStream>(
            loaded->coreRecords[c]);
        WorkloadStream fresh(profileByName("mcf"),
                             0x5EED + 0x1000 * (c + 1), 0.015625);
        for (std::uint64_t i = 0; i < refs_per_core; ++i) {
            const MemRef expected = fresh.next();
            const MemRef got = stream->next();
            ASSERT_EQ(got.vaddr, expected.vaddr)
                << "core " << c << " record " << i;
            ASSERT_EQ(got.pc, expected.pc);
            ASSERT_EQ(got.instGap, expected.instGap);
            ASSERT_EQ(got.isWrite, expected.isWrite);
            ASSERT_EQ(got.dependent, expected.dependent);
        }
        EXPECT_EQ(stream->wrapCount(), 0u);
    }
}

TEST(TraceWriterReader, WriterRefusesCoreCountsOutsideTheFormatCap)
{
    TraceMeta meta;
    meta.workload = "cap";
    for (const std::uint32_t cores : {0U, kMaxCoreCount + 1}) {
        meta.coreCount = cores;
        auto created = TraceWriter::create(tempPath("cap"), meta);
        ASSERT_FALSE(created.hasValue()) << cores << " cores";
        EXPECT_EQ(created.error().kind, TraceErrorKind::BadHeader);
    }
}

TEST(TraceWriterReader, RecordingStreamTeesWithoutPerturbing)
{
    const std::string path = tempPath("tee");
    TraceMeta meta;
    meta.workload = "tee";
    meta.seed = 9;
    meta.coreCount = 1;
    auto created = TraceWriter::create(path, meta);
    ASSERT_TRUE(created.hasValue());
    TraceWriter writer = std::move(created.value());

    RecordingStream tee(
        std::make_unique<WorkloadStream>(profileByName("libquantum"),
                                         9, 0.015625),
        writer, 0);
    WorkloadStream control(profileByName("libquantum"), 9, 0.015625);
    std::vector<MemRef> seen;
    for (int i = 0; i < 500; ++i) {
        const MemRef ref = tee.next();
        const MemRef expected = control.next();
        EXPECT_EQ(ref.vaddr, expected.vaddr); // tee is transparent
        seen.push_back(ref);
    }
    ASSERT_TRUE(writer.finish().hasValue());

    auto loaded = loadTrace(path);
    ASSERT_TRUE(loaded.hasValue());
    VectorReplayStream stream(std::move(loaded->coreRecords[0]));
    for (const MemRef &expected : seen) {
        const MemRef got = stream.next();
        EXPECT_EQ(got.vaddr, expected.vaddr);
        EXPECT_EQ(got.instGap, expected.instGap);
    }
}

TEST(TraceReplay, WrapsAroundAtEndOfTrace)
{
    const std::string path = writeSampleTrace("wrap", 1, 100);
    auto stream = TraceReplayStream::open(path, 0);
    ASSERT_TRUE(stream.hasValue());

    std::vector<std::uint64_t> first_pass;
    for (int i = 0; i < 100; ++i)
        first_pass.push_back((*stream)->next().vaddr);
    EXPECT_EQ((*stream)->wrapCount(), 0u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ((*stream)->next().vaddr, first_pass[
            static_cast<std::size_t>(i)]);
    EXPECT_EQ((*stream)->wrapCount(), 1u);
}

TEST(TraceReplay, OutOfRangeCoreIsRejected)
{
    const std::string path = writeSampleTrace("core-range", 2, 50);
    auto stream = TraceReplayStream::open(path, 7);
    ASSERT_FALSE(stream.hasValue());
    EXPECT_EQ(stream.error().kind, TraceErrorKind::BadHeader);
    EXPECT_NE(stream.error().message().find("2 cores"),
              std::string::npos);
}

TEST(TraceCorruption, MissingFileIsIoError)
{
    const std::string path = tempPath("does-not-exist");
    auto loaded = loadTrace(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().kind, TraceErrorKind::Io);
    EXPECT_EQ(loaded.error().detail, "cannot open " + path);
}

TEST(TraceCorruption, EmptyAndTinyFilesAreTruncated)
{
    const std::string path = tempPath("tiny");
    spit(path, {});
    auto loaded = loadTrace(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().kind, TraceErrorKind::Truncated);

    spit(path, {'B', 'E', 'A', 'R'});
    loaded = loadTrace(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().kind, TraceErrorKind::Truncated);
}

TEST(TraceCorruption, WrongMagicIsRejected)
{
    const std::string sample = writeSampleTrace("magic", 1, 50);
    std::vector<char> bytes = slurp(sample);
    bytes[0] = 'X';
    const std::string path = tempPath("magic-bad");
    spit(path, bytes);
    auto loaded = loadTrace(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().kind, TraceErrorKind::BadMagic);
}

TEST(TraceCorruption, FutureVersionIsRejectedWithBothVersions)
{
    const std::string sample = writeSampleTrace("version", 1, 50);
    std::vector<char> bytes = slurp(sample);
    bytes[8] = static_cast<char>(bytes[8] + 3);
    const std::string path = tempPath("version-bad");
    spit(path, bytes);
    auto loaded = loadTrace(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().kind, TraceErrorKind::BadVersion);
    EXPECT_NE(loaded.error().message().find("v4"), std::string::npos);
    EXPECT_NE(loaded.error().message().find("v1"), std::string::npos);
}

TEST(TraceCorruption, FlippedHeaderByteFailsHeaderCrc)
{
    const std::string sample = writeSampleTrace("header-flip", 1, 50);
    std::vector<char> bytes = slurp(sample);
    bytes[16] = static_cast<char>(bytes[16] ^ 0x01); // seed field
    const std::string path = tempPath("header-flip-bad");
    spit(path, bytes);
    auto loaded = loadTrace(path);
    ASSERT_FALSE(loaded.hasValue());
    EXPECT_EQ(loaded.error().kind, TraceErrorKind::BadCrc);
}

TEST(TraceCorruption, FlippedChunkByteNamesChunkAndOffset)
{
    const std::string sample = writeSampleTrace("chunk-flip", 1, 50);
    std::vector<char> bytes = slurp(sample);
    // Flip a byte well inside the single chunk's payload.
    const std::size_t target = bytes.size() - 20;
    bytes[target] = static_cast<char>(bytes[target] ^ 0x80);
    const std::string path = tempPath("chunk-flip-bad");
    spit(path, bytes);

    std::uint64_t records = 0;
    auto r = decodeAll(path, &records);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::BadCrc);
    EXPECT_EQ(r.error().chunk, 0);
    EXPECT_GT(r.error().offset, 0u);
    EXPECT_EQ(records, 0u); // nothing decoded from the bad chunk
}

TEST(TraceCorruption, TruncationMidChunkIsNamed)
{
    const std::string sample = writeSampleTrace("truncate", 2, 200);
    const std::vector<char> bytes = slurp(sample);
    const std::string path = tempPath("truncate-bad");

    // Cut at several depths: inside the last chunk's payload, inside
    // a chunk header, and one byte short of the end.
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() - 30, bytes.size() / 2}) {
        spit(path,
             std::vector<char>(bytes.begin(),
                               bytes.begin()
                                   + static_cast<std::ptrdiff_t>(keep)));
        auto r = decodeAll(path);
        ASSERT_FALSE(r.hasValue()) << "kept " << keep << " bytes";
        EXPECT_TRUE(r.error().kind == TraceErrorKind::Truncated
                    || r.error().kind == TraceErrorKind::CountMismatch)
            << "kept " << keep << " bytes, got "
            << traceErrorKindName(r.error().kind);
    }
}

TEST(TraceCorruption, ChunkBoundaryTruncationFailsCountCheck)
{
    const std::string sample = writeSampleTrace("boundary", 1, 5000);
    const std::vector<char> bytes = slurp(sample);

    // Recover the first chunk's frame length from its header to cut
    // the file exactly between two chunks: framing stays intact, so
    // only the header's total record count can catch the loss.
    auto loaded = loadTrace(sample);
    ASSERT_TRUE(loaded.hasValue());
    const std::uint64_t header_size = kHeaderFixedBytes
        + loaded->meta.workload.size() + kChunkCrcBytes;
    const auto *head = reinterpret_cast<const std::uint8_t *>(
        bytes.data() + header_size);
    const std::uint64_t first_frame = kChunkHeaderBytes
        + getU32(head + 8) + kChunkCrcBytes;

    const std::string path = tempPath("boundary-bad");
    spit(path,
         std::vector<char>(bytes.begin(),
                           bytes.begin()
                               + static_cast<std::ptrdiff_t>(
                                   header_size + first_frame)));
    auto r = decodeAll(path);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::CountMismatch);
}

TEST(TraceCorruption, ReplayOpenValidatesForeignCoresChunks)
{
    // Corrupt core 1's data; opening a replay stream for core 0 must
    // still fail — the full-file validation pass covers every chunk.
    const std::string sample = writeSampleTrace("foreign", 2, 100);
    std::vector<char> bytes = slurp(sample);
    const std::size_t target = bytes.size() - 20; // core 1's chunk
    bytes[target] = static_cast<char>(bytes[target] ^ 0x10);
    const std::string path = tempPath("foreign-bad");
    spit(path, bytes);

    auto stream = TraceReplayStream::open(path, 0);
    ASSERT_FALSE(stream.hasValue());
    EXPECT_EQ(stream.error().kind, TraceErrorKind::BadCrc);
}

TEST(TraceCorruption, GarbageChunkHeaderIsBadChunkNotCrash)
{
    const std::string sample = writeSampleTrace("garbage", 1, 50);
    std::vector<char> bytes = slurp(sample);
    auto loaded = loadTrace(sample);
    ASSERT_TRUE(loaded.hasValue());
    const std::size_t header_size = kHeaderFixedBytes
        + loaded->meta.workload.size() + kChunkCrcBytes;

    // Absurd payload length field.
    std::vector<char> mutated = bytes;
    for (std::size_t i = 0; i < 4; ++i)
        mutated[header_size + 8 + i] = static_cast<char>(0xFF);
    const std::string path = tempPath("garbage-bad");
    spit(path, mutated);
    auto r = decodeAll(path);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::BadChunk);

    // Core id beyond the header's core count.
    mutated = bytes;
    mutated[header_size] = 5;
    spit(path, mutated);
    r = decodeAll(path);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.error().kind, TraceErrorKind::BadChunk);
}

namespace
{

/**
 * How one entry point settled on a byte image: accepted, or rejected
 * with an error kind, offset and chunk.  records counts the records
 * of the chunks decoded before the verdict.  Both entry points also
 * run the replay check that every core holds records.
 */
struct Verdict
{
    bool accepted = false;
    TraceErrorKind kind = TraceErrorKind::Io;
    std::uint64_t offset = 0;
    std::int64_t chunk = -1;
    std::uint64_t records = 0;

    bool operator==(const Verdict &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Verdict &v)
{
    if (v.accepted)
        return os << "accepted " << v.records << " records";
    return os << traceErrorKindName(v.kind) << " at offset " << v.offset
              << " (chunk " << v.chunk << ") after " << v.records
              << " records";
}

Verdict
verdictOf(const Expected<bool, TraceError> &result,
          std::uint64_t records)
{
    Verdict v;
    v.records = records;
    v.accepted = result.hasValue();
    if (!v.accepted) {
        v.kind = result.error().kind;
        v.offset = result.error().offset;
        v.chunk = result.error().chunk;
    }
    return v;
}

/** loadTrace of @p bytes written to a file. */
Verdict
fileVerdict(const std::vector<char> &bytes)
{
    // One scratch file per test: ctest runs the cases concurrently.
    const std::string path = tempPath(
        std::string("parity-")
        + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    spit(path, bytes);
    auto loaded = loadTrace(path);
    if (!loaded.hasValue())
        return verdictOf(unexpected(loaded.error()), 0);
    return verdictOf(checkEveryCoreHasRecords(loaded->coreRecords),
                     totalRecords(*loaded));
}

/** StreamingTraceDecoder fed @p bytes in @p slice-byte pieces. */
Verdict
streamVerdict(const std::vector<char> &bytes, std::size_t slice)
{
    StreamingTraceDecoder decoder;
    const auto *data = reinterpret_cast<const std::uint8_t *>(bytes.data());
    for (std::size_t at = 0; at < bytes.size(); at += slice) {
        const auto fed =
            decoder.feed(data + at, std::min(slice, bytes.size() - at));
        if (!fed.hasValue())
            return verdictOf(fed, decoder.recordsDecoded());
    }
    const auto finished = decoder.finish();
    if (!finished.hasValue())
        return verdictOf(finished, decoder.recordsDecoded());
    return verdictOf(checkEveryCoreHasRecords(decoder.takeCoreRecords()),
                     decoder.recordsDecoded());
}

/**
 * Both entry points must reach the same verdict on @p bytes: loadTrace
 * on a file, and the streaming decoder fed whole, in 1-byte slices
 * and in 7-byte slices.  A load that fails hands out no records, so
 * the file side is held to the stream's count only when it loaded;
 * the three slicings agree on it always.  Returns the stream verdict.
 */
Verdict
expectParity(const std::vector<char> &bytes, const std::string &label)
{
    const Verdict stream =
        streamVerdict(bytes, std::max<std::size_t>(bytes.size(), 1));
    for (const std::size_t slice : {std::size_t{1}, std::size_t{7}}) {
        EXPECT_EQ(streamVerdict(bytes, slice), stream)
            << label << ": stream fed in " << slice
            << "-byte slices disagrees with the stream fed whole";
    }
    const Verdict file = fileVerdict(bytes);
    Verdict expected = stream;
    if (!file.accepted && file.records == 0)
        expected.records = 0; // the load failed and handed out nothing
    EXPECT_EQ(file, expected)
        << label << ": loadTrace disagrees with the stream decoder";
    return stream;
}

/** Recompute the header CRC after a deliberate header-field edit. */
void
patchHeaderCrc(std::vector<char> &bytes)
{
    const std::size_t crc_at = kHeaderFixedBytes
        + static_cast<unsigned char>(bytes[kHeaderFixedBytes - 1]);
    const std::uint32_t crc = crc32(bytes.data(), crc_at);
    for (std::size_t byte = 0; byte < 4; ++byte)
        bytes[crc_at + byte] = static_cast<char>(crc >> (8 * byte));
}

/** Offset of the first chunk of a sample trace (its name is "mcf"). */
constexpr std::size_t kSampleHeaderBytes =
    kHeaderFixedBytes + 3 + kChunkCrcBytes;

} // namespace

TEST(TraceParity, EveryCorruptionSettlesAlikeOnBothEntryPoints)
{
    struct Case
    {
        std::string name;
        std::vector<char> bytes;
        std::optional<TraceErrorKind> kind; ///< nullopt: any rejection
        std::optional<std::uint64_t> offset;
    };
    const std::vector<char> two = slurp(writeSampleTrace("parity-2", 2, 200));
    const std::vector<char> long1 =
        slurp(writeSampleTrace("parity-long", 1, 5000));
    const auto edited = [&two](std::size_t at, char value) {
        std::vector<char> bytes = two;
        bytes[at] = value;
        return bytes;
    };
    const auto cut = [](const std::vector<char> &bytes, std::size_t keep) {
        return std::vector<char>(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    };

    std::vector<Case> cases;
    cases.push_back({"wrong magic", edited(0, 'X'),
                     TraceErrorKind::BadMagic, 0});
    cases.push_back({"future version",
                     edited(8, static_cast<char>(two[8] + 3)),
                     TraceErrorKind::BadVersion, 8});
    cases.push_back({"header CRC flip",
                     edited(16, static_cast<char>(two[16] ^ 0x01)),
                     TraceErrorKind::BadCrc, 0});
    cases.push_back({"chunk CRC flip",
                     edited(two.size() - 20,
                            static_cast<char>(two[two.size() - 20] ^ 0x80)),
                     TraceErrorKind::BadCrc, std::nullopt});
    for (const std::size_t keep :
         {two.size() - 1, two.size() - 30, two.size() / 2}) {
        cases.push_back({"truncated to " + std::to_string(keep) + " bytes",
                         cut(two, keep), std::nullopt, std::nullopt});
    }
    const std::uint64_t first_frame = kChunkHeaderBytes
        + getU32(reinterpret_cast<const std::uint8_t *>(long1.data())
                 + kSampleHeaderBytes + 8)
        + kChunkCrcBytes;
    cases.push_back({"chunk-boundary cut",
                     cut(long1, kSampleHeaderBytes + first_frame),
                     TraceErrorKind::CountMismatch,
                     kSampleHeaderBytes + first_frame});
    cases.push_back({"cut inside the workload name",
                     cut(two, kHeaderFixedBytes + 1),
                     TraceErrorKind::Truncated, kHeaderFixedBytes});
    cases.push_back({"cut inside the fixed header", cut(two, 4),
                     TraceErrorKind::Truncated, 0});
    std::vector<char> garbage = two;
    for (std::size_t i = 0; i < 4; ++i)
        garbage[kSampleHeaderBytes + 8 + i] = static_cast<char>(0xFF);
    cases.push_back({"garbage payload length", garbage,
                     TraceErrorKind::BadChunk, kSampleHeaderBytes});
    cases.push_back({"core id beyond the count",
                     edited(kSampleHeaderBytes, 5),
                     TraceErrorKind::BadChunk, kSampleHeaderBytes});
    std::vector<char> many_cores = two;
    for (std::size_t i = 0; i < 4; ++i)
        many_cores[12 + i] = static_cast<char>(0xFF);
    patchHeaderCrc(many_cores);
    cases.push_back({"core count above the cap", many_cores,
                     TraceErrorKind::BadHeader, 12});
    cases.push_back({"idle core", slurp(writeIdleCoreTrace("parity-idle")),
                     TraceErrorKind::CountMismatch, 0});

    for (const Case &c : cases) {
        const Verdict v = expectParity(c.bytes, c.name);
        EXPECT_FALSE(v.accepted) << c.name;
        if (c.kind) {
            EXPECT_EQ(v.kind, *c.kind)
                << c.name << ": got " << traceErrorKindName(v.kind);
        }
        if (c.offset) {
            EXPECT_EQ(v.offset, *c.offset) << c.name;
        }
    }

    // The pristine images are accepted alike, with every record.
    EXPECT_EQ(expectParity(two, "pristine 2-core").records, 400u);
    EXPECT_EQ(expectParity(long1, "pristine 1-core").records, 5000u);
}

TEST(TraceParity, SeededMutationsSettleAlikeOnBothEntryPoints)
{
    const std::vector<char> pristine =
        slurp(writeSampleTrace("parity-fuzz", 2, 300));
    const std::vector<std::uint8_t> master(pristine.begin(),
                                           pristine.end());
    test::SplitMix64 rng(0x7EACE5ULL);
    int rejected = 0;
    for (int round = 0; round < 300; ++round) {
        std::vector<std::uint8_t> bytes = test::mutate(master, rng);
        if (rng.below(2) == 0)
            bytes = test::mutate(std::move(bytes), rng);
        const Verdict v = expectParity(
            std::vector<char>(bytes.begin(), bytes.end()),
            "round " + std::to_string(round));
        rejected += v.accepted ? 0 : 1;
        if (::testing::Test::HasFailure())
            return;
    }
    // The loop must actually exercise rejections, not only survivors.
    EXPECT_GT(rejected, 200);
}

namespace
{

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 20000;
    options.measureRefsPerCore = 10000;
    options.workers = 1;
    return options;
}

/**
 * The headline guarantee: record a synthetic workload, replay it, and
 * the full schema-v2 JSON report is byte-identical to the live run.
 */
void
expectReportRoundTrip(const std::string &benchmark, DesignKind design)
{
    const RunnerOptions options = fastOptions();

    // Live run.
    Runner live(options);
    const std::string live_json =
        runResultToJson(live.runRate(design, benchmark));

    // Record through the runner's own tee (BEAR_TRACE_OUT path).
    const std::string path = tempPath("roundtrip-" + benchmark);
    RunnerOptions recording = options;
    recording.traceOutPath = path;
    Runner recorder(recording);
    const std::string recorded_json =
        runResultToJson(recorder.runRate(design, benchmark));
    EXPECT_EQ(live_json, recorded_json)
        << "the recording tee perturbed the run";

    // Replay from the recorded corpus.
    RunnerOptions replaying = options;
    replaying.traceInPath = path;
    Runner replayer(replaying);
    const std::string replay_json =
        runResultToJson(replayer.runRate(design, benchmark));
    EXPECT_EQ(live_json, replay_json)
        << benchmark << " replay diverged from the live generator";
}

} // namespace

TEST(TraceRoundTrip, BearReportByteIdenticalMcf)
{
    expectReportRoundTrip("mcf", DesignKind::Bear);
}

TEST(TraceRoundTrip, AlloyReportByteIdenticalLibquantum)
{
    expectReportRoundTrip("libquantum", DesignKind::Alloy);
}

TEST(TraceRoundTrip, ReplayedTraceCarriesRunnersMetadata)
{
    const RunnerOptions options = fastOptions();
    const std::string path = tempPath("metadata");
    RunnerOptions recording = options;
    recording.traceOutPath = path;
    Runner recorder(recording);
    recorder.runRate(DesignKind::Alloy, "wrf");

    auto loaded = loadTrace(path);
    ASSERT_TRUE(loaded.hasValue());
    EXPECT_EQ(loaded->meta.workload, "wrf");
    EXPECT_EQ(loaded->meta.seed, options.seed);
    EXPECT_EQ(loaded->meta.coreCount, options.cores);
    EXPECT_EQ(loaded->meta.recordCount,
              (options.warmupRefsPerCore + options.measureRefsPerCore)
                  * options.cores);
}

TEST(TraceRoundTrip, ReplayRejectsCoreCountMismatch)
{
    const std::string path = writeSampleTrace("cores-mismatch", 2, 50);
    RunnerOptions options = fastOptions();
    options.traceInPath = path;
    // The preflight in the Runner constructor (DESIGN.md §11) rejects
    // the corpus before any simulation — or worker thread — starts.
    EXPECT_EXIT(Runner runner(options),
                ::testing::ExitedWithCode(1), "recorded with 2 cores");
}

TEST(TraceRoundTrip, ReplayRejectsIdleCoreBeforeSimulation)
{
    RunnerOptions options = fastOptions();
    options.cores = 2;
    options.traceInPath = writeIdleCoreTrace("idle-corpus");
    EXPECT_EXIT(Runner runner(options), ::testing::ExitedWithCode(1),
                "trace holds no records for core 1");
}

TEST(TraceRoundTrip, CorpusIsReadOnceAndSharedByEveryWorker)
{
    RunnerOptions options = fastOptions();
    options.warmupRefsPerCore = 4000;
    options.measureRefsPerCore = 2000;
    const std::string path = tempPath("read-once");
    RunnerOptions recording = options;
    recording.traceOutPath = path;
    Runner(recording).runRate(DesignKind::Alloy, "mcf");
    const std::vector<char> corpus = slurp(path);

    std::vector<RunJob> jobs;
    for (const DesignKind design : {DesignKind::Alloy, DesignKind::Bear}) {
        for (const char *label : {"mcf", "wrf"}) {
            RunJob job;
            job.design = design;
            job.rateBenchmark = label;
            jobs.push_back(job);
        }
    }
    const auto reportsOf = [&jobs](Runner &runner) {
        std::vector<std::string> reports;
        for (const RunOutcome &outcome : runner.runAll(jobs)) {
            EXPECT_TRUE(outcome.hasValue()) << outcome.error().message();
            reports.push_back(outcome.hasValue()
                                  ? runResultToJson(*outcome)
                                  : std::string());
        }
        return reports;
    };

    RunnerOptions replaying = options;
    replaying.traceInPath = path;
    Runner present(replaying);
    const std::vector<std::string> expected = reportsOf(present);

    // A Runner reads its corpus once, in the constructor: deleting the
    // file afterwards changes nothing, with one worker or with four
    // sharing the decoded records.
    for (const std::uint32_t workers : {1U, 4U}) {
        const std::string copy =
            tempPath("read-once-" + std::to_string(workers));
        spit(copy, corpus);
        replaying.traceInPath = copy;
        replaying.workers = workers;
        Runner runner(replaying);
        ASSERT_EQ(std::remove(copy.c_str()), 0);
        EXPECT_EQ(reportsOf(runner), expected)
            << workers << " worker(s)";
    }
}

TEST(TraceRoundTrip, ReplayRejectsMissingCorpusBeforeSimulation)
{
    RunnerOptions options = fastOptions();
    options.traceInPath = tempPath("no-such-corpus");
    EXPECT_EXIT(Runner runner(options),
                ::testing::ExitedWithCode(1), "BEAR_TRACE_IN");
}

TEST(TraceRoundTrip, ReplayRejectsCorruptCorpusBeforeSimulation)
{
    const std::string path = tempPath("corrupt-corpus");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a beartrace file at all............";
    }
    RunnerOptions options = fastOptions();
    options.traceInPath = path;
    EXPECT_EXIT(Runner runner(options),
                ::testing::ExitedWithCode(1), "BEAR_TRACE_IN");
}

TEST(TraceEnv, TracePathsParsedAndEmptyRejected)
{
    setenv("BEAR_TRACE_IN", "/tmp/in.beartrace", 1);
    setenv("BEAR_TRACE_OUT", "/tmp/out.beartrace", 1);
    auto options = RunnerOptions::tryFromEnv();
    ASSERT_TRUE(options.hasValue());
    EXPECT_EQ(options->traceInPath, "/tmp/in.beartrace");
    EXPECT_EQ(options->traceOutPath, "/tmp/out.beartrace");

    setenv("BEAR_TRACE_IN", "", 1);
    const auto empty = RunnerOptions::tryFromEnv();
    ASSERT_FALSE(empty.hasValue());
    EXPECT_EQ(empty.error().variable, "BEAR_TRACE_IN");
    unsetenv("BEAR_TRACE_IN");
    unsetenv("BEAR_TRACE_OUT");
}
