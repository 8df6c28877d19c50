#include "trace/trace_format.hh"

#include <array>
#include <cstring>

#include "common/log.hh"

namespace bear::trace
{

namespace
{

/** Reflected CRC32 lookup table, built once at compile time. */
constexpr std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        table[n] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = makeCrcTable();

} // namespace

const char *
traceErrorKindName(TraceErrorKind kind)
{
    switch (kind) {
      case TraceErrorKind::Io: return "io-error";
      case TraceErrorKind::BadMagic: return "bad-magic";
      case TraceErrorKind::BadVersion: return "bad-version";
      case TraceErrorKind::BadHeader: return "bad-header";
      case TraceErrorKind::BadChunk: return "bad-chunk";
      case TraceErrorKind::BadCrc: return "bad-crc";
      case TraceErrorKind::Truncated: return "truncated";
      case TraceErrorKind::CountMismatch: return "count-mismatch";
    }
    bear_panic("unreachable TraceErrorKind ",
               static_cast<int>(kind));
}

std::string
TraceError::message() const
{
    std::string out = traceErrorKindName(kind);
    out += " at offset " + std::to_string(offset);
    if (chunk >= 0)
        out += " (chunk " + std::to_string(chunk) + ")";
    out += ": " + detail;
    return out;
}

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xFFFFFFFFU;
    for (std::size_t i = 0; i < size; ++i)
        c = kCrcTable[(c ^ p[i]) & 0xFFU] ^ (c >> 8);
    return c ^ 0xFFFFFFFFU;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<std::uint8_t>(v >> shift));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int byte = 0; byte < 4; ++byte)
        v |= static_cast<std::uint32_t>(p[byte]) << (8 * byte);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int byte = 0; byte < 8; ++byte)
        v |= static_cast<std::uint64_t>(p[byte]) << (8 * byte);
    return v;
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80U);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
getVarint(const std::uint8_t **p, const std::uint8_t *end,
          std::uint64_t *out)
{
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (*p == end)
            return false; // ran off the payload mid-varint
        const std::uint8_t byte = *(*p)++;
        // The 10th byte holds bit 63 only: anything above it would
        // overflow, which a well-formed writer never produces.
        if (shift == 63 && (byte & 0x7EU))
            return false;
        v |= static_cast<std::uint64_t>(byte & 0x7FU) << shift;
        if (!(byte & 0x80U)) {
            *out = v;
            return true;
        }
    }
    return false; // continuation bit set on the 10th byte
}

std::vector<std::uint8_t>
encodeHeader(const TraceMeta &meta)
{
    bear_assert(meta.workload.size() <= kMaxWorkloadNameLength,
                "workload name too long for the trace header: ",
                meta.workload.size(), " bytes");
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderFixedBytes + meta.workload.size()
                + kChunkCrcBytes);
    out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
    putU32(out, kFormatVersion);
    putU32(out, meta.coreCount);
    putU64(out, meta.seed);
    putU64(out, meta.recordCount);
    out.push_back(static_cast<std::uint8_t>(meta.workload.size()));
    out.insert(out.end(), meta.workload.begin(), meta.workload.end());
    putU32(out, crc32(out.data(), out.size()));
    return out;
}

Expected<std::optional<ParsedHeader>, TraceError>
parseHeader(const std::uint8_t *bytes, std::size_t available)
{
    if (available < kHeaderFixedBytes)
        return std::optional<ParsedHeader>();
    if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
        return unexpected(TraceError{TraceErrorKind::BadMagic,
                                     "not .beartrace data", 0, -1});
    }
    const std::uint32_t version = getU32(bytes + 8);
    if (version != kFormatVersion) {
        return unexpected(TraceError{
            TraceErrorKind::BadVersion,
            "trace is format v" + std::to_string(version) +
                ", this build reads v" + std::to_string(kFormatVersion),
            8, -1});
    }
    ParsedHeader header;
    TraceMeta &meta = header.meta;
    meta.coreCount = getU32(bytes + 12);
    meta.seed = getU64(bytes + 16);
    meta.recordCount = getU64(bytes + 24);
    if (meta.coreCount == 0 || meta.coreCount > kMaxCoreCount) {
        return unexpected(TraceError{
            TraceErrorKind::BadHeader,
            "core count " + std::to_string(meta.coreCount) +
                " outside 1.." + std::to_string(kMaxCoreCount),
            12, -1});
    }
    const std::size_t name_len = bytes[kHeaderFixedBytes - 1];
    header.size = kHeaderFixedBytes + name_len + kChunkCrcBytes;
    if (available < header.size)
        return std::optional<ParsedHeader>();
    const std::size_t crc_at = header.size - kChunkCrcBytes;
    if (getU32(bytes + crc_at) != crc32(bytes, crc_at)) {
        return unexpected(TraceError{
            TraceErrorKind::BadCrc, "header checksum mismatch", 0, -1});
    }
    meta.workload.assign(
        reinterpret_cast<const char *>(bytes) + kHeaderFixedBytes,
        name_len);
    return std::optional<ParsedHeader>(std::move(header));
}

Expected<ChunkFrame, TraceError>
parseChunkFrame(const std::uint8_t *head, const TraceMeta &meta)
{
    ChunkFrame frame;
    frame.core = getU32(head);
    frame.records = getU32(head + 4);
    frame.payloadBytes = getU32(head + 8);
    if (frame.core >= meta.coreCount) {
        return unexpected(TraceError{
            TraceErrorKind::BadChunk,
            "chunk claims core " + std::to_string(frame.core) + " of a " +
                std::to_string(meta.coreCount) + "-core trace"});
    }
    if (frame.records == 0 || frame.records > kMaxChunkRecords) {
        return unexpected(TraceError{
            TraceErrorKind::BadChunk,
            "chunk record count " + std::to_string(frame.records) +
                " outside 1.." + std::to_string(kMaxChunkRecords)});
    }
    if (frame.payloadBytes == 0
        || frame.payloadBytes > kMaxChunkPayloadBytes) {
        return unexpected(TraceError{
            TraceErrorKind::BadChunk,
            "chunk payload size " + std::to_string(frame.payloadBytes) +
                " outside 1.." + std::to_string(kMaxChunkPayloadBytes)});
    }
    return frame;
}

Expected<bool, TraceError>
decodeChunk(const std::uint8_t *bytes, const ChunkFrame &frame,
            std::vector<MemRef> &out)
{
    const std::size_t crc_at = frame.size() - kChunkCrcBytes;
    const std::uint32_t stored = getU32(bytes + crc_at);
    const std::uint32_t computed = crc32(bytes, crc_at);
    if (stored != computed) {
        return unexpected(TraceError{
            TraceErrorKind::BadCrc,
            "chunk checksum mismatch (stored " + std::to_string(stored) +
                ", computed " + std::to_string(computed) + ")"});
    }

    const std::size_t first = out.size();
    const auto reject = [&](std::string detail) {
        out.resize(first);
        return unexpected(
            TraceError{TraceErrorKind::BadChunk, std::move(detail)});
    };
    const std::uint8_t *p = bytes + kChunkHeaderBytes;
    const std::uint8_t *end = p + frame.payloadBytes;
    std::uint64_t prev_vaddr = 0;
    std::uint64_t prev_pc = 0;
    for (std::uint32_t i = 0; i < frame.records; ++i) {
        if (p == end) {
            return reject("payload ends after " + std::to_string(i) +
                          " of " + std::to_string(frame.records) +
                          " records");
        }
        const std::uint8_t flags = *p++;
        if (flags & static_cast<std::uint8_t>(~kFlagMask)) {
            return reject("reserved flag bits set in record " +
                          std::to_string(i));
        }
        std::uint64_t vaddr_zz = 0;
        std::uint64_t pc_zz = 0;
        std::uint64_t gap = 0;
        if (!getVarint(&p, end, &vaddr_zz)
            || !getVarint(&p, end, &pc_zz)
            || !getVarint(&p, end, &gap)) {
            return reject("malformed varint in record " +
                          std::to_string(i));
        }
        if (gap > UINT32_MAX) {
            return reject("instruction gap overflows 32 bits in record " +
                          std::to_string(i));
        }
        prev_vaddr += static_cast<std::uint64_t>(unzigzag(vaddr_zz));
        prev_pc += static_cast<std::uint64_t>(unzigzag(pc_zz));
        MemRef ref;
        ref.vaddr = prev_vaddr;
        ref.pc = prev_pc;
        ref.instGap = static_cast<std::uint32_t>(gap);
        ref.isWrite = (flags & kFlagWrite) != 0;
        ref.dependent = (flags & kFlagDependent) != 0;
        out.push_back(ref);
    }
    if (p != end) {
        return reject(std::to_string(end - p) +
                      " trailing bytes after the last record");
    }
    return true;
}

TraceError
truncatedHeaderError(std::size_t available)
{
    if (available < kHeaderFixedBytes) {
        return TraceError{TraceErrorKind::Truncated,
                          "trace ends inside the fixed header (" +
                              std::to_string(available) + " of " +
                              std::to_string(kHeaderFixedBytes) +
                              " bytes)",
                          0, -1};
    }
    return TraceError{
        TraceErrorKind::Truncated,
        "trace ends inside the workload name / header checksum",
        kHeaderFixedBytes, -1};
}

TraceError
truncatedChunkError(std::uint64_t available)
{
    return TraceError{TraceErrorKind::Truncated,
                      "trace ends inside a chunk (" +
                          std::to_string(available) +
                          " bytes of an unfinished frame)"};
}

TraceError
countMismatchError(const TraceMeta &meta, std::uint64_t seen)
{
    return TraceError{TraceErrorKind::CountMismatch,
                      "header promises " +
                          std::to_string(meta.recordCount) +
                          " records, chunks hold " +
                          std::to_string(seen) +
                          " (unfinished or truncated recording?)"};
}

} // namespace bear::trace
