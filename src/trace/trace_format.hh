/**
 * @file
 * On-disk binary trace format shared by TraceWriter and TraceReader
 * (see DESIGN.md §10 for the full specification).
 *
 * A .beartrace file is a versioned header followed by a sequence of
 * self-contained chunks.  Each chunk carries the references of exactly
 * one core, delta-encoded against the previous record *of that chunk*
 * (LEB128 varints, zigzag for the signed address/PC deltas, packed
 * flag bits), and is sealed with a CRC32 footer.  Self-contained
 * chunks buy two properties cheaply: a replay stream can skip foreign
 * cores' chunks without decoding them, and a single corrupted chunk is
 * reported by index and byte offset instead of desynchronising the
 * rest of the file.
 *
 * Every decision about the on-disk layout lives here: the encoder and
 * the one validating parser (parseHeader, parseChunkFrame,
 * decodeChunk).  TraceReader and StreamingTraceDecoder are I/O shells
 * around it that only attach offsets and chunk indices to errors.
 *
 * Everything here is dependency-free and byte-order explicit
 * (little-endian on disk regardless of host), so traces recorded on
 * one machine replay bit-exactly on another.
 */

#ifndef BEAR_TRACE_TRACE_FORMAT_HH
#define BEAR_TRACE_TRACE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.hh"
#include "common/types.hh"
#include "core/trace.hh"

namespace bear::trace
{

/** First 8 bytes of every trace file. */
constexpr unsigned char kMagic[8] = {'B', 'E', 'A', 'R',
                                     'T', 'R', 'C', '\0'};

/** Bumped whenever the on-disk layout changes shape. */
constexpr std::uint32_t kFormatVersion = 1;

/** Records per chunk before the writer seals it. */
constexpr std::uint32_t kMaxChunkRecords = 4096;

/**
 * Upper bound on a chunk's encoded payload.  The worst case record is
 * 1 flag byte + two 10-byte varints + one 5-byte varint = 26 bytes;
 * 4096 * 26 = 106496, rounded up to a power of two so a corrupted
 * length field is rejected before any allocation based on it.
 */
constexpr std::uint32_t kMaxChunkPayloadBytes = 1U << 17;

/** Workload names longer than this do not fit the u8 length field. */
constexpr std::size_t kMaxWorkloadNameLength = 255;

/**
 * Format-wide cap on the header's core count.  Readers size per-core
 * state from that field, so a larger count is BadHeader before any
 * such state exists (and TraceWriter refuses to write one).
 */
constexpr std::uint32_t kMaxCoreCount = 4096;

/** Per-record flag bits; the remaining bits must read back as zero. */
constexpr std::uint8_t kFlagWrite = 1U << 0;
constexpr std::uint8_t kFlagDependent = 1U << 1;
constexpr std::uint8_t kFlagMask = kFlagWrite | kFlagDependent;

/** Fixed-size prefix of the header (before the workload name). */
constexpr std::size_t kHeaderFixedBytes =
    sizeof(kMagic) + 4 /*version*/ + 4 /*coreCount*/ + 8 /*seed*/
    + 8 /*recordCount*/ + 1 /*nameLen*/;

/** Chunk frame: coreId + recordCount + payloadBytes, then payload,
 *  then the CRC32 of everything before it. */
constexpr std::size_t kChunkHeaderBytes = 12;
constexpr std::size_t kChunkCrcBytes = 4;

/** Longest possible header: fixed prefix, 255-byte name, CRC32. */
constexpr std::size_t kMaxHeaderBytes =
    kHeaderFixedBytes + kMaxWorkloadNameLength + kChunkCrcBytes;

/** What went wrong while opening or decoding a trace file. */
enum class TraceErrorKind : std::uint8_t
{
    Io,            ///< open/read/write/seek failed
    BadMagic,      ///< not a .beartrace file
    BadVersion,    ///< format version this build cannot decode
    BadHeader,     ///< header fields out of domain
    BadChunk,      ///< chunk frame or record encoding out of domain
    BadCrc,        ///< stored checksum does not match the bytes
    Truncated,     ///< file ends inside a header or chunk
    CountMismatch, ///< decoded records != header record count
};

/** Stable lower-case name for messages and tests. */
const char *traceErrorKindName(TraceErrorKind kind);

/**
 * A rejected trace file: what failed, where (byte offset and, for
 * chunk-level failures, the chunk index), and why.  Carried through
 * Expected<_, TraceError> so a bad file is a loud diagnostic, never a
 * crash or a silently empty replay.
 */
struct TraceError
{
    TraceErrorKind kind = TraceErrorKind::Io;
    std::string detail;
    std::uint64_t offset = 0; ///< byte offset of the failing structure
    std::int64_t chunk = -1;  ///< chunk index, -1 for header/file level

    /** `bad-crc at offset 152 (chunk 3): ...` — ready to print. */
    std::string message() const;
};

/** Header metadata: who recorded the trace and how much it holds. */
struct TraceMeta
{
    std::string workload;         ///< profile/mix name, <= 255 bytes
    std::uint64_t seed = 0;       ///< base seed of the recorded run
    std::uint32_t coreCount = 0;  ///< streams interleaved in the file
    std::uint64_t recordCount = 0; ///< total records across all cores
};

/** CRC32 (IEEE reflected, poly 0xEDB88320) of @p size bytes. */
std::uint32_t crc32(const void *data, std::size_t size);

/** Append @p v little-endian. */
void putU32(std::vector<std::uint8_t> &out, std::uint32_t v);
void putU64(std::vector<std::uint8_t> &out, std::uint64_t v);

/** Read little-endian from a raw buffer (caller checks bounds). */
std::uint32_t getU32(const std::uint8_t *p);
std::uint64_t getU64(const std::uint8_t *p);

/** Append an unsigned LEB128 varint. */
void putVarint(std::vector<std::uint8_t> &out, std::uint64_t v);

/**
 * Decode an unsigned LEB128 varint from [*p, end); advances *p past
 * the consumed bytes.  False when the varint runs off the buffer or
 * would overflow 64 bits — the caller turns that into a BadChunk.
 */
bool getVarint(const std::uint8_t **p, const std::uint8_t *end,
               std::uint64_t *out);

/** Zigzag-fold a signed delta so small magnitudes encode small. */
constexpr std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1)
        ^ static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzag(). */
constexpr std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

static_assert(unzigzag(zigzag(0)) == 0);
static_assert(unzigzag(zigzag(-1)) == -1);
static_assert(unzigzag(zigzag(1)) == 1);
static_assert(unzigzag(zigzag(INT64_MIN)) == INT64_MIN);
static_assert(unzigzag(zigzag(INT64_MAX)) == INT64_MAX);

/** Serialise @p meta into the on-disk header (including its CRC). */
std::vector<std::uint8_t> encodeHeader(const TraceMeta &meta);

/** A validated header and its encoded size (the first chunk's offset). */
struct ParsedHeader
{
    TraceMeta meta;
    std::size_t size = 0;
};

/**
 * Validate the header in the first @p available bytes at @p bytes:
 * magic, version and core count (in 1..kMaxCoreCount) once the fixed
 * prefix is present, then the header CRC.  std::nullopt means more
 * bytes are needed; errors carry the failing field's offset.
 */
[[nodiscard]] Expected<std::optional<ParsedHeader>, TraceError>
parseHeader(const std::uint8_t *bytes, std::size_t available);

/** A chunk's frame header: whose records, how many, how long. */
struct ChunkFrame
{
    CoreId core = 0;
    std::uint32_t records = 0;
    std::uint32_t payloadBytes = 0;

    /** Frame header + payload + CRC32. */
    std::size_t size() const
    {
        return kChunkHeaderBytes + payloadBytes + kChunkCrcBytes;
    }
};

/**
 * Validate the frame header at @p head against @p meta: core below
 * the core count, 1..kMaxChunkRecords records, 1..kMaxChunkPayloadBytes
 * of payload.  Reads only kChunkHeaderBytes, so a filtered reader can
 * skip foreign chunks unread.  Errors from this and decodeChunk()
 * carry no offset or chunk index; the caller attaches them.
 */
[[nodiscard]] Expected<ChunkFrame, TraceError>
parseChunkFrame(const std::uint8_t *head, const TraceMeta &meta);

/**
 * Verify the CRC32 of the frame.size() bytes at @p bytes, then append
 * the chunk's records to @p out (left as it was on failure).
 */
[[nodiscard]] Expected<bool, TraceError>
decodeChunk(const std::uint8_t *bytes, const ChunkFrame &frame,
            std::vector<MemRef> &out);

/** The input ended after @p available bytes of an unfinished header. */
TraceError truncatedHeaderError(std::size_t available);

/** The input ended after @p available bytes of an unfinished chunk. */
TraceError truncatedChunkError(std::uint64_t available);

/** The input ended cleanly but holds @p seen != meta.recordCount. */
TraceError countMismatchError(const TraceMeta &meta, std::uint64_t seen);

} // namespace bear::trace

#endif // BEAR_TRACE_TRACE_FORMAT_HH
