/**
 * @file
 * Consuming .beartrace files.
 *
 * TraceReader validates eagerly and decodes lazily: open() validates
 * the header, and next() verifies each chunk's frame and CRC32 before
 * decoding a single record from it.  The checks are trace_format's one
 * parser, shared with StreamingTraceDecoder; this class only reads
 * bytes and stamps errors with the failing chunk's offset and index.
 * A truncated download, a flipped bit or a newer format version is
 * the same loud diagnostic here as on a socket — never a crash or a
 * quietly wrong replay.
 *
 * TraceReplayStream makes a recorded core a drop-in RefStream: it
 * filters the file down to one core's chunks (foreign chunks are
 * skipped without decoding) and wraps around at the end of the trace,
 * so a short recording can still feed an arbitrarily long run.  The
 * whole file is validated once at open(), so corruption cannot
 * surface later as a mid-simulation fatal.
 */

#ifndef BEAR_TRACE_TRACE_READER_HH
#define BEAR_TRACE_TRACE_READER_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hh"
#include "common/types.hh"
#include "core/trace.hh"
#include "trace/trace_format.hh"

namespace bear::trace
{

/** Sequential, validating decoder for one trace file. */
class TraceReader
{
  public:
    /** No core filter: next() yields every core's records. */
    static constexpr CoreId kAllCores = ~CoreId{0};

    /** Open @p path and validate the header. */
    [[nodiscard]] static Expected<TraceReader, TraceError>
    open(const std::string &path);

    TraceReader(TraceReader &&) = default;
    TraceReader &operator=(TraceReader &&) = default;
    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const TraceMeta &meta() const { return meta_; }

    /**
     * Yield only records of @p core; other cores' chunks are skipped
     * by their frame (payloads stay unread, so their CRCs are not
     * checked — validate with an unfiltered pass first if the file is
     * untrusted).  Resets the read position.
     */
    void filterCore(CoreId core);

    /**
     * Decode the next record into @p out (and its core into @p core).
     * Returns true on a record, false at the clean end of the trace
     * (which includes the total-record-count cross-check), or a
     * TraceError on any malformed structure.
     */
    [[nodiscard]] Expected<bool, TraceError> next(MemRef *out,
                                                    CoreId *core);

    /** Rewind to the first chunk (replay wrap-around). */
    void rewind();

    /** Chunks whose frames were seen so far (decoded or skipped). */
    std::uint64_t chunksSeen() const { return chunks_seen_; }

  private:
    TraceReader(std::ifstream in, TraceMeta meta,
                std::uint64_t file_size,
                std::uint64_t first_chunk_offset);

    /** Load and decode the next matching chunk into buffer_. */
    [[nodiscard]] Expected<bool, TraceError> loadChunk();

    /** Stamp @p error with the current chunk's offset and index. */
    TraceError attribute(TraceError error) const;

    std::ifstream in_;
    TraceMeta meta_;
    std::uint64_t file_size_ = 0;
    std::uint64_t first_chunk_offset_ = 0;

    CoreId filter_ = kAllCores;
    std::uint64_t position_ = 0;    ///< next unread byte offset
    std::uint64_t chunk_index_ = 0; ///< index of the chunk at position_
    std::uint64_t chunks_seen_ = 0;
    std::uint64_t records_seen_ = 0; ///< decoded + skipped-by-frame

    std::vector<MemRef> buffer_; ///< decoded records of one chunk
    std::size_t buffer_pos_ = 0;
    CoreId buffer_core_ = 0;
};

/** A recorded core as an endless RefStream (drop-in workload). */
class TraceReplayStream : public RefStream
{
  public:
    /**
     * Open @p path, fully validate it (one decoding pass over every
     * chunk), and position a filtered reader on @p core's records.
     * Fails if the file is malformed or holds no records for the core.
     */
    [[nodiscard]] static
    Expected<std::unique_ptr<TraceReplayStream>, TraceError>
    open(const std::string &path, CoreId core);

    /** The next recorded reference; wraps at the end of the trace. */
    MemRef next() override;

    const TraceMeta &meta() const { return reader_.meta(); }

    /** Records this core has in one pass of the file. */
    std::uint64_t coreRecords() const { return core_records_; }

    /** How many times the stream has wrapped around so far. */
    std::uint64_t wrapCount() const { return wrap_count_; }

  private:
    TraceReplayStream(TraceReader reader, std::uint64_t core_records)
        : reader_(std::move(reader)), core_records_(core_records)
    {
    }

    TraceReader reader_;
    std::uint64_t core_records_;
    std::uint64_t wrap_count_ = 0;
};

} // namespace bear::trace

#endif // BEAR_TRACE_TRACE_READER_HH
