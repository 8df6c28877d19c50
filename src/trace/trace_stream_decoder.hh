/**
 * @file
 * Incremental .beartrace decoding: the one path from trace bytes to
 * per-core records.
 *
 * feed() StreamingTraceDecoder any prefix of a .beartrace byte stream
 * and it validates and decodes exactly as much as has arrived —
 * header first, then chunk frames — accumulating records per core.
 * finish() runs the end-of-stream checks (nothing buffered
 * mid-structure, decoded records match the header's record count).
 * Socket uploads (src/serve) feed it however the bytes arrive;
 * loadTrace (trace_reader.hh) feeds it a file in fixed slices.
 *
 * The checks are trace_format's one parser (the core count is capped
 * before per-core vectors exist, chunk lengths are bounded before any
 * allocation).  This class only buffers bytes and stamps errors with
 * the failing chunk's stream offset and index, so the same bytes get
 * the same kind, offset, chunk and wording however they were sliced.
 * Bytes are consumed by a read offset and the buffer is compacted once
 * per feed(), so one large feed costs linear time.
 */

#ifndef BEAR_TRACE_TRACE_STREAM_DECODER_HH
#define BEAR_TRACE_TRACE_STREAM_DECODER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/expected.hh"
#include "core/trace.hh"
#include "trace/trace_format.hh"

namespace bear::trace
{

/** Push-model .beartrace decoder over an in-memory reassembly buffer. */
class StreamingTraceDecoder
{
  public:
    /**
     * Consume @p size bytes of the stream.  Decodes every structure
     * that is now complete; bytes of a still-incomplete header or
     * chunk are buffered for the next feed().  The first malformed
     * structure fails the decoder permanently (subsequent calls
     * return the same error).
     */
    [[nodiscard]] Expected<bool, TraceError>
    feed(const std::uint8_t *data, std::size_t size);

    /**
     * End of stream: fails with Truncated when bytes are buffered
     * inside an unfinished structure, and with CountMismatch when the
     * decoded total differs from the header's record count.
     */
    [[nodiscard]] Expected<bool, TraceError> finish();

    const TraceMeta &meta() const { return meta_; }

    /** Move the decoded records out (decoder keeps meta and counts). */
    std::vector<std::vector<MemRef>> takeCoreRecords()
    {
        return std::move(core_records_);
    }

    std::uint64_t recordsDecoded() const { return records_seen_; }
    std::uint64_t chunksDecoded() const { return chunk_index_; }

  private:
    enum class State : std::uint8_t
    {
        Header, ///< waiting for the fixed header + name + CRC
        Chunks, ///< decoding chunk frames
        Failed, ///< first error is sticky
    };

    /** Decode every complete structure in buffer_ past pos_. */
    [[nodiscard]] Expected<bool, TraceError> advance();

    /** Stamp @p error with the current chunk's offset and index. */
    TraceError attribute(TraceError error) const;
    Unexpected<TraceError> fail(TraceError error);

    /** Step the read offset past @p bytes of decoded structure. */
    void consume(std::size_t bytes);
    std::size_t buffered() const { return buffer_.size() - pos_; }

    State state_ = State::Header;
    std::vector<std::uint8_t> buffer_; ///< stream bytes; [pos_, end) unread
    std::size_t pos_ = 0;        ///< read offset into buffer_
    std::uint64_t consumed_ = 0; ///< stream offset of buffer_[pos_]
    TraceMeta meta_;
    std::vector<std::vector<MemRef>> core_records_;
    std::uint64_t records_seen_ = 0;
    std::uint64_t chunk_index_ = 0;
    TraceError sticky_; ///< the first failure, replayed forever
};

/**
 * Replay needs a stream for every core: fails with CountMismatch
 * (`trace holds no records for core N`) naming the first core of
 * @p coreRecords that holds no records.
 */
[[nodiscard]] Expected<bool, TraceError> checkEveryCoreHasRecords(
    const std::vector<std::vector<MemRef>> &coreRecords);

} // namespace bear::trace

#endif // BEAR_TRACE_TRACE_STREAM_DECODER_HH
