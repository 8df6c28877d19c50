/**
 * @file
 * Incremental .beartrace decoding for byte streams (sockets).
 *
 * TraceReader assumes a seekable file; the serving layer (src/serve)
 * receives the same format as arbitrarily sliced socket payloads.
 * StreamingTraceDecoder is the incremental counterpart: feed() it any
 * prefix of a .beartrace byte stream and it validates and decodes
 * exactly as much as has arrived — header first, then chunk frames —
 * accumulating records per core.  finish() runs the end-of-stream
 * checks (nothing buffered mid-structure, decoded records match the
 * header's record count).
 *
 * The checks are trace_format's one parser, shared with TraceReader
 * (the core count is capped before per-core vectors exist, chunk
 * lengths are bounded before any allocation).  This class only
 * buffers bytes and stamps errors with the failing chunk's stream
 * offset and index, so a corrupt upload gets the same kind, offset,
 * chunk and wording as the same bytes on disk, however they were
 * sliced.  Bytes are consumed by a read offset and the buffer is
 * compacted once per feed(), so one large feed costs linear time.
 *
 * VectorReplayStream adapts one core's decoded records into the
 * RefStream interface with the same wrap-around semantics as
 * TraceReplayStream, so a streamed trace feeds System identically to
 * a replayed file (the serve byte-identity tests pin this).
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
 * RefStream over one core's decoded records, wrapping around at the
 * end exactly like TraceReplayStream (a short trace still feeds an
 * arbitrarily long run).  The records are owned by value: sessions
 * outlive the decoder that produced them.
 */
class VectorReplayStream : public RefStream
{
  public:
    /** @p records must be non-empty (panics otherwise). */
    explicit VectorReplayStream(std::vector<MemRef> records);

    MemRef next() override;

    /** Times the stream wrapped back to the first record. */
    std::uint64_t wrapCount() const { return wrap_count_; }

  private:
    std::vector<MemRef> records_;
    std::size_t position_ = 0;
    std::uint64_t wrap_count_ = 0;
};

} // namespace bear::trace

#endif // BEAR_TRACE_TRACE_STREAM_DECODER_HH
