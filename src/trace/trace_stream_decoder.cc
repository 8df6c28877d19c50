#include "trace/trace_stream_decoder.hh"

#include "common/log.hh"

namespace bear::trace
{

TraceError
StreamingTraceDecoder::attribute(TraceError error) const
{
    error.offset = consumed_;
    error.chunk = static_cast<std::int64_t>(chunk_index_);
    return error;
}

Unexpected<TraceError>
StreamingTraceDecoder::fail(TraceError error)
{
    state_ = State::Failed;
    sticky_ = error;
    return unexpected(std::move(error));
}

void
StreamingTraceDecoder::consume(std::size_t bytes)
{
    pos_ += bytes;
    consumed_ += bytes;
}

Expected<bool, TraceError>
StreamingTraceDecoder::feed(const std::uint8_t *data, std::size_t size)
{
    if (state_ == State::Failed)
        return unexpected(sticky_);
    buffer_.insert(buffer_.end(), data, data + size);
    auto advanced = advance();
    // Drop the consumed prefix once per feed, not once per structure:
    // a large feed then costs one pass, not one shift per chunk.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
    return advanced;
}

Expected<bool, TraceError>
StreamingTraceDecoder::advance()
{
    if (state_ == State::Header) {
        // The header starts at stream offset 0, so parseHeader's
        // offsets are already absolute.
        auto parsed = parseHeader(buffer_.data() + pos_, buffered());
        if (!parsed.hasValue())
            return fail(parsed.error());
        if (!*parsed)
            return true; // header still incomplete; wait for more
        meta_ = std::move((*parsed)->meta);
        core_records_.assign(meta_.coreCount, {});
        consume((*parsed)->size);
        state_ = State::Chunks;
    }
    while (buffered() >= kChunkHeaderBytes) {
        const std::uint8_t *bytes = buffer_.data() + pos_;
        auto frame = parseChunkFrame(bytes, meta_);
        if (!frame.hasValue())
            return fail(attribute(frame.error()));
        if (buffered() < frame->size())
            return true; // frame incomplete; wait for more bytes
        auto decoded =
            decodeChunk(bytes, *frame, core_records_[frame->core]);
        if (!decoded.hasValue())
            return fail(attribute(decoded.error()));
        records_seen_ += frame->records;
        consume(frame->size());
        ++chunk_index_;
    }
    return true;
}

Expected<bool, TraceError>
StreamingTraceDecoder::finish()
{
    if (state_ == State::Failed)
        return unexpected(sticky_);
    if (state_ == State::Header)
        return fail(truncatedHeaderError(buffered()));
    if (buffered() != 0)
        return fail(attribute(truncatedChunkError(buffered())));
    if (records_seen_ != meta_.recordCount)
        return fail(attribute(countMismatchError(meta_, records_seen_)));
    return true;
}

VectorReplayStream::VectorReplayStream(std::vector<MemRef> records)
    : records_(std::move(records))
{
    bear_assert(!records_.empty(),
                "VectorReplayStream needs at least one record");
}

MemRef
VectorReplayStream::next()
{
    if (position_ == records_.size()) {
        position_ = 0;
        ++wrap_count_;
    }
    return records_[position_++];
}

} // namespace bear::trace
