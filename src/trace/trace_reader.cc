#include "trace/trace_reader.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"

namespace bear::trace
{

namespace
{

/** Read exactly @p size bytes at @p offset; false on stream failure. */
bool
readAt(std::ifstream &in, std::uint64_t offset, std::uint8_t *out,
       std::size_t size)
{
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char *>(out),
            static_cast<std::streamsize>(size));
    return in.gcount() == static_cast<std::streamsize>(size);
}

} // namespace

Expected<TraceReader, TraceError>
TraceReader::open(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot open " + path, 0, -1});
    }
    in.seekg(0, std::ios::end);
    const auto end_pos = in.tellg();
    if (end_pos < 0) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot determine size of " + path,
                                     0, -1});
    }
    const auto file_size = static_cast<std::uint64_t>(end_pos);

    // The longest possible header fits in kMaxHeaderBytes, so one read
    // hands the parser everything it can ask for; "needs more" then
    // means the file itself ends inside the header.
    std::uint8_t header[kMaxHeaderBytes];
    const std::size_t available = static_cast<std::size_t>(
        std::min<std::uint64_t>(file_size, kMaxHeaderBytes));
    if (!readAt(in, 0, header, available)) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot read header of " + path, 0,
                                     -1});
    }
    auto parsed = parseHeader(header, available);
    if (!parsed.hasValue())
        return unexpected(parsed.error());
    if (!*parsed)
        return unexpected(truncatedHeaderError(available));

    return TraceReader(std::move(in), std::move((*parsed)->meta),
                       file_size, (*parsed)->size);
}

TraceReader::TraceReader(std::ifstream in, TraceMeta meta,
                         std::uint64_t file_size,
                         std::uint64_t first_chunk_offset)
    : in_(std::move(in)), meta_(std::move(meta)),
      file_size_(file_size), first_chunk_offset_(first_chunk_offset),
      position_(first_chunk_offset)
{
}

TraceError
TraceReader::attribute(TraceError error) const
{
    error.offset = position_;
    error.chunk = static_cast<std::int64_t>(chunk_index_);
    return error;
}

void
TraceReader::filterCore(CoreId core)
{
    filter_ = core;
    rewind();
}

void
TraceReader::rewind()
{
    position_ = first_chunk_offset_;
    chunk_index_ = 0;
    chunks_seen_ = 0;
    records_seen_ = 0;
    buffer_.clear();
    buffer_pos_ = 0;
}

Expected<bool, TraceError>
TraceReader::loadChunk()
{
    for (;;) {
        const std::uint64_t available = file_size_ - position_;
        if (available == 0) {
            if (records_seen_ != meta_.recordCount) {
                return unexpected(attribute(
                    countMismatchError(meta_, records_seen_)));
            }
            return false; // clean end of trace
        }
        if (available < kChunkHeaderBytes)
            return unexpected(attribute(truncatedChunkError(available)));

        std::uint8_t head[kChunkHeaderBytes];
        if (!readAt(in_, position_, head, sizeof(head))) {
            return unexpected(attribute(TraceError{
                TraceErrorKind::Io, "chunk header read failed"}));
        }
        auto frame = parseChunkFrame(head, meta_);
        if (!frame.hasValue())
            return unexpected(attribute(frame.error()));
        if (available < frame->size())
            return unexpected(attribute(truncatedChunkError(available)));

        if (filter_ != kAllCores && frame->core != filter_) {
            // Skip by frame: the payload stays unread (and its CRC
            // unchecked; replay relies on the full-file validation
            // pass TraceReplayStream::open performed).
            records_seen_ += frame->records;
            position_ += frame->size();
            ++chunk_index_;
            ++chunks_seen_;
            continue;
        }

        std::vector<std::uint8_t> bytes(frame->size());
        std::memcpy(bytes.data(), head, kChunkHeaderBytes);
        if (!readAt(in_, position_ + kChunkHeaderBytes,
                    bytes.data() + kChunkHeaderBytes,
                    bytes.size() - kChunkHeaderBytes)) {
            return unexpected(attribute(
                TraceError{TraceErrorKind::Io, "chunk read failed"}));
        }
        buffer_.clear();
        auto decoded = decodeChunk(bytes.data(), *frame, buffer_);
        if (!decoded.hasValue())
            return unexpected(attribute(decoded.error()));

        buffer_pos_ = 0;
        buffer_core_ = frame->core;
        records_seen_ += frame->records;
        position_ += frame->size();
        ++chunk_index_;
        ++chunks_seen_;
        return true;
    }
}

Expected<bool, TraceError>
TraceReader::next(MemRef *out, CoreId *core)
{
    if (buffer_pos_ == buffer_.size()) {
        auto loaded = loadChunk();
        if (!loaded.hasValue())
            return unexpected(loaded.error());
        if (!*loaded)
            return false;
    }
    *out = buffer_[buffer_pos_++];
    *core = buffer_core_;
    return true;
}

Expected<std::unique_ptr<TraceReplayStream>, TraceError>
TraceReplayStream::open(const std::string &path, CoreId core)
{
    auto opened = TraceReader::open(path);
    if (!opened.hasValue())
        return unexpected(opened.error());
    TraceReader reader = std::move(opened.value());

    if (core >= reader.meta().coreCount) {
        return unexpected(TraceError{
            TraceErrorKind::BadHeader,
            "replay core " + std::to_string(core) +
                " out of range: the trace was recorded with " +
                std::to_string(reader.meta().coreCount) + " cores",
            0, -1});
    }

    // Full validation pass: decode every chunk (all cores) once so
    // that corruption anywhere in the file fails here, loudly, and
    // never as a fatal in the middle of a simulation.
    std::uint64_t core_records = 0;
    for (;;) {
        MemRef ref;
        CoreId c = 0;
        auto r = reader.next(&ref, &c);
        if (!r.hasValue())
            return unexpected(r.error());
        if (!*r)
            break;
        if (c == core)
            ++core_records;
    }
    if (core_records == 0) {
        return unexpected(TraceError{
            TraceErrorKind::CountMismatch,
            "trace holds no records for core " + std::to_string(core),
            0, -1});
    }

    reader.filterCore(core);
    return std::unique_ptr<TraceReplayStream>(
        new TraceReplayStream(std::move(reader), core_records));
}

MemRef
TraceReplayStream::next()
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        MemRef ref;
        CoreId core = 0;
        auto r = reader_.next(&ref, &core);
        if (!r.hasValue()) {
            // open() validated the whole file; reaching this means the
            // file changed underneath us.
            bear_fatal("trace replay failed mid-run: ",
                       r.error().message());
        }
        if (*r)
            return ref;
        ++wrap_count_;
        reader_.rewind();
    }
    bear_fatal("trace replay: no records after rewind (file changed "
               "mid-run?)");
}

} // namespace bear::trace
