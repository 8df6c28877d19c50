#include "trace/trace_reader.hh"

#include <fstream>

#include "common/log.hh"
#include "trace/trace_stream_decoder.hh"

namespace bear::trace
{

namespace
{

/** Bytes read from the file per decoder feed: a constant, not a knob. */
constexpr std::size_t kLoadSliceBytes = 64 * 1024;

} // namespace

Expected<LoadedTrace, TraceError>
loadTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot open " + path, 0, -1});
    }
    StreamingTraceDecoder decoder;
    std::vector<std::uint8_t> slice(kLoadSliceBytes);
    while (in) {
        in.read(reinterpret_cast<char *>(slice.data()),
                static_cast<std::streamsize>(slice.size()));
        const auto got = static_cast<std::size_t>(in.gcount());
        auto fed = decoder.feed(slice.data(), got);
        if (!fed.hasValue())
            return unexpected(fed.error());
    }
    if (in.bad()) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot read " + path, 0, -1});
    }
    auto finished = decoder.finish();
    if (!finished.hasValue())
        return unexpected(finished.error());

    LoadedTrace loaded;
    loaded.meta = decoder.meta();
    loaded.chunks = decoder.chunksDecoded();
    loaded.coreRecords = decoder.takeCoreRecords();
    return loaded;
}

Expected<TraceMeta, TraceError>
readTraceMeta(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot open " + path, 0, -1});
    }
    std::vector<std::uint8_t> head(kMaxHeaderBytes);
    in.read(reinterpret_cast<char *>(head.data()),
            static_cast<std::streamsize>(head.size()));
    if (in.bad()) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot read " + path, 0, -1});
    }
    const auto got = static_cast<std::size_t>(in.gcount());
    auto parsed = parseHeader(head.data(), got);
    if (!parsed.hasValue())
        return unexpected(parsed.error());
    if (!parsed->has_value())
        return unexpected(truncatedHeaderError(got));
    return (*parsed)->meta;
}

VectorReplayStream::VectorReplayStream(
    std::shared_ptr<const std::vector<MemRef>> records)
    : records_(std::move(records))
{
    bear_assert(records_ && !records_->empty(),
                "VectorReplayStream needs at least one record");
}

VectorReplayStream::VectorReplayStream(std::vector<MemRef> records)
    : VectorReplayStream(std::make_shared<const std::vector<MemRef>>(
          std::move(records)))
{
}

Expected<std::unique_ptr<VectorReplayStream>, TraceError>
VectorReplayStream::open(const std::string &path, CoreId core)
{
    auto loaded = loadTrace(path);
    if (!loaded.hasValue())
        return unexpected(loaded.error());
    if (core >= loaded->meta.coreCount) {
        return unexpected(TraceError{
            TraceErrorKind::BadHeader,
            "replay core " + std::to_string(core) +
                " out of range: the trace was recorded with " +
                std::to_string(loaded->meta.coreCount) + " cores",
            0, -1});
    }
    auto every = checkEveryCoreHasRecords(loaded->coreRecords);
    if (!every.hasValue())
        return unexpected(every.error());
    return std::make_unique<VectorReplayStream>(
        std::move(loaded->coreRecords[core]));
}

MemRef
VectorReplayStream::next()
{
    const std::vector<MemRef> &records = *records_;
    if (position_ == records.size()) {
        position_ = 0;
        ++wrap_count_;
    }
    return records[position_++];
}

const MemRef *
VectorReplayStream::peek(std::size_t k)
{
    const std::vector<MemRef> &records = *records_;
    std::size_t i = position_ + k;
    if (i >= records.size())
        i %= records.size();
    return &records[i];
}

} // namespace bear::trace
