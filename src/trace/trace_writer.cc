#include "trace/trace_writer.hh"

#include <cstring>

#include "common/fault.hh"
#include "common/log.hh"

namespace bear::trace
{

Expected<TraceWriter, TraceError>
TraceWriter::create(const std::string &path, const TraceMeta &meta)
{
    if (meta.coreCount == 0 || meta.coreCount > kMaxCoreCount) {
        return unexpected(TraceError{
            TraceErrorKind::BadHeader,
            "core count " + std::to_string(meta.coreCount) +
                " outside 1.." + std::to_string(kMaxCoreCount),
            0, -1});
    }
    if (meta.workload.size() > kMaxWorkloadNameLength) {
        return unexpected(TraceError{
            TraceErrorKind::BadHeader,
            "workload name exceeds " +
                std::to_string(kMaxWorkloadNameLength) + " bytes",
            0, -1});
    }

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot open " + path +
                                         " for writing",
                                     0, -1});
    }

    TraceMeta provisional = meta;
    provisional.recordCount = 0;
    const std::vector<std::uint8_t> header = encodeHeader(provisional);
    out.write(reinterpret_cast<const char *>(header.data()),
              static_cast<std::streamsize>(header.size()));
    if (!out) {
        return unexpected(TraceError{TraceErrorKind::Io,
                                     "cannot write header to " + path,
                                     0, -1});
    }
    return TraceWriter(path, std::move(out), std::move(provisional));
}

TraceWriter::TraceWriter(std::string path, std::ofstream out,
                         TraceMeta meta)
    : path_(std::move(path)), out_(std::move(out)),
      meta_(std::move(meta)), chunks_(meta_.coreCount)
{
}

TraceError
TraceWriter::ioError(const std::string &what) const
{
    return TraceError{TraceErrorKind::Io,
                      what + " to " + path_
                          + " (disk full or file removed "
                            "mid-recording?)",
                      0, -1};
}

Expected<bool, TraceError>
TraceWriter::append(CoreId core, const MemRef &ref)
{
    bear_assert(!finished_, "append() after finish()");
    bear_assert(core < chunks_.size(), "core ", core,
                " out of range for a ", chunks_.size(),
                "-core trace");

    if (io_failed_)
        return unexpected(ioError("cannot append"));
    auto &inj = fault::injector();
    if (inj.armed()
        && inj.evaluate("trace.write", meta_.workload)
            == fault::FaultKind::TraceIo) {
        // Poison the stream the way a yanked disk would: the next
        // physical write fails, and everything downstream must cope.
        out_.setstate(std::ios::failbit);
    }

    OpenChunk &chunk = chunks_[core];
    std::uint8_t flags = 0;
    if (ref.isWrite)
        flags |= kFlagWrite;
    if (ref.dependent)
        flags |= kFlagDependent;
    chunk.payload.push_back(flags);
    putVarint(chunk.payload,
              zigzag(static_cast<std::int64_t>(ref.vaddr
                                               - chunk.prevVaddr)));
    putVarint(chunk.payload,
              zigzag(static_cast<std::int64_t>(ref.pc - chunk.prevPc)));
    putVarint(chunk.payload, ref.instGap);
    chunk.prevVaddr = ref.vaddr;
    chunk.prevPc = ref.pc;

    ++chunk.records;
    ++total_records_;
    if (chunk.records == kMaxChunkRecords) {
        if (!sealChunk(core))
            return unexpected(ioError("cannot write chunk"));
        return true;
    }
    return false;
}

bool
TraceWriter::sealChunk(CoreId core)
{
    OpenChunk &chunk = chunks_[core];
    if (chunk.records == 0)
        return true;

    std::vector<std::uint8_t> frame;
    frame.reserve(kChunkHeaderBytes + chunk.payload.size()
                  + kChunkCrcBytes);
    putU32(frame, core);
    putU32(frame, chunk.records);
    putU32(frame,
           static_cast<std::uint32_t>(chunk.payload.size()));
    frame.insert(frame.end(), chunk.payload.begin(),
                 chunk.payload.end());
    putU32(frame, crc32(frame.data(), frame.size()));

    out_.write(reinterpret_cast<const char *>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
    // Flush so the failure is observed at this seal, not buffered
    // into some arbitrarily later one.
    out_.flush();
    if (!out_)
        io_failed_ = true;

    chunk = OpenChunk{};
    return !io_failed_;
}

Expected<std::uint64_t, TraceError>
TraceWriter::finish()
{
    bear_assert(!finished_, "finish() called twice");
    finished_ = true;

    auto &inj = fault::injector();
    if (inj.armed()
        && inj.evaluate("trace.finish", meta_.workload)
            == fault::FaultKind::TraceIo) {
        out_.setstate(std::ios::failbit);
    }

    for (CoreId core = 0; core < chunks_.size(); ++core)
        sealChunk(core);

    meta_.recordCount = total_records_;
    const std::vector<std::uint8_t> header = encodeHeader(meta_);
    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    out_.flush();
    if (io_failed_ || !out_)
        return unexpected(ioError("write failed"));
    return total_records_;
}

} // namespace bear::trace
