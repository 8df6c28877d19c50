/**
 * @file
 * Producing .beartrace files.
 *
 * TraceWriter buffers one open chunk per core, delta-encoding each
 * appended MemRef, and seals a chunk (CRC32 footer) whenever it
 * reaches kMaxChunkRecords or the writer finishes.  The header is
 * written up front with a zero record count and rewritten by finish()
 * once the total is known, so a file that was never finished is
 * detectably incomplete (its count check fails on read).
 *
 * RecordingStream is the tee: it wraps any RefStream, forwards every
 * next() unchanged, and appends the reference to a shared writer —
 * dropping it in front of an existing generator records a workload
 * without the generator noticing.
 */

#ifndef BEAR_TRACE_TRACE_WRITER_HH
#define BEAR_TRACE_TRACE_WRITER_HH

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

/**
 * Thrown by RecordingStream when the tee'd writer reports an I/O
 * failure at append time.  The simulation loop has no Expected channel
 * (RefStream::next returns a MemRef), so the failure unwinds as an
 * exception; the runner's containment layer converts it into a
 * transient RunError and retries the job (DESIGN.md §11).
 */
struct TraceIoFailure
{
    TraceError error;
};

/** Streams MemRefs of one run into a chunked, checksummed file. */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the provisional header.
     * @p meta names the workload, seed and core count; its recordCount
     * is ignored (finish() fills in the real total).
     */
    [[nodiscard]] static Expected<TraceWriter, TraceError>
    create(const std::string &path, const TraceMeta &meta);

    TraceWriter(TraceWriter &&) = default;
    TraceWriter &operator=(TraceWriter &&) = default;
    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /**
     * Append one reference of @p core.  Encoding is buffered; chunk
     * seals flush, so an I/O failure surfaces here, at write time —
     * the value is true when this append sealed (and verified) a
     * chunk.  The first error is also sticky and re-surfaces from
     * finish(), so callers that batch-append and only check finish()
     * still cannot lose a failure.
     */
    [[nodiscard]] Expected<bool, TraceError> append(CoreId core,
                                                     const MemRef &ref);

    /**
     * Seal open chunks, rewrite the header with the final record
     * count, and flush.  Returns the total records written.  Must be
     * called exactly once; a writer destroyed without finish() leaves
     * a file that readers reject (count mismatch), never a silently
     * short trace.
     */
    [[nodiscard]] Expected<std::uint64_t, TraceError> finish();

    std::uint64_t recordsAppended() const { return total_records_; }

  private:
    /** Per-core chunk under construction. */
    struct OpenChunk
    {
        std::vector<std::uint8_t> payload;
        std::uint32_t records = 0;
        std::uint64_t prevVaddr = 0;
        Pc prevPc = 0;
    };

    TraceWriter(std::string path, std::ofstream out, TraceMeta meta);

    /** Seal and flush @p core's open chunk; false on I/O failure. */
    bool sealChunk(CoreId core);

    TraceError ioError(const std::string &what) const;

    std::string path_;
    std::ofstream out_;
    TraceMeta meta_;
    std::vector<OpenChunk> chunks_; ///< one per core
    std::uint64_t total_records_ = 0;
    bool io_failed_ = false;
    bool finished_ = false;
};

/** Tee decorator: forwards an inner stream, recording every record. */
class RecordingStream : public RefStream
{
  public:
    /** @p writer must outlive this stream. */
    RecordingStream(std::unique_ptr<RefStream> inner,
                    TraceWriter &writer, CoreId core)
        : inner_(std::move(inner)), writer_(writer), core_(core)
    {
    }

    /** @throws TraceIoFailure when the writer cannot persist @p ref. */
    MemRef
    next() override
    {
        const MemRef ref = inner_->next();
        auto appended = writer_.append(core_, ref);
        if (!appended.hasValue())
            throw TraceIoFailure{appended.error()};
        return ref;
    }

    /** Forwards; only next() records, so peeking leaves the file as
     *  it would be without it. */
    const MemRef *
    peek(std::size_t k) override
    {
        return inner_->peek(k);
    }

  private:
    std::unique_ptr<RefStream> inner_;
    TraceWriter &writer_;
    CoreId core_;
};

} // namespace bear::trace

#endif // BEAR_TRACE_TRACE_WRITER_HH
