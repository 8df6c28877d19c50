/**
 * @file
 * Loading and replaying .beartrace files.
 *
 * loadTrace reads a file and hands its bytes to StreamingTraceDecoder
 * in fixed 64 KiB slices: a file and a socket upload of the same bytes
 * run literally the same decoder, so they fail with the same kind,
 * offset, chunk and wording, and succeed with the same records.  The
 * whole file is validated before anything is returned, so corruption
 * can never surface later as a mid-simulation fatal.  Only opening or
 * reading the file adds errors of its own (kind Io).
 *
 * VectorReplayStream makes one recorded core a drop-in RefStream over
 * a shared, read-only record vector, wrapping around at the end so a
 * short recording still feeds an arbitrarily long run.  A Runner
 * loads its BEAR_TRACE_IN corpus once and every job's streams read
 * that one copy; a served session replays its decoded upload the
 * same way.
 */

#ifndef BEAR_TRACE_TRACE_READER_HH
#define BEAR_TRACE_TRACE_READER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hh"
#include "common/types.hh"
#include "core/trace.hh"
#include "trace/trace_format.hh"

namespace bear::trace
{

/** A whole .beartrace file, decoded and validated. */
struct LoadedTrace
{
    TraceMeta meta;
    /** Records of each core, in recorded order (meta.coreCount). */
    std::vector<std::vector<MemRef>> coreRecords;
    std::uint64_t chunks = 0; ///< chunk frames in the file
};

/** Decode all of @p path; `cannot open <path>` (Io) when unreadable. */
[[nodiscard]] Expected<LoadedTrace, TraceError>
loadTrace(const std::string &path);

/** A recorded core as an endless RefStream (drop-in workload). */
class VectorReplayStream : public RefStream
{
  public:
    /** @p records must be non-empty (panics otherwise). */
    explicit VectorReplayStream(
        std::shared_ptr<const std::vector<MemRef>> records);
    explicit VectorReplayStream(std::vector<MemRef> records);

    /** loadTrace(@p path), then a stream over @p core's records. */
    [[nodiscard]] static
    Expected<std::unique_ptr<VectorReplayStream>, TraceError>
    open(const std::string &path, CoreId core);

    /** The next recorded reference; wraps at the end of the trace. */
    MemRef next() override;

    /** Times the stream wrapped back to the first record. */
    std::uint64_t wrapCount() const { return wrap_count_; }

  private:
    std::shared_ptr<const std::vector<MemRef>> records_;
    std::size_t position_ = 0;
    std::uint64_t wrap_count_ = 0;
};

/** The earlier name of VectorReplayStream, kept because the frozen
 *  repository benchmark (perfbench/) still calls it. */
using TraceReplayStream = VectorReplayStream;

} // namespace bear::trace

#endif // BEAR_TRACE_TRACE_READER_HH
