#include "workloads/workload.hh"

#include <cmath>

#include "common/log.hh"

namespace bear
{

namespace
{

std::uint64_t
scaledLines(Bytes volume, double scale)
{
    const double lines =
        volume.toDouble() * scale / kLineSize.toDouble();
    return lines < 64.0 ? 64 : static_cast<std::uint64_t>(lines);
}

} // namespace

WorkloadStream::WorkloadStream(const WorkloadProfile &profile,
                               std::uint64_t seed, double scale)
    : profile_(profile), rng_(seed)
{
    bear_assert(profile.l3Mpki > 0.0, profile.name, ": needs MPKI > 0");
    bear_assert(profile.footprintBytes >= 1ULL << 20, profile.name,
                ": footprint too small");
    bear_assert(profile.hotProb + profile.warmProb + profile.reuseProb
                    <= 1.0,
                profile.name, ": region probabilities exceed 1");

    const double apki = profile.l3Mpki * profile.apkiFactor;
    mean_gap_ = 1000.0 / apki;

    // Lay the three regions out in the virtual address space: the hot
    // and warm regions alias the beginning of the footprint (reuse of
    // the same data), the cold region covers everything.
    cold_.baseLine = 0;
    cold_.sizeLines = scaledLines(Bytes{profile.footprintBytes}, scale);
    cold_.streaming = profile.coldStreams;

    hot_.baseLine = 0;
    hot_.sizeLines = scaledLines(Bytes{profile.hotBytes}, scale);
    hot_.streaming = false;

    warm_.baseLine = hot_.sizeLines;
    warm_.sizeLines = scaledLines(Bytes{profile.warmBytes}, scale);
    warm_.streaming = false;

    // Regions must nest inside the footprint.
    if (hot_.sizeLines > cold_.sizeLines)
        hot_.sizeLines = cold_.sizeLines;
    if (warm_.baseLine + warm_.sizeLines > cold_.sizeLines) {
        warm_.baseLine = 0;
        warm_.sizeLines = cold_.sizeLines;
    }

    reuse_window_.assign(profile.reuseWindowLines ? profile.reuseWindowLines
                                                  : 1,
                         0);
}

void
WorkloadStream::startRun()
{
    const double pick = rng_.uniform();
    std::uint32_t region_idx;
    if (pick < profile_.hotProb) {
        run_region_ = &hot_;
        region_idx = 0;
    } else if (pick < profile_.hotProb + profile_.warmProb) {
        run_region_ = &warm_;
        region_idx = 1;
    } else {
        run_region_ = &cold_;
        region_idx = 2;
    }

    Region &r = *run_region_;
    if (r.streaming) {
        run_line_ = r.cursor;
    } else {
        run_line_ = rng_.below(r.sizeLines);
    }

    run_remaining_ = static_cast<std::uint32_t>(
        rng_.runLength(profile_.spatialRunMean));

    // One PC per run; PCs are partitioned by region so that MAP-I can
    // learn region-specific hit/miss behaviour like it learns
    // per-instruction behaviour in real traces.
    const std::uint32_t pcs_per_region =
        profile_.pcCount / 3 ? profile_.pcCount / 3 : 1;
    run_pc_ = 0x400000
        + ((static_cast<Pc>(region_idx) * pcs_per_region
            + rng_.below(pcs_per_region))
           << 2);
}

MemRef
WorkloadStream::emit(std::uint64_t line)
{
    reuse_window_[reuse_cursor_] = line;
    reuse_cursor_ = (reuse_cursor_ + 1)
        % static_cast<std::uint32_t>(reuse_window_.size());

    MemRef ref;
    ref.vaddr = addrOf(line);
    ref.pc = run_pc_;
    ref.isWrite = rng_.chance(profile_.writeFraction);
    ref.dependent = rng_.chance(profile_.dependentFraction);
    // Exponentially distributed instruction gap with the profile mean.
    const double gap = -mean_gap_ * std::log(1.0 - rng_.uniform());
    ref.instGap =
        gap >= 100000.0 ? 100000 : static_cast<std::uint32_t>(gap);
    return ref;
}

MemRef
WorkloadStream::next()
{
    if (ahead_count_ == 0)
        return generate();
    const MemRef ref = ahead_[ahead_head_];
    ahead_head_ = (ahead_head_ + 1) % kMaxPeek;
    --ahead_count_;
    return ref;
}

const MemRef *
WorkloadStream::peek(std::size_t k)
{
    if (k >= kMaxPeek)
        return nullptr;
    // Generation order is consumption order, so filling the ring early
    // cannot change the sequence next() returns.
    while (ahead_count_ <= k) {
        ahead_[(ahead_head_ + ahead_count_) % kMaxPeek] = generate();
        ++ahead_count_;
    }
    return &ahead_[(ahead_head_ + k) % kMaxPeek];
}

MemRef
WorkloadStream::generate()
{
    // Short-term reuse: re-touch a recently referenced line.  These
    // are the accesses that reward Miss Fills (the line was installed
    // moments ago) — naive bypass sacrifices exactly these hits.
    if (rng_.chance(profile_.reuseProb)) {
        const std::uint64_t line =
            reuse_window_[rng_.below(reuse_window_.size())];
        if (run_pc_ == 0)
            startRun();
        return emit(line);
    }

    if (run_remaining_ == 0)
        startRun();

    Region &r = *run_region_;
    const std::uint64_t line = r.baseLine + (run_line_ % r.sizeLines);
    ++run_line_;
    --run_remaining_;
    if (r.streaming)
        r.cursor = run_line_ % r.sizeLines;

    return emit(line);
}

} // namespace bear
