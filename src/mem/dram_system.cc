#include "mem/dram_system.hh"

#include <algorithm>

#include "common/log.hh"

namespace bear
{

DramSystem::DramSystem(std::string name, const DramTiming &timing,
                       const DramGeometry &geometry,
                       const WriteQueuePolicy &wq)
    : name_(std::move(name)), geometry_(geometry),
      channel_split_(std::max(geometry.channels, 1U)),
      bank_split_(std::max(geometry.banksPerChannel, 1U)),
      row_split_(geometry.rowBytes / kLineSize)
{
    bear_assert(geometry.channels > 0, name_, ": need at least one channel");
    channels_.reserve(geometry.channels);
    for (std::uint32_t c = 0; c < geometry.channels; ++c)
        channels_.emplace_back(timing, geometry, wq);
}

DramCoord
DramSystem::mapLine(LineAddr line) const
{
    // Fine-grain line interleave across channels, then banks, so that
    // sequential streams spread over all resources; rows are the
    // remaining high-order bits.
    DramCoord coord;
    coord.channel = static_cast<std::uint32_t>(channel_split_.rem(line));
    std::uint64_t rest = channel_split_.quot(line);
    coord.bank = static_cast<std::uint32_t>(bank_split_.rem(rest));
    rest = bank_split_.quot(rest);
    coord.row = row_split_.quot(rest);
    return coord;
}

DramResult
DramSystem::read(Cycle at, const DramCoord &coord, Bytes volume)
{
    bear_assert(coord.channel < channels_.size(), name_,
                ": channel out of range");
    return channels_[coord.channel].read(at, coord.bank, coord.row,
                                         volume);
}

void
DramSystem::write(Cycle at, const DramCoord &coord, Bytes volume)
{
    bear_assert(coord.channel < channels_.size(), name_,
                ": channel out of range");
    channels_[coord.channel].write(at, coord.bank, coord.row, volume);
}

Bytes
DramSystem::totalBytesTransferred() const
{
    Bytes total{0};
    for (const auto &c : channels_)
        total += c.bytesTransferred();
    return total;
}

std::uint64_t
DramSystem::totalRowHits() const
{
    std::uint64_t total = 0;
    for (const auto &c : channels_)
        total += c.rowHitCount();
    return total;
}

std::uint64_t
DramSystem::totalReads() const
{
    std::uint64_t total = 0;
    for (const auto &c : channels_)
        total += c.readCount();
    return total;
}

std::uint64_t
DramSystem::totalWrites() const
{
    std::uint64_t total = 0;
    for (const auto &c : channels_)
        total += c.writeCount();
    return total;
}

std::uint64_t
DramSystem::totalBusBusyCycles() const
{
    std::uint64_t total = 0;
    for (const auto &c : channels_)
        total += c.busBusyCycles();
    return total;
}

std::vector<BankUtilization>
DramSystem::bankUtilization() const
{
    // One shared span keeps utilizations comparable across banks: a
    // bank idle all run reads as ~0 even if it briefly served a burst.
    Cycle span_start = ~Cycle{0};
    Cycle span_end = 0;
    for (const auto &c : channels_) {
        span_start = std::min(span_start, c.activityStart());
        span_end = std::max(span_end, c.activityEnd());
    }
    const double span = span_end > span_start
        ? static_cast<double>(span_end - span_start)
        : 0.0;

    std::vector<BankUtilization> out;
    out.reserve(static_cast<std::size_t>(geometry_.channels)
                * geometry_.banksPerChannel);
    for (std::uint32_t ch = 0; ch < geometry_.channels; ++ch) {
        for (std::uint32_t b = 0; b < geometry_.banksPerChannel; ++b) {
            const BankCounters &counters = channels_[ch].bankCounters(b);
            BankUtilization u;
            u.channel = ch;
            u.bank = b;
            u.reads = counters.reads;
            u.writes = counters.writes;
            u.rowHits = counters.rowHits;
            u.rowConflicts = counters.rowConflicts;
            u.busyCycles = counters.busyCycles;
            u.conflictStallCycles = counters.conflictStallCycles;
            u.utilization =
                span > 0.0 ? counters.busyCycles.toDouble() / span : 0.0;
            out.push_back(u);
        }
    }
    return out;
}

obs::LatencyHistogram
DramSystem::readLatencyHistogram() const
{
    obs::LatencyHistogram merged;
    for (const auto &c : channels_)
        merged.merge(c.readLatencyHistogram());
    return merged;
}

obs::LatencyHistogram
DramSystem::queueDelayHistogram() const
{
    obs::LatencyHistogram merged;
    for (const auto &c : channels_)
        merged.merge(c.queueDelayHistogram());
    return merged;
}

obs::DepthHistogram
DramSystem::writeQueueDepthHistogram() const
{
    obs::DepthHistogram merged;
    for (const auto &c : channels_)
        merged.merge(c.writeQueueDepthHistogram());
    return merged;
}

void
DramSystem::setTrace(obs::EventTrace *trace)
{
    for (std::uint32_t ch = 0; ch < geometry_.channels; ++ch)
        channels_[ch].setTrace(trace, ch * geometry_.banksPerChannel);
}

void
DramSystem::resetStats()
{
    for (auto &c : channels_)
        c.resetStats();
}

void
DramSystem::drainAll(Cycle at)
{
    for (auto &c : channels_)
        c.drainAll(at);
}

} // namespace bear
