#include "mem/dram_channel.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace bear
{

namespace
{

/** Initial BusTimeline ring capacity (grows by doubling, rarely). */
constexpr std::uint64_t kTimelineInitialCapacity = 256;

/**
 * Absolute head/tail indices start here so that head-side slot
 * shifting (which decrements head_) can never wrap below zero, and
 * ordered index comparisons stay valid for any realistic run length.
 */
constexpr std::uint64_t kTimelineIndexBias = 1ULL << 63;

} // namespace

BusTimeline::BusTimeline()
    : ring_(kTimelineInitialCapacity), mask_(kTimelineInitialCapacity - 1),
      head_(kTimelineIndexBias), tail_(kTimelineIndexBias),
      hint_(kTimelineIndexBias)
{
}

void
BusTimeline::grow()
{
    std::vector<Interval> bigger(ring_.size() * 2);
    const std::uint64_t new_mask = bigger.size() - 1;
    for (std::uint64_t i = head_; i != tail_; ++i)
        bigger[i & new_mask] = at(i);
    ring_.swap(bigger);
    mask_ = new_mask;
}

std::uint64_t
BusTimeline::openSlot(std::uint64_t pos)
{
    if (pos - head_ < tail_ - pos) {
        // Head side is shorter: shift it left; the slot opens at
        // pos - 1 and every index >= pos keeps its interval.
        for (std::uint64_t i = head_; i < pos; ++i)
            at(i - 1) = at(i);
        --head_;
        return pos - 1;
    }
    for (std::uint64_t i = tail_; i > pos; --i)
        at(i) = at(i - 1);
    ++tail_;
    return pos;
}

void
BusTimeline::removeSlot(std::uint64_t pos)
{
    if (pos - head_ < tail_ - pos - 1) {
        for (std::uint64_t i = pos; i > head_; --i)
            at(i) = at(i - 1);
        ++head_;
    } else {
        for (std::uint64_t i = pos + 1; i < tail_; ++i)
            at(i - 1) = at(i);
        --tail_;
    }
}

DramChannel::DramChannel(const DramTiming &timing,
                         const DramGeometry &geometry,
                         const WriteQueuePolicy &wq)
    : timing_(timing), geometry_(geometry),
      beat_split_(std::max<std::uint64_t>(geometry.busBeatWidth.count(), 1)),
      wq_policy_(wq),
      banks_(geometry.banksPerChannel),
      bank_stats_(geometry.banksPerChannel)
{
    bear_assert(geometry.banksPerChannel > 0, "channel needs banks");
    bear_assert(geometry.busBeatWidth > BeatWidth{0}, "bus must move data");
    // True worst case for the ring: the overflow backstop in write()
    // fires once occupancy reaches 4 * drainHigh, and a drain target
    // of drainLow entries must remain representable; the next power of
    // two covers every reachable occupancy, so the ring is fixed for
    // the channel's lifetime (write() asserts it never overflows).
    const std::uint64_t cap = std::bit_ceil(std::max<std::uint64_t>(
        {4ULL * wq.drainHigh, wq.drainLow + 1ULL, 8ULL}));
    write_ring_.resize(cap);
    wq_mask_ = cap - 1;
}

Cycle
DramChannel::burstCycles(Bytes volume) const
{
    // Round up to whole bus beats; e.g. a 72-byte TAD on a 16 B/cycle
    // bus occupies 5 cycles (80 bytes of bus time, paper Figure 10).
    // beatsToCover's ceil(volume / width), as a shift on a 2^k bus.
    const Bytes padded = volume + Bytes{beat_split_.value() - 1};
    return cyclesOf(Beats{beat_split_.quot(padded.count())}).count();
}

DramResult
DramChannel::service(Cycle at, std::uint32_t bank_idx, std::uint64_t row,
                     Bytes volume, bool account_bytes)
{
    bear_assert(bank_idx < banks_.size(), "bank ", bank_idx, " out of range");
    Bank &bank = banks_[bank_idx];
    BankCounters &counters = bank_stats_[bank_idx];

    const Cycle start = std::max(at, bank.ready);
    if (start > at) {
        // The request waited for the bank to free up: the contention
        // the paper's Figure 15 sweeps banks to relieve.
        counters.conflictStallCycles += Cycles{start - at};
        if (trace_) {
            trace_->record(obs::TraceEventKind::BankConflictStall, at,
                           bank_id_base_ + bank_idx, start - at);
        }
    }
    Cycle array_latency;
    bool row_hit = false;
    if (bank.rowOpen && bank.openRow == row) {
        array_latency = timing_.tCAS;
        row_hit = true;
    } else if (bank.rowOpen) {
        ++counters.rowConflicts;
        // Row conflict: precharge (respecting tRAS since the previous
        // activate), activate the new row, then CAS.
        const Cycle precharge_start =
            std::max(start, bank.lastActivate + timing_.tRAS);
        array_latency = (precharge_start - start) + timing_.tRP
            + timing_.tRCD + timing_.tCAS;
        bank.lastActivate = precharge_start + timing_.tRP;
        bank.openRow = row;
    } else {
        array_latency = timing_.tRCD + timing_.tCAS;
        bank.lastActivate = start;
        bank.openRow = row;
        bank.rowOpen = true;
    }

    const Cycle burst = burstCycles(volume);
    const Cycle data_start = bus_.reserve(start + array_latency, burst);
    const Cycle data_end = data_start + burst;

    // Row hits pipeline: the bank can accept the next CAS while the
    // data burst drains (the shared bus is the limiter).  Activations
    // and precharges occupy the bank until the transfer completes,
    // which is what makes bank conflicts expensive (paper Section 7.4).
    bank.ready = row_hit ? data_start : data_end;

    if (account_bytes)
        bytes_transferred_ += volume;
    bus_busy_cycles_ += burst;
    // Branch-free hit accounting: row_hit contributes 0 or 1.
    row_hits_ += static_cast<std::uint64_t>(row_hit);
    counters.rowHits += static_cast<std::uint64_t>(row_hit);
    counters.busyCycles += Cycles{bank.ready - start};
    activity_start_ = std::min(activity_start_, at);
    activity_end_ = std::max(activity_end_, data_end);

    DramResult result;
    result.dataReady = data_end;
    // Queueing delay: any time not explained by array latency + burst.
    result.queueDelay = data_end - at - array_latency - burst;
    result.rowHit = row_hit;
    return result;
}

DramResult
DramChannel::read(Cycle at, std::uint32_t bank, std::uint64_t row,
                  Bytes volume)
{
    // Writes are posted with the timestamp of the operation that
    // produced them, which can lie in this read's future (a fill
    // happens when the miss data returns).  Only writes that have
    // actually arrived by now may delay this read; a large backlog of
    // arrived writes forces a drain ahead of the read (the read-
    // priority scheduler can no longer defer them).
    bear_assert(bank < banks_.size(), "bank ", bank, " out of range");
    if (arrivedWrites(at) >= wq_policy_.drainHigh)
        drainWrites(at, wq_policy_.drainLow);
    ++reads_;
    ++bank_stats_[bank].reads;
    const DramResult result = service(at, bank, row, volume);
    // One sample path: the histograms carry the exact sum and count,
    // so their mean() IS the legacy scalar average — the old parallel
    // Average members were pure double bookkeeping.
    queue_delay_hist_.sample(Cycles{result.queueDelay});
    read_latency_hist_.sample(Cycles{result.dataReady - at});
    return result;
}

std::uint32_t
DramChannel::arrivedWrites(Cycle at) const
{
    // The ring is arrival-sorted; resume the boundary scan from the
    // cached cursor.  Query times are near-monotonic, so the walk is
    // amortised O(1) instead of a front-to-back rescan per call.
    std::uint64_t cur = std::clamp(wq_arrived_hint_, wq_head_, wq_tail_);
    while (cur < wq_tail_ && wqAt(cur).arrival <= at)
        ++cur;
    while (cur > wq_head_ && wqAt(cur - 1).arrival > at)
        --cur;
    wq_arrived_hint_ = cur;
    return static_cast<std::uint32_t>(cur - wq_head_);
}

void
DramChannel::write(Cycle at, std::uint32_t bank, std::uint64_t row,
                   Bytes volume)
{
    bear_assert(bank < banks_.size(), "bank ", bank, " out of range");
    ++writes_;
    ++bank_stats_[bank].writes;
    // Posted writes are accounted when they enter the queue so that
    // byte counters line up with the bloat tracker's post-time view
    // (the data burst itself happens at drain time).
    bytes_transferred_ += volume;
    // Keep the ring sorted by arrival: writes are posted nearly in
    // order, so the insertion point is at most a few slots from the
    // tail (equal arrivals stay FIFO).  O(1) amortised; the ring is
    // sized to the backstop's worst case and must never overflow.
    bear_assert(wq_tail_ - wq_head_ < write_ring_.size(),
                "write ring overflow (capacity ", write_ring_.size(), ")");
    std::uint64_t pos = wq_tail_;
    while (pos > wq_head_ && wqAt(pos - 1).arrival > at) {
        wqAt(pos) = wqAt(pos - 1);
        --pos;
    }
    wqAt(pos) = PendingWrite{at, bank, row, volume};
    ++wq_tail_;
    write_queue_depth_hist_.sample(Count{wq_tail_ - wq_head_});

    // Backstop: never let the physical queue structure overflow even
    // if no read arrives to trigger a drain.
    if (wq_tail_ - wq_head_ >= 4 * wq_policy_.drainHigh)
        drainWrites(wqAt(wq_tail_ - 1).arrival, wq_policy_.drainLow);
}

void
DramChannel::drainWrites(Cycle at, std::uint32_t target)
{
    // Drain arrived writes, oldest first, down to the target level.
    // Pop is a head-index bump; the arrived count is cursor-cached.
    while (arrivedWrites(at) > target) {
        const PendingWrite w = wqAt(wq_head_);
        ++wq_head_;
        service(std::max(at, w.arrival), w.bank, w.row, w.volume,
                /*account_bytes=*/false);
    }
}

void
DramChannel::resetStats()
{
    bytes_transferred_ = Bytes{0};
    reads_ = 0;
    writes_ = 0;
    row_hits_ = 0;
    bus_busy_cycles_ = 0;
    for (auto &b : bank_stats_)
        b = BankCounters{};
    read_latency_hist_.reset();
    queue_delay_hist_.reset();
    write_queue_depth_hist_.reset();
    activity_start_ = ~Cycle{0};
    activity_end_ = 0;
}

} // namespace bear
