/**
 * @file
 * Reservation-based timing model of one DRAM channel.
 *
 * Instead of a full event-driven controller, each bank and the shared
 * data bus are modelled as resources with "next free" timestamps.  A
 * read computes its start time as the maximum of its arrival, the
 * bank's availability and the bus availability, pays the appropriate
 * row-buffer latency (hit / closed / conflict), and pushes the
 * timestamps forward.  Queueing delay — the quantity bandwidth bloat
 * inflates (paper Section 2.2) — therefore emerges naturally from
 * contention on the bus and bank timestamps.
 *
 * Writes follow the paper's controller policy: they are buffered in a
 * per-channel write queue and drained in batches once the queue
 * reaches a high-water mark, so reads are prioritised until a drain
 * forces them to wait behind the write burst.
 *
 * Both per-access structures are amortised O(1) (DESIGN.md §15): the
 * write queue is a fixed-capacity power-of-two ring kept arrival-
 * sorted with a cursor-cached arrived count, and the bus timeline is a
 * circular-index interval window whose gap search resumes from the
 * previous reservation instead of a cold binary search.
 */

#ifndef BEAR_MEM_DRAM_CHANNEL_HH
#define BEAR_MEM_DRAM_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/divisor.hh"
#include "common/types.hh"
#include "mem/dram_config.hh"
#include "obs/event_trace.hh"
#include "obs/histogram.hh"

namespace bear
{

/**
 * Per-bank activity counters (paper Section 7.4: bank conflicts are
 * where bandwidth bloat turns into queueing delay).  busyCycles is the
 * time the bank was occupied servicing commands; conflictStallCycles is
 * the time requests spent waiting for this bank to free up.
 */
struct BankCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowConflicts = 0;
    Cycles busyCycles{0};
    Cycles conflictStallCycles{0};
};

/** Timing outcome of one DRAM access. */
struct DramResult
{
    Cycle dataReady = 0;  ///< cycle at which the last data beat arrives
    Cycle queueDelay = 0; ///< cycles spent waiting for bank/bus resources
    bool rowHit = false;  ///< serviced from an open row buffer
};

/**
 * Gap-filling reservation timeline for the shared data bus.
 *
 * Requests reach the controller slightly out of time order (a
 * serialised miss issues its memory access when its probe completes,
 * in the future of other cores' clocks).  A single "bus free at T"
 * timestamp would make every earlier request queue behind the latest
 * reservation; instead the timeline keeps the set of busy intervals in
 * a sliding window and lets a request claim the first gap after its
 * ready time — which is exactly what an out-of-order memory controller
 * does with its command queue.
 *
 * Storage is a circular-index window over a power-of-two ring:
 * watermark pruning advances the head index (no front-erase memmove),
 * and the gap search resumes from the cached position of the previous
 * reservation, walking at most the out-of-order skew instead of
 * re-binary-searching from cold.  Middle insert/remove (rare: only
 * when a reservation lands strictly between coalesced neighbours)
 * shifts whichever side of the window is shorter.
 */
class BusTimeline
{
  public:
    /** Arrivals are never more than this far out of order. */
    static constexpr Cycle kSkewWindow = 1 << 14;

    /** Gaps shorter than the shortest burst can never be used; they
     *  are absorbed into neighbouring intervals on insert. */
    static constexpr Cycle kUselessGap = 3;

    BusTimeline();

    /** Reserve @p duration cycles no earlier than @p earliest;
     *  returns the scheduled start.  Defined inline below so that it
     *  fuses into DramChannel::service, its one caller. */
    Cycle reserve(Cycle earliest, Cycle duration);

    std::size_t intervals() const { return tail_ - head_; }

  private:
    struct Interval
    {
        Cycle start;
        Cycle end;
    };

    Interval &at(std::uint64_t i) { return ring_[i & mask_]; }
    const Interval &at(std::uint64_t i) const { return ring_[i & mask_]; }

    /** Double the ring, preserving absolute indices. */
    void grow();

    /** Open a slot at logical position @p pos (shifts the shorter
     *  side); returns the slot's absolute index after shifting. */
    std::uint64_t openSlot(std::uint64_t pos);

    /** Close the slot at logical position @p pos (shifts the shorter
     *  side). */
    void removeSlot(std::uint64_t pos);

    std::vector<Interval> ring_; ///< power-of-two circular storage
    std::uint64_t mask_ = 0;
    std::uint64_t head_ = 0; ///< absolute index of the oldest interval
    std::uint64_t tail_ = 0; ///< absolute index one past the newest
    std::uint64_t hint_ = 0; ///< gap-search resume point (absolute)
    Cycle watermark_ = 0;
};

inline Cycle
BusTimeline::reserve(Cycle earliest, Cycle duration)
{
    // Slide the pruning watermark forward and advance the head index
    // past intervals no future arrival can interact with — a circular
    // pop, not the front-erase memmove of a flat vector.
    if (earliest > watermark_)
        watermark_ = earliest;
    const Cycle horizon =
        watermark_ > kSkewWindow ? watermark_ - kSkewWindow : 0;
    while (head_ != tail_ && at(head_).end < horizon)
        ++head_;

    // First-fit gap search.  The boundary (first interval whose end
    // lies past `earliest`) is found by resuming from the cached hint:
    // arrivals are near-monotonic, so it sits within a step or two of
    // where the previous reservation landed, instead of a cold binary
    // search over the whole window.
    std::uint64_t pos = std::clamp(hint_, head_, tail_);
    while (pos > head_ && at(pos - 1).end > earliest)
        --pos;
    while (pos < tail_ && at(pos).end <= earliest)
        ++pos;
    Cycle candidate = earliest;
    for (; pos < tail_; ++pos) {
        if (candidate + duration <= at(pos).start)
            break;
        if (at(pos).end > candidate)
            candidate = at(pos).end;
    }

    // Insert [candidate, candidate+duration).  Neighbouring gaps too
    // small for the shortest possible burst are absorbed so that the
    // timeline stays compact (they could never be reserved anyway).
    const Cycle end = candidate + duration;
    const bool touch_prev =
        pos > head_ && candidate <= at(pos - 1).end + kUselessGap;
    const bool touch_next =
        pos < tail_ && at(pos).start <= end + kUselessGap;
    if (touch_prev && touch_next) {
        at(pos - 1).end = at(pos).end;
        removeSlot(pos);
        hint_ = pos - 1;
    } else if (touch_prev) {
        at(pos - 1).end = end;
        hint_ = pos - 1;
    } else if (touch_next) {
        at(pos).start = candidate;
        hint_ = pos;
    } else {
        if (tail_ - head_ == ring_.size())
            grow();
        hint_ = openSlot(pos);
        at(hint_) = Interval{candidate, end};
    }
    return candidate;
}

/** One DRAM channel: banks plus a shared bidirectional data bus. */
class DramChannel
{
  public:
    DramChannel(const DramTiming &timing, const DramGeometry &geometry,
                const WriteQueuePolicy &wq);

    /**
     * Timed read of @p volume from (@p bank, @p row) arriving at @p at.
     * May first trigger a write-queue drain if the queue is full.
     */
    DramResult read(Cycle at, std::uint32_t bank, std::uint64_t row,
                    Bytes volume);

    /**
     * Enqueue a write of @p volume to (@p bank, @p row).  Writes are
     * posted: the caller never waits for them, but they consume bus and
     * bank time when the queue drains.
     */
    void write(Cycle at, std::uint32_t bank, std::uint64_t row,
               Bytes volume);

    /** Drain arrived writes down to @p target entries, starting at @p at. */
    void drainWrites(Cycle at, std::uint32_t target);

    /** Writes whose arrival time is <= @p at (queue is arrival-sorted).
     *  Amortised O(1): the count is resumed from a cached cursor that
     *  tracks the near-monotonic query times. */
    std::uint32_t arrivedWrites(Cycle at) const;

    /** Force-drain everything, future-stamped writes included. */
    void
    drainAll(Cycle at)
    {
        const Cycle horizon = wq_head_ == wq_tail_
            ? at
            : std::max(at, wqAt(wq_tail_ - 1).arrival);
        drainWrites(horizon, 0);
    }

    Bytes bytesTransferred() const { return bytes_transferred_; }
    double avgReadQueueDelay() const { return queue_delay_hist_.mean(); }
    double avgReadLatency() const { return read_latency_hist_.mean(); }
    std::uint64_t readCount() const { return reads_; }
    std::uint64_t writeCount() const { return writes_; }
    std::uint64_t rowHitCount() const { return row_hits_; }
    std::uint64_t busBusyCycles() const { return bus_busy_cycles_; }
    std::size_t writeQueueDepth() const { return wq_tail_ - wq_head_; }

    /** Fixed write-ring capacity (power of two covering the backstop
     *  high-water mark; the ring never reallocates mid-run). */
    std::size_t writeQueueCapacity() const { return write_ring_.size(); }

    /** Per-bank activity since the last resetStats(). */
    const BankCounters &
    bankCounters(std::uint32_t bank) const
    {
        return bank_stats_[bank];
    }

    /** Read service-latency distribution (arrival to last data beat).
     *  Also the source of avgReadLatency(): the histogram's exact mean
     *  replaces the legacy double-sampled scalar Average. */
    const obs::LatencyHistogram &
    readLatencyHistogram() const
    {
        return read_latency_hist_;
    }

    /** Read queueing-delay distribution (bank/bus contention time). */
    const obs::LatencyHistogram &
    queueDelayHistogram() const
    {
        return queue_delay_hist_;
    }

    /** Write-queue occupancy distribution, sampled at each post. */
    const obs::DepthHistogram &
    writeQueueDepthHistogram() const
    {
        return write_queue_depth_hist_;
    }

    /** First request arrival observed since the last resetStats(). */
    Cycle activityStart() const { return activity_start_; }

    /** Last data-beat completion observed since the last resetStats(). */
    Cycle activityEnd() const { return activity_end_; }

    /**
     * Attach (or detach with nullptr) an event trace; @p bank_id_base
     * offsets this channel's bank indices into the system-wide flat
     * bank id recorded with BankConflictStall events.
     */
    void
    setTrace(obs::EventTrace *trace, std::uint32_t bank_id_base)
    {
        trace_ = trace;
        bank_id_base_ = bank_id_base;
    }

    /** Zero all statistics (warm-up boundary); timing state is kept. */
    void resetStats();

  private:
    struct Bank
    {
        Cycle ready = 0;        ///< bank free for a new command
        Cycle lastActivate = 0; ///< for the tRAS constraint
        std::uint64_t openRow = ~0ULL;
        bool rowOpen = false;
    };

    struct PendingWrite
    {
        Cycle arrival;
        std::uint32_t bank;
        std::uint64_t row;
        Bytes volume;
    };

    PendingWrite &wqAt(std::uint64_t i) { return write_ring_[i & wq_mask_]; }
    const PendingWrite &
    wqAt(std::uint64_t i) const
    {
        return write_ring_[i & wq_mask_];
    }

    /** Shared service path for reads and drained writes; drained
     *  writes were byte-accounted at post time. */
    DramResult service(Cycle at, std::uint32_t bank_idx, std::uint64_t row,
                       Bytes volume, bool account_bytes = true);

    /** Bus time of a burst moving @p volume (whole beats, rounded up). */
    Cycle burstCycles(Bytes volume) const;

    DramTiming timing_;
    DramGeometry geometry_;
    Divisor beat_split_; ///< bytes -> bus beats
    WriteQueuePolicy wq_policy_;

    std::vector<Bank> banks_;
    BusTimeline bus_;

    /**
     * Arrival-sorted write queue as a fixed-capacity power-of-two ring.
     * Posting shifts at most the out-of-order tail (writes arrive
     * nearly in order), popping advances the head, and the arrived
     * count below is cursor-cached — all amortised O(1).  The capacity
     * covers the 4 * drainHigh overflow backstop exactly, so the ring
     * is asserted never to grow (DESIGN.md §15).
     */
    std::vector<PendingWrite> write_ring_;
    std::uint64_t wq_mask_ = 0;
    std::uint64_t wq_head_ = 0; ///< absolute index of the oldest write
    std::uint64_t wq_tail_ = 0; ///< absolute index one past the newest
    /** Cursor of the first not-yet-arrived entry from the last
     *  arrivedWrites() query (absolute index; re-clamped per query). */
    mutable std::uint64_t wq_arrived_hint_ = 0;

    Bytes bytes_transferred_{0};
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t row_hits_ = 0;
    std::uint64_t bus_busy_cycles_ = 0;

    std::vector<BankCounters> bank_stats_;
    obs::LatencyHistogram read_latency_hist_;
    obs::LatencyHistogram queue_delay_hist_;
    obs::DepthHistogram write_queue_depth_hist_;
    Cycle activity_start_ = ~Cycle{0};
    Cycle activity_end_ = 0;
    obs::EventTrace *trace_ = nullptr;
    std::uint32_t bank_id_base_ = 0;
};

} // namespace bear

#endif // BEAR_MEM_DRAM_CHANNEL_HH
