#include "dramcache/alloy_cache.hh"

#include "common/log.hh"

namespace bear
{

AlloyCache::AlloyCache(const AlloyConfig &config, DramSystem &dram,
                       DramSystem &memory, BloatTracker &bloat)
    : DramCache(dram, memory, bloat), config_(config),
      sets_(Bytes{config.capacityBytes} / kLineSize), split_(sets_),
      layout_(sets_, dram.geometry()),
      tags_(TagStoreConfig{sets_, 1, TagRepl::None, 1, 0,
                           directMappedMaxTag(sets_)}),
      fill_rng_(config.seed)
{
    if (config_.inclusive) {
        bear_assert(config_.fillPolicy == FillPolicy::Always,
                    "an inclusive DRAM cache cannot bypass fills "
                    "(paper Section 5.1)");
        bear_assert(!config_.useDcp,
                    "DCP is redundant under inclusion: writebacks are "
                    "guaranteed to hit");
    }
    if (config_.useMapI)
        mapi_ = std::make_unique<MapIPredictor>(config.cores);
    if (config_.fillPolicy == FillPolicy::BandwidthAware) {
        BabConfig bab = config_.bab;
        bab.bypassProbability = config_.bypassProbability;
        bab_ = std::make_unique<BandwidthAwareBypass>(sets_, bab,
                                                      config.seed ^ 0xBAB);
    }
    if (config_.useNtc) {
        ntc_ = std::make_unique<NeighboringTagCache>(
            dram.geometry().totalBanks(), config.ntcEntriesPerBank);
    }
    if (config_.useTtc) {
        // One logical "bank": a global LRU pool over recent sets.
        ttc_ = std::make_unique<NeighboringTagCache>(1,
                                                     config.ttcEntries);
    }
}

std::uint32_t
AlloyCache::bankIdOf(const DramCoord &coord) const
{
    return coord.channel * dram_.geometry().banksPerChannel + coord.bank;
}

bool
AlloyCache::decideBypass(std::uint64_t set)
{
    switch (config_.fillPolicy) {
      case FillPolicy::Always:
        return false;
      case FillPolicy::Probabilistic:
        return fill_rng_.chance(config_.bypassProbability);
      case FillPolicy::BandwidthAware:
        return bab_->shouldBypass(set);
    }
    bear_panic("bad fill policy");
}

void
AlloyCache::recordTemporal(std::uint64_t set)
{
    if (!ttc_)
        return;
    ttc_->record(0, set, tags_.tagAt(set, 0), tags_.validAt(set, 0),
                 tags_.dirtyAt(set, 0));
}

void
AlloyCache::captureNeighbor(std::uint64_t set, const DramCoord &coord)
{
    if (!ntc_)
        return;
    const std::uint64_t neighbor = layout_.neighborOf(set);
    if (neighbor == sets_)
        return;
    // The neighbour shares the row, hence the bank, with @p set.
    ntc_->record(bankIdOf(coord), neighbor, tags_.tagAt(neighbor, 0),
                 tags_.validAt(neighbor, 0),
                 tags_.dirtyAt(neighbor, 0));
}

void
AlloyCache::install(Cycle at, std::uint64_t set, LineAddr line,
                    const DramCoord &coord, bool victim_known)
{
    if (tags_.validAt(set, 0)) {
        const LineAddr victim_line = tags_.tagAt(set, 0) * sets_ + set;
        if (tags_.dirtyAt(set, 0)) {
            if (!victim_known) {
                // No probe fetched the victim: read it out before
                // overwriting (Dirty Eviction bandwidth, Section 8).
                dram_.read(at, coord, kTadTransfer);
                bloat_.note(BloatCategory::DirtyEviction, kTadTransfer);
            }
            memory_.writeLine(at, victim_line);
        }
        if (notifyEviction(victim_line)) {
            // Inclusive flow: a dirty on-chip copy was dropped by the
            // back-invalidation; its data goes to main memory.
            memory_.writeLine(at, victim_line);
        }
    }
    const std::uint64_t tag = tagOf(line);
    tags_.install(set, 0, tag);
    dram_.write(at, coord, kTadTransfer);
    bloat_.note(BloatCategory::MissFill, kTadTransfer);
    if (trace_) {
        trace_->record(obs::TraceEventKind::Fill, at, line,
                       kTadTransfer.count());
    }
    if (ntc_)
        ntc_->updateIfCached(bankIdOf(coord), set, tag, true, false);
    if (ttc_)
        ttc_->updateIfCached(0, set, tag, true, false);
}

DramCacheReadOutcome
AlloyCache::serviceRead(Cycle at, LineAddr line, Pc pc, CoreId core)
{
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    const DramCoord coord = layout_.coordOf(set);
    const bool actual_hit = tags_.probe(set, tag).hit;

    DramCacheReadOutcome outcome;

    bool parallel_mem = false;
    if (mapi_) {
        const bool predicted_hit = mapi_->predictHit(core, pc);
        parallel_mem = !predicted_hit;
    }

    NtcVerdict verdict = NtcVerdict::NoInfo;
    bool verdict_from_ttc = false;
    if (ntc_)
        verdict = ntc_->lookup(bankIdOf(coord), set, tag);
    if (verdict == NtcVerdict::NoInfo && ttc_) {
        verdict = ttc_->lookup(0, set, tag);
        verdict_from_ttc = verdict != NtcVerdict::NoInfo;
    }

    if (verdict == NtcVerdict::Present) {
        bear_assert(actual_hit, "NTC presence guarantee violated");
        if (parallel_mem) {
            // Side benefit (Section 6.2): squash the useless parallel
            // memory access the miss predictor would have issued.
            parallel_mem = false;
            ++parallel_squashed_;
        }
    }
    const bool guaranteed_miss = verdict == NtcVerdict::AbsentClean
        || verdict == NtcVerdict::AbsentDirty;
    if (guaranteed_miss)
        bear_assert(!actual_hit, "NTC absence guarantee violated");

    if (bab_)
        bab_->recordAccess(set, actual_hit);

    if (guaranteed_miss) {
        // Miss Probe avoided: go straight to main memory.
        if (verdict_from_ttc) {
            ttc_->noteProbeAvoided();
            ++ttc_probes_avoided_;
        } else {
            ntc_->noteProbeAvoided();
            ++probes_avoided_;
        }
        if (trace_)
            trace_->record(obs::TraceEventKind::NtcAvoidedProbe, at, line);
        if (mapi_)
            mapi_->update(core, pc, false);

        const DramResult mem = memory_.readLine(at, line);
        outcome.source = ServiceSource::NtcAvoidedProbe;
        outcome.dataReady = mem.dataReady;

        if (!decideBypass(set)) {
            if (verdict == NtcVerdict::AbsentDirty) {
                // Filling over a dirty victim still requires the probe
                // read, for correctness (Section 6.1).
                dram_.read(at, coord, kTadTransfer);
                bloat_.note(BloatCategory::MissProbe, kTadTransfer);
            }
            install(at, set, line, coord, /*victim_known=*/true);
            outcome.presentAfter = true;
        } else {
            ++fills_bypassed_;
            if (trace_)
                trace_->record(obs::TraceEventKind::Bypass, at, line);
        }
        recordTemporal(set);
        return outcome;
    }

    // Normal path: probe the TAD (this read services hits directly).
    const DramResult probe = dram_.read(at, coord, kTadTransfer);
    captureNeighbor(set, coord);

    if (parallel_mem) {
        // Speculative parallel access to main memory.
        const DramResult mem = memory_.readLine(at, line);
        if (actual_hit) {
            ++parallel_wasted_;
            (void)mem;
        } else {
            // The prediction paid off: data comes from memory without
            // waiting for the probe to confirm the miss.
            outcome.dataReady = std::max(mem.dataReady, probe.dataReady);
        }
    }

    if (mapi_)
        mapi_->update(core, pc, actual_hit);

    if (actual_hit) {
        bloat_.noteHit(kTadTransfer);
        outcome.source = ServiceSource::L4Hit;
        outcome.presentAfter = true;
        outcome.dataReady = probe.dataReady;
        recordTemporal(set);
        return outcome;
    }

    // Actual miss through the probe path.
    bloat_.note(BloatCategory::MissProbe, kTadTransfer);
    if (!parallel_mem) {
        // Predicted hit but missed: memory access serialises behind
        // the probe.
        const DramResult mem = memory_.readLine(probe.dataReady, line);
        outcome.dataReady = mem.dataReady;
    }

    if (!decideBypass(set)) {
        outcome.source = ServiceSource::L4MissMemory;
        install(probe.dataReady, set, line, coord, /*victim_known=*/true);
        outcome.presentAfter = true;
    } else {
        outcome.source = ServiceSource::BypassedMemory;
        ++fills_bypassed_;
        if (trace_)
            trace_->record(obs::TraceEventKind::Bypass, at, line);
    }
    recordTemporal(set);
    return outcome;
}

Cycle
AlloyCache::serviceWriteback(const WritebackRequest &request)
{
    const Cycle at = request.issuedAt;
    const LineAddr line = request.line;
    const bool dcp = request.dcpPresent;
    const std::uint64_t set = setOf(line);
    const std::uint64_t tag = tagOf(line);
    const DramCoord coord = layout_.coordOf(set);
    const bool present = tags_.probe(set, tag).hit;

    auto do_update = [&](Cycle when) {
        tags_.setDirty(set, 0, true);
        dram_.write(when, coord, kTadTransfer);
        bloat_.note(BloatCategory::WritebackUpdate, kTadTransfer);
        if (ntc_) {
            ntc_->updateIfCached(bankIdOf(coord), set,
                                 tags_.tagAt(set, 0), true, true);
        }
        if (ttc_)
            ttc_->updateIfCached(0, set, tags_.tagAt(set, 0), true, true);
        ++writeback_hits_;
    };

    if (config_.inclusive) {
        // Inclusion guarantees residence for any line the LLC holds;
        // a writeback can still race with a concurrent DRAM-cache
        // eviction of the same line (the back-invalidation and the
        // in-flight writeback cross).  The dirty data then goes to
        // main memory, as the hardware flow would route it.
        ++wb_probes_avoided_;
        if (present) {
            do_update(at);
        } else {
            ++wb_races_;
            ++writeback_misses_;
            memory_.writeLine(at, line);
        }
        return at;
    }

    if (config_.useDcp) {
        ++wb_probes_avoided_;
        if (trace_)
            trace_->record(obs::TraceEventKind::DcpShortCircuit, at, line);
        if (dcp && present) {
            // The common case: guaranteed resident, update in place.
            do_update(at);
        } else if (!dcp && !present) {
            // Guaranteed absent under the no-allocate writeback
            // policy: send the dirty data straight to main memory.
            ++writeback_misses_;
            memory_.writeLine(at, line);
        } else {
            // In-flight race: the presence bit was captured at LLC
            // eviction time and the DRAM cache changed underneath
            // (eviction notification or demand fill crossing this
            // writeback).  Resolve by the actual state.
            ++wb_races_;
            if (present) {
                do_update(at);
            } else {
                ++writeback_misses_;
                memory_.writeLine(at, line);
            }
        }
        return at;
    }

    // Baseline: Writeback Probe, then update or forward to memory.
    const DramResult probe = dram_.read(at, coord, kTadTransfer);
    bloat_.note(BloatCategory::WritebackProbe, kTadTransfer);
    if (trace_) {
        trace_->record(obs::TraceEventKind::WritebackProbe, at, line,
                       kTadTransfer.count());
    }
    if (ntc_)
        captureNeighbor(set, coord);
    if (present) {
        do_update(probe.dataReady);
        return probe.dataReady;
    }
    ++writeback_misses_;
    if (!config_.writebackAllocate) {
        memory_.writeLine(probe.dataReady, line);
        return probe.dataReady;
    }
    // Writeback-allocate ablation: install the dirty line, replacing
    // the resident victim (the probe already fetched it, so a dirty
    // victim costs no extra read — paper footnote 4).
    if (tags_.validAt(set, 0)) {
        const LineAddr victim_line = tags_.tagAt(set, 0) * sets_ + set;
        if (tags_.dirtyAt(set, 0))
            memory_.writeLine(probe.dataReady, victim_line);
        if (notifyEviction(victim_line))
            memory_.writeLine(probe.dataReady, victim_line);
    }
    tags_.install(set, 0, tag, /*dirty=*/true);
    dram_.write(probe.dataReady, coord, kTadTransfer);
    bloat_.note(BloatCategory::WritebackFill, kTadTransfer);
    if (ntc_)
        ntc_->updateIfCached(bankIdOf(coord), set, tag, true, true);
    if (ttc_)
        ttc_->updateIfCached(0, set, tag, true, true);
    return probe.dataReady;
}

void
AlloyCache::prefetch(LineAddr line) const
{
    tags_.prefetch(setOf(line));
}

bool
AlloyCache::contains(LineAddr line) const
{
    return tags_.probe(setOf(line), tagOf(line)).hit;
}

bool
AlloyCache::isDirty(LineAddr line) const
{
    const std::uint64_t set = setOf(line);
    return tags_.probe(set, tagOf(line)).hit && tags_.dirtyAt(set, 0);
}

Bytes
AlloyCache::sramOverheadBytes() const
{
    std::uint64_t bits = 0;
    if (mapi_)
        bits += mapi_->storageBits();
    if (bab_)
        bits += bab_->storageBits();
    Bytes total{(bits + 7) / 8};
    if (ntc_)
        total += ntc_->storageBytes();
    if (ttc_) {
        // ~6 bytes per entry: set index + tag + valid/dirty bits.
        total += Bytes{static_cast<std::uint64_t>(config_.ttcEntries) * 6};
    }
    return total;
}

void
AlloyCache::resetStats()
{
    DramCache::resetStats();
    fills_bypassed_ = 0;
    wb_races_ = 0;
    probes_avoided_ = 0;
    ttc_probes_avoided_ = 0;
    wb_probes_avoided_ = 0;
    parallel_squashed_ = 0;
    parallel_wasted_ = 0;
    if (mapi_)
        mapi_->resetStats();
    if (bab_)
        bab_->resetStats();
    if (ntc_)
        ntc_->resetStats();
    if (ttc_)
        ttc_->resetStats();
}

} // namespace bear
