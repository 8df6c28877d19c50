/**
 * @file
 * SPEC-like synthetic workload model (substitute for the paper's
 * SimPoint traces, see DESIGN.md).
 *
 * Each benchmark of Table 2 is described by a WorkloadProfile whose
 * parameters reproduce the statistics that drive the paper's results:
 * the L3 access intensity (derived from the published L3 MPKI), the
 * memory footprint, the store fraction (writeback pressure), the
 * spatial run length (row-buffer and NTC locality), the dependent-load
 * fraction (memory-level parallelism), and a three-region reuse
 * mixture:
 *
 *  - a hot region, small enough to be mostly L3-resident,
 *  - a warm region, sized to the DRAM cache, whose reuse makes fills
 *    valuable (bypassing hurts workloads dominated by it),
 *  - a cold region spanning the full footprint, streamed cyclically or
 *    touched at random, whose lines are rarely re-referenced (fills
 *    are wasted bandwidth — the opportunity BAB exploits).
 *
 * WorkloadStream turns a profile into a deterministic MemRef stream.
 */

#ifndef BEAR_WORKLOADS_WORKLOAD_HH
#define BEAR_WORKLOADS_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "core/trace.hh"

namespace bear
{

/** Parameterisation of one benchmark (see Table 2 of the paper). */
struct WorkloadProfile
{
    std::string name;
    double l3Mpki = 10.0;              ///< Table 2, drives intensity
    std::uint64_t footprintBytes = 1ULL << 30; ///< Table 2
    /** L3 accesses per kilo-instruction = l3Mpki * apkiFactor. */
    double apkiFactor = 1.4;
    double writeFraction = 0.3;
    double dependentFraction = 0.3;
    double spatialRunMean = 4.0;

    /**
     * Region touch probabilities.  Sizes are absolute full-scale bytes
     * (they shrink with the run's scale factor together with the
     * caches): the hot region is sized to the per-core L3 share
     * (~1 MB), the warm region to a fraction of the per-core DRAM-cache
     * share (~128 MB for 8 cores / 1 GB).
     */
    double hotProb = 0.10;
    std::uint64_t hotBytes = 768ULL << 10;
    double warmProb = 0.45;
    std::uint64_t warmBytes = 96ULL << 20;

    /**
     * Short-term reuse: probability of re-touching a line referenced
     * recently (drawn from a trailing window).  These re-touches are
     * the accesses that make Miss Fills worthwhile — a high value
     * makes naive bypass costly (GemsFDTD, zeusmp in Figure 5), a low
     * value means most fills are dead on arrival.
     */
    double reuseProb = 0.10;
    std::uint32_t reuseWindowLines = 8192;

    bool coldStreams = true; ///< cyclic sequential vs uniform random
    std::uint32_t pcCount = 64;
};

/** Deterministic reference stream for one core running one profile. */
class WorkloadStream : public RefStream
{
  public:
    /**
     * @param profile benchmark description
     * @param seed    per-core seed (copies in rate mode get distinct
     *                seeds so their access phases decorrelate)
     * @param scale   capacity scale factor of the run (footprints are
     *                scaled together with the caches, see DESIGN.md)
     */
    WorkloadStream(const WorkloadProfile &profile, std::uint64_t seed,
                   double scale = 1.0);

    MemRef next() override;

    /** Generates up to @p k + 1 references ahead into a small ring;
     *  nullptr for k >= kMaxPeek. */
    const MemRef *peek(std::size_t k) override;

    const WorkloadProfile &profile() const { return profile_; }
    std::uint64_t footprintLines() const { return cold_.sizeLines; }

  private:
    struct Region
    {
        std::uint64_t baseLine = 0;
        std::uint64_t sizeLines = 1;
        std::uint64_t cursor = 0;
        bool streaming = false;
    };

    /** The next reference of the generator proper. */
    MemRef generate();

    /** Pick the region for the next run and its starting line. */
    void startRun();

    /** Emit @p line, recording it in the reuse window. */
    MemRef emit(std::uint64_t line);

    WorkloadProfile profile_;
    Rng rng_;
    double mean_gap_;

    Region hot_;
    Region warm_;
    Region cold_;

    Region *run_region_ = nullptr;
    std::uint64_t run_line_ = 0;
    std::uint32_t run_remaining_ = 0;
    Pc run_pc_ = 0;

    std::vector<std::uint64_t> reuse_window_;
    std::uint32_t reuse_cursor_ = 0;

    /** Generated but not yet consumed references, oldest first. */
    std::array<MemRef, kMaxPeek> ahead_{};
    std::size_t ahead_head_ = 0;
    std::size_t ahead_count_ = 0;
};

/** Names of all 16 rate-mode benchmarks (Table 2 order). */
std::vector<std::string> rateWorkloadNames();

/** Look up a Table 2 profile by name; fatal on unknown names. */
const WorkloadProfile &profileByName(const std::string &name);

/** All 16 profiles. */
const std::vector<WorkloadProfile> &allProfiles();

} // namespace bear

#endif // BEAR_WORKLOADS_WORKLOAD_HH
