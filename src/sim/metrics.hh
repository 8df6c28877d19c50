/**
 * @file
 * Figures of merit (paper Section 3.3-3.4) and aggregation helpers.
 *
 * Rate-mode performance is total execution time; mixed workloads use
 * weighted speedup (Equation 2).  Averages across workload sets are
 * geometric means.  All "speedup" numbers reported by the benches are
 * ratios against a named baseline run of the same workload.
 */

#ifndef BEAR_SIM_METRICS_HH
#define BEAR_SIM_METRICS_HH

#include <string>
#include <vector>

#include "sim/system.hh"

namespace bear
{

/** One completed run: workload + design + measured statistics. */
struct RunResult
{
    std::string workload;
    std::string design;
    bool isMix = false;
    SystemStats stats;
    /** IPC_alone per core slot (mix mode; empty for rate mode). */
    std::vector<double> ipcAlone;
};

/** Rate mode: execution-time ratio baseline/config (higher = faster). */
double rateSpeedup(const RunResult &baseline, const RunResult &config);

/** Weighted speedup of a mix run (Equation 2). */
double weightedSpeedup(const RunResult &run);

/**
 * Normalised performance of @p config against @p baseline: time ratio
 * for rate workloads, weighted-speedup ratio for mixes.
 */
double normalizedSpeedup(const RunResult &baseline,
                         const RunResult &config);

/** Geometric mean of per-workload speedups. */
double aggregateSpeedup(const std::vector<double> &speedups);

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &values);

} // namespace bear

#endif // BEAR_SIM_METRICS_HH
