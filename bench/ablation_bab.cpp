/**
 * @file
 * Ablation: BAB's two tuning parameters — the bypass probability P and
 * the hit-rate-retention threshold that arms the set dueling.
 *
 * The paper picks P=90% and Delta = hit_rate/16 via a sensitivity
 * study (Section 4.2); this harness regenerates that design space on
 * the eight most memory-intensive rate benchmarks so the choice can be
 * audited.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace bear;

namespace
{

const char *kNames[] = {"mcf", "lbm", "soplex", "milc", "libquantum",
                        "omnetpp", "bwaves", "gcc"};

Cycle
runOnce(const char *name, std::optional<AlloyConfig> override_config,
        const RunnerOptions &options)
{
    SystemConfig config;
    config.design = DesignKind::Alloy;
    config.scale = options.scale;
    config.alloyOverride = std::move(override_config);
    std::vector<std::unique_ptr<RefStream>> streams;
    for (std::uint32_t c = 0; c < config.cores; ++c) {
        streams.push_back(std::make_unique<WorkloadStream>(
            profileByName(name), options.seed + 0x1000 * (c + 1),
            options.scale));
    }
    System sys(config, std::move(streams));
    sys.run(options.warmupRefsPerCore);
    sys.resetStats();
    sys.run(options.measureRefsPerCore);
    return sys.stats().execCycles;
}

/** Baseline Alloy cycles per workload, computed once. */
std::vector<Cycle>
baselines(const RunnerOptions &options)
{
    std::vector<Cycle> cycles;
    for (const char *name : kNames)
        cycles.push_back(runOnce(name, std::nullopt, options));
    return cycles;
}

double
geomeanSpeedup(const AlloyConfig &variant,
               const std::vector<Cycle> &base,
               const RunnerOptions &options)
{
    std::vector<double> speedups;
    for (std::size_t i = 0; i < std::size(kNames); ++i) {
        const Cycle cfg = runOnce(kNames[i], variant, options);
        speedups.push_back(static_cast<double>(base[i])
                           / static_cast<double>(cfg));
    }
    return geomean(speedups);
}

} // namespace

int
main()
{
    RunnerOptions options = RunnerOptions::fromEnv();
    printExperimentHeader(
        "Ablation: BAB parameters",
        "Bypass probability and hit-rate-retention sweep",
        "paper picks P=90% with Delta = baseline_hit_rate/16 "
        "(Section 4.2)",
        options);

    AlloyConfig bab;
    bab.fillPolicy = FillPolicy::BandwidthAware;
    const std::vector<Cycle> base = baselines(options);

    Table p_table({"bypass P", "BAB speedup vs Alloy"});
    for (const double p : {0.5, 0.75, 0.9, 0.99}) {
        AlloyConfig variant = bab;
        variant.bypassProbability = p;
        p_table.addRow(
            {Table::num(p, 2),
             Table::num(geomeanSpeedup(variant, base, options), 3)});
    }
    std::printf("(a) Bypass probability sweep\n%s\n",
                p_table.render().c_str());

    Table d_table({"retention", "BAB speedup vs Alloy"});
    for (const double retention : {1.0, 15.0 / 16.0, 7.0 / 8.0,
                                   3.0 / 4.0}) {
        AlloyConfig variant = bab;
        variant.bab.hitRateRetention = retention;
        d_table.addRow(
            {Table::num(retention, 3),
             Table::num(geomeanSpeedup(variant, base, options), 3)});
    }
    std::printf("(b) Hit-rate retention sweep (1.0 = no loss allowed)\n%s\n",
                d_table.render().c_str());
    return 0;
}
