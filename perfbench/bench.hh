/**
 * @file
 * What one benchmark run is asked to do and what it reports.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test budgets instead of measuring ones. */
    bool tiny = false;
    /** Corrupt the first report of each check (self-test). */
    bool corrupt = false;
    /** Scratch directory for traces, sockets and span files; a short
     *  relative path, since a Unix socket path is limited to 107
     *  bytes. */
    std::string workDir = ".bench_build/work";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The run's result line: operations counted and metrics measured. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Run @p args.workload; throws std::runtime_error on a set-up fault. */
Result runWorkload(const Args &args);

/** Peak resident set of this process in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
