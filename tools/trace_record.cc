/**
 * @file
 * Record a synthetic workload profile into a .beartrace file.
 *
 *   trace_record <profile> <out.beartrace> [--refs N] [--cores N]
 *                [--seed S]
 *   trace_record --selftest
 *
 * The recorded streams use exactly the runner's construction — one
 * WorkloadStream per core, seeded seed + 0x1000*(core+1), scaled by
 * BEAR_SCALE — so a file recorded here and replayed through
 * BEAR_TRACE_IN reproduces a live run of the same profile
 * byte-for-byte (the round-trip CI smoke and test_trace assert this).
 * --refs is per core and defaults to the runner's warm-up + measure
 * budget, i.e. one full run's worth of references; BEAR_WARMUP /
 * BEAR_MEASURE / BEAR_SCALE apply as usual.
 *
 * The self-test records a small two-core trace to a temporary file,
 * reads it back record-for-record, and checks the totals, so CI
 * exercises the writer→reader path with zero simulation.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "tools/tool_args.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workloads/workload.hh"

namespace
{

const char *const kUsage =
    "usage: trace_record <profile> <out.beartrace> [--refs N]\n"
    "                    [--cores N] [--seed S]\n"
    "       trace_record --selftest\n"
    "  <profile>  a Table 2 benchmark name (e.g. mcf, libquantum)\n"
    "  --refs     references per core (default: BEAR_WARMUP +\n"
    "             BEAR_MEASURE, one full run)\n"
    "  --cores    recorded streams (default 8)\n"
    "  --seed     base seed (default 0x5EED); core c uses\n"
    "             seed + 0x1000*(c+1), matching the sim runner\n";

int
record(const std::string &profile_name, const std::string &out_path,
       std::uint64_t refs_per_core, std::uint32_t cores,
       std::uint64_t seed, double scale)
{
    const bear::WorkloadProfile &profile =
        bear::profileByName(profile_name);

    bear::trace::TraceMeta meta;
    meta.workload = profile.name;
    meta.seed = seed;
    meta.coreCount = cores;
    auto created = bear::trace::TraceWriter::create(out_path, meta);
    if (!created.hasValue()) {
        std::fprintf(stderr, "trace_record: %s\n",
                     created.error().message().c_str());
        return 1;
    }
    bear::trace::TraceWriter writer = std::move(created.value());

    for (std::uint32_t c = 0; c < cores; ++c) {
        bear::WorkloadStream stream(profile, seed + 0x1000 * (c + 1),
                                    scale);
        for (std::uint64_t i = 0; i < refs_per_core; ++i) {
            auto appended = writer.append(c, stream.next());
            if (!appended.hasValue()) {
                std::fprintf(stderr, "trace_record: %s\n",
                             appended.error().message().c_str());
                return 1;
            }
        }
    }

    auto finished = writer.finish();
    if (!finished.hasValue()) {
        std::fprintf(stderr, "trace_record: %s\n",
                     finished.error().message().c_str());
        return 1;
    }
    std::printf("recorded %llu references (%u cores x %llu) of %s "
                "to %s\n",
                static_cast<unsigned long long>(*finished), cores,
                static_cast<unsigned long long>(refs_per_core),
                profile.name.c_str(), out_path.c_str());
    return 0;
}

int
selftest()
{
    const bear::tools::TempFile temp("beartrace-selftest");
    if (!temp.valid()) {
        std::fprintf(stderr, "selftest: mkstemp failed\n");
        return 1;
    }
    const std::string &path = temp.path();

    constexpr std::uint32_t kCores = 2;
    constexpr std::uint64_t kRefs = 500;
    int rc = record("mcf", path, kRefs, kCores, 42, 0.0625);
    if (rc == 0) {
        auto loaded = bear::trace::loadTrace(path);
        if (!loaded.hasValue()) {
            std::fprintf(stderr, "selftest: decode failed: %s\n",
                         loaded.error().message().c_str());
            rc = 1;
        } else {
            std::uint64_t records = 0;
            for (const auto &core : loaded->coreRecords)
                records += core.size();
            if (records != kCores * kRefs) {
                std::fprintf(stderr,
                             "selftest: FAILED: read %llu of %llu "
                             "records\n",
                             static_cast<unsigned long long>(records),
                             static_cast<unsigned long long>(
                                 kCores * kRefs));
                rc = 1;
            }
        }
    }
    if (rc == 0)
        std::printf("selftest passed\n");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const bear::tools::ToolArgs args(
        argc, argv, {"refs", "cores", "seed"}, kUsage);
    if (args.selftest())
        return selftest();
    if (args.positional().size() != 2)
        args.fail("expected <profile> and <out.beartrace>");

    const bear::RunnerOptions options = bear::RunnerOptions::fromEnv();
    const std::uint64_t refs = args.u64Or(
        "refs",
        options.warmupRefsPerCore + options.measureRefsPerCore);
    const auto cores = static_cast<std::uint32_t>(
        args.u64Or("cores", options.cores));
    const std::uint64_t seed = args.u64Or("seed", options.seed);
    if (refs == 0 || cores == 0)
        args.fail("--refs and --cores must be positive");

    return record(args.positional()[0], args.positional()[1], refs,
                  cores, seed, options.scale);
}
