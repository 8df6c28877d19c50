/**
 * @file
 * bear_perfbench: runs one benchmark workload and prints its result
 * as the last line of stdout, one JSON object:
 *
 *   {"correct": B, "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": X, "unit": "U"}, ...}}
 *
 *   bear_perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--tiny] [--corrupt] [--work-dir DIR]
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones.  --tiny runs self-test budgets.  --corrupt damages the first
 * simulated and the first served report before they are checked, and
 * says so on stdout; each must then fail its operation (the
 * self-test's negative case).  Exit 0 with a result line, 2 on a
 * usage error, 1 on a fault that leaves no result.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace
{

const char *const kUsage =
    "usage: bear_perfbench --workload W --seed N --seconds S "
    "--trace 0|1 [--tiny] [--corrupt] [--work-dir DIR]\n";

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "bear_perfbench: %s\n%s", why.c_str(), kUsage);
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0')
        usage(flag + " wants an unsigned integer, got '" + text + "'");
    return v;
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (flag == "--corrupt") {
            args.corrupt = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parseU64(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = static_cast<double>(parseU64(flag, value));
            have_seconds = args.seconds > 0;
        } else if (flag == "--trace") {
            const std::uint64_t t = parseU64(flag, value);
            if (t > 1)
                usage("--trace wants 0 or 1");
            args.trace = t == 1;
            have_trace = true;
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.workload.empty() || !have_seed || !have_seconds
        || !have_trace)
        usage("--workload, --seed, --seconds (> 0) and --trace are "
              "required");

    perfbench::Result result;
    try {
        result = perfbench::runWorkload(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bear_perfbench: %s: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    for (const perfbench::Metric &m : result.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "bear_perfbench: %s: %s is not finite\n",
                         args.workload.c_str(), m.name.c_str());
            return 1;
        }
    }

    const bool correct = result.failed == 0 && result.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric &m = result.metrics[i];
        std::printf("%s", i ? ", " : "");
        printJsonString(m.name);
        std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
        printJsonString(m.unit);
        std::printf("}");
    }
    std::printf("}}\n");
    return 0;
}
