/**
 * @file
 * The benchmark's three workloads, each in an untraced mode (the
 * end-to-end metrics) and a traced mode (the per-layer metrics).
 *
 * rate-mcf / rate-lbm time Alloy and BEAR cells in turn through
 * bear::Runner, the sweep entry point, with the runner's
 * default 400k-reference warm-up per core: enough to fill the 64 MB
 * scaled L4, so the measured phase sees a warmed cache.  serve-mix
 * runs closed-loop tenants against an in-process beard
 * (serve::Server/Client) that all upload the same recorded Table 3
 * mix trace with short budgets.
 *
 * Every operation (a cell or a session) is checked; a violation
 * counts it as failed and is printed to stderr.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/json.hh"
#include "mirror.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_stream_decoder.hh"
#include "trace/trace_writer.hh"
#include "workloads/mixes.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using bear::DesignKind;
using Streams = std::vector<std::unique_ptr<bear::RefStream>>;

constexpr std::uint32_t kCores = 8;
constexpr double kScale = 0.0625;

/** Served budgets: short, so per-session System construction and
 *  trace handling are a large share of a session. */
constexpr std::uint64_t kServeWarmup = 20000;
constexpr std::uint64_t kServeMeasure = 10000;
constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kTenants = 2;
/** Sessions per tenant in the traced serve leg. */
constexpr std::uint32_t kLegSessions = 4;

/** Set-ups timed per run: a rate set-up takes about a millisecond
 *  and spreads widely, a served one (recording included) about 50. */
constexpr int kRateSetupReps = 50; // per design
constexpr int kServeSetupReps = 15;

/**
 * Stream seeds per run; the exact metrics are their mean.  Over single
 * seeds BEAR's speedup on lbm falls into two clusters (about 1.02 and
 * 1.18), so one seed is a fragile estimate.
 */
constexpr std::size_t kSeedsPerRun = 3;

/** Self-test budgets: every path runs, nothing is measured. */
constexpr std::uint64_t kTinyWarmup = 2000;
constexpr std::uint64_t kTinyMeasure = 1000;

/** One reference in this many is timed in traced mode; a prime, so
 *  the sample never locks onto a trace chunk or a core's turn. */
constexpr std::uint64_t kSampleEvery = 257;

const DesignKind kDesigns[] = {DesignKind::Alloy, DesignKind::Bear};

double
now()
{
    return bear::wallSeconds();
}

/** What a workload simulates. */
struct Spec
{
    std::string name;
    std::string label;                   ///< profile or mix name
    std::vector<std::string> benchmarks; ///< one profile per core
    bool served = false;
};

Spec
specOf(const std::string &name)
{
    if (name == "rate-mcf" || name == "rate-lbm") {
        const std::string profile = name.substr(5);
        return {name, profile,
                std::vector<std::string>(kCores, profile), false};
    }
    if (name == "serve-mix") {
        const bear::MixSpec &mix = bear::tableThreeMixes().front();
        return {name, mix.name,
                std::vector<std::string>(mix.benchmarks.begin(),
                                         mix.benchmarks.end()),
                true};
    }
    throw std::runtime_error("unknown workload '" + name + "'");
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** The runner seed of a run's @p index-th stream seed. */
std::uint64_t
streamSeed(const Args &args, std::size_t index)
{
    return splitmix64(splitmix64(args.seed) + index);
}

/** Runner knobs; zero budgets keep the runner's defaults, whose
 *  400k-reference warm-up per core fills the 64 MB scaled L4. */
bear::RunnerOptions
runnerOptions(const Args &args, std::uint64_t warmup,
              std::uint64_t measure)
{
    bear::RunnerOptions o;
    o.scale = kScale;
    o.cores = kCores;
    o.workers = 1;
    o.seed = streamSeed(args, 0);
    if (args.tiny) {
        warmup = kTinyWarmup;
        measure = kTinyMeasure;
    }
    if (warmup)
        o.warmupRefsPerCore = warmup;
    if (measure)
        o.measureRefsPerCore = measure;
    return o;
}

bear::RunnerOptions
servedOptions(const Args &args)
{
    return runnerOptions(args, kServeWarmup, kServeMeasure);
}

bear::RunnerOptions
optionsOf(const Spec &spec, const Args &args)
{
    return spec.served ? servedOptions(args) : runnerOptions(args, 0, 0);
}

int
setupReps(const Spec &spec, const Args &args)
{
    if (args.tiny)
        return 1;
    return spec.served ? kServeSetupReps : kRateSetupReps;
}

/** What Runner builds for a job without per-job overrides. */
bear::SystemConfig
systemConfig(const bear::RunnerOptions &o, DesignKind design)
{
    bear::SystemConfig config;
    config.design = design;
    config.cores = o.cores;
    config.scale = o.scale;
    config.cacheCapacityBytes = o.cacheCapacityBytes;
    config.bandwidthRatio = o.bandwidthRatio;
    config.totalBanks = o.totalBanks;
    config.seed = o.seed;
    return config;
}

std::uint64_t
refsPerCell(const bear::RunnerOptions &o)
{
    return (o.warmupRefsPerCore + o.measureRefsPerCore) * o.cores;
}

/** The generators a Runner cell of @p spec builds (same seeds). */
Streams
generators(const Spec &spec, const bear::RunnerOptions &o)
{
    Streams streams;
    for (std::uint32_t c = 0; c < o.cores; ++c) {
        streams.push_back(std::make_unique<bear::WorkloadStream>(
            bear::profileByName(spec.benchmarks[c]),
            o.seed + 0x1000 * (c + 1), o.scale));
    }
    return streams;
}

Streams
replays(const std::string &path)
{
    Streams streams;
    for (std::uint32_t c = 0; c < kCores; ++c) {
        auto stream = bear::trace::TraceReplayStream::open(path, c);
        if (!stream.hasValue())
            throw std::runtime_error(path + ": "
                                     + stream.error().message());
        streams.push_back(std::move(stream.value()));
    }
    return streams;
}

/** The daemon's path from uploaded bytes to per-core streams. */
Streams
decoded(const std::vector<std::uint8_t> &bytes)
{
    bear::trace::StreamingTraceDecoder decoder;
    auto fed = decoder.feed(bytes.data(), bytes.size());
    auto done = fed.hasValue() ? decoder.finish() : fed;
    if (!done.hasValue())
        throw std::runtime_error("decode: " + done.error().message());
    Streams streams;
    for (auto &records : decoder.takeCoreRecords()) {
        streams.push_back(std::make_unique<bear::trace::VectorReplayStream>(
            std::move(records)));
    }
    return streams;
}

/** Record one cell's worth of @p spec's references to @p path. */
void
record(const Spec &spec, const bear::RunnerOptions &o,
       const std::string &path)
{
    bear::trace::TraceMeta meta;
    meta.workload = spec.label;
    meta.seed = o.seed;
    meta.coreCount = o.cores;
    auto created = bear::trace::TraceWriter::create(path, meta);
    if (!created.hasValue())
        throw std::runtime_error(created.error().message());
    bear::trace::TraceWriter writer = std::move(created.value());
    Streams streams = generators(spec, o);
    const std::uint64_t per_core =
        o.warmupRefsPerCore + o.measureRefsPerCore;
    for (std::uint32_t c = 0; c < o.cores; ++c) {
        for (std::uint64_t i = 0; i < per_core; ++i) {
            auto appended = writer.append(c, streams[c]->next());
            if (!appended.hasValue())
                throw std::runtime_error(appended.error().message());
        }
    }
    auto finished = writer.finish();
    if (!finished.hasValue())
        throw std::runtime_error(finished.error().message());
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/** One line per cell, so two commits' simulated results compare
 *  exactly. */
void
printDigest(const Spec &spec, const std::string &cell,
            std::uint64_t seed, const std::string &report)
{
    std::printf("digest %s %s seed=%llu %016llx\n", spec.name.c_str(),
                cell.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(fnv1a(report)));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/** Counts operations and prints their violations. */
class Ledger
{
  public:
    explicit Ledger(bool corrupt) : corrupt_(corrupt) {}

    /**
     * In corrupt mode, true the first time each @p check asks: the
     * caller then damages the report it is about to check, and the
     * self-test expects one failure per "corrupted:" line.
     */
    bool
    takeCorruption(const std::string &check)
    {
        if (!corrupt_ || !corrupted_.insert(check).second)
            return false;
        std::printf("corrupted: the first %s report\n", check.c_str());
        return true;
    }

    void
    count(const std::string &operation,
          const std::vector<std::string> &violations)
    {
        ++attempted;
        if (violations.empty())
            return;
        ++failed;
        for (const std::string &v : violations)
            std::fprintf(stderr, "FAIL %s: %s\n", operation.c_str(),
                         v.c_str());
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    bool corrupt_;
    std::set<std::string> corrupted_;
};

/** The invariants every simulated report must satisfy. */
std::vector<std::string>
reportViolations(bear::RunResult result, Ledger &ledger)
{
    if (ledger.takeCorruption("simulated"))
        result.stats.l4BytesTransferred += bear::Bytes{64};
    std::vector<std::string> v;
    bear::Bytes ledgered{0};
    for (const bear::Bytes b : result.stats.bloatBytes)
        ledgered += b;
    if (ledgered != result.stats.l4BytesTransferred) {
        v.push_back("L4 bus bytes "
                    + std::to_string(
                        result.stats.l4BytesTransferred.count())
                    + " != sum of bloatBytes "
                    + std::to_string(ledgered.count()));
    }
    const auto hit =
        static_cast<std::size_t>(bear::BloatCategory::HitProbe);
    if (result.design == bear::designName(DesignKind::Alloy)
        && result.stats.bloatBreakdown.at(hit) != 1.25) {
        v.push_back("Alloy Hit-category bloat factor "
                    + std::to_string(result.stats.bloatBreakdown[hit])
                    + " != 1.25");
    }
    return v;
}

bear::RunJob
jobOf(const Spec &spec, DesignKind design)
{
    bear::RunJob job;
    job.design = design;
    job.rateBenchmark = spec.label;
    return job;
}

std::string
cellName(DesignKind design)
{
    return bear::designName(design);
}

/** A started in-process beard, drained and joined on destruction. */
class Daemon
{
  public:
    Daemon(const bear::RunnerOptions &o, const std::string &socket)
        : server_(serverOptions(o, socket))
    {
        auto started = server_.start();
        if (!started.hasValue())
            throw std::runtime_error("beard: "
                                     + started.error().message());
    }

    ~Daemon()
    {
        server_.requestDrain(bear::CancelReason::None);
        (void)server_.serve();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

  private:
    static bear::serve::ServerOptions
    serverOptions(const bear::RunnerOptions &o, const std::string &socket)
    {
        bear::serve::ServerOptions options;
        options.socketPath = socket;
        options.shards = kShards;
        options.run = o;
        return options;
    }

    bear::serve::Server server_;
};

/**
 * Hand freed heap pages, of every malloc arena, back to the kernel.
 * Before each timed cell or set-up, so each starts from as cold a heap
 * as the first one (a later cell would otherwise reuse the page-table
 * nodes an earlier one faulted in).  After each served session, so
 * the peak RSS follows live memory rather than how the connection
 * threads happened to spread freed pages over arenas.
 */
void
releaseFreeMemory()
{
    ::malloc_trim(0);
}

struct Session
{
    double seconds = 0.0; ///< connect to report
    bool ok = false;
    bool matches = false; ///< report equals the offline replay's
    std::string error;
    std::uint32_t busyRetries = 0;
};

/**
 * kTenants closed-loop tenants: each starts a session whenever its
 * last one returned, until @p deadline or @p per_tenant sessions.
 * Reports are compared with @p expected as they arrive rather than
 * kept, so they do not add to the peak RSS being measured.
 */
std::vector<Session>
runTenants(const std::string &socket,
           const std::vector<std::uint8_t> &trace_bytes, double deadline,
           std::uint32_t per_tenant, const std::string &expected,
           Ledger &ledger)
{
    std::mutex mutex;
    std::vector<Session> sessions;
    {
        std::vector<std::jthread> tenants;
        for (std::uint32_t t = 0; t < kTenants; ++t) {
            tenants.emplace_back([&] {
                bear::serve::ClientOptions options;
                options.socketPath = socket;
                options.design = cellName(DesignKind::Bear);
                for (std::uint32_t n = 0; n < per_tenant && now() < deadline;
                     ++n) {
                    const double t0 = now();
                    auto outcome = bear::serve::Client::runSession(
                        options, trace_bytes);
                    Session s;
                    s.seconds = now() - t0;
                    s.ok = outcome.hasValue();
                    releaseFreeMemory();
                    std::lock_guard lock(mutex);
                    if (s.ok) {
                        std::string &report = outcome->reportJson;
                        if (ledger.takeCorruption("served"))
                            report[report.size() / 2] ^= 1;
                        s.matches = report == expected;
                        s.busyRetries = outcome->busyRetries;
                    } else {
                        s.error = outcome.error().message();
                    }
                    sessions.push_back(std::move(s));
                }
            });
        }
    }
    for (const Session &s : sessions) {
        std::vector<std::string> v;
        if (!s.ok)
            v.push_back("session failed: " + s.error);
        else if (!s.matches)
            v.push_back("served report differs from the offline Runner "
                        "replay of the same trace");
        ledger.count("session", v);
    }
    return sessions;
}

/** Offline reference: the batch Runner replaying @p trace_path;
 *  @p cell names it in the digest and in failures. */
bear::RunResult
offlineReplay(const Spec &spec, bear::RunnerOptions o,
              const std::string &trace_path, DesignKind design,
              const std::string &cell, const Args &args, Ledger &ledger)
{
    o.traceInPath = trace_path;
    bear::Runner runner(o);
    const std::string op = spec.name + "/" + cell;
    bear::RunOutcome out = runner.tryRun(jobOf(spec, design));
    if (!out.hasValue()) {
        ledger.count(op, {out.error().message()});
        return {};
    }
    ledger.count(op, reportViolations(*out, ledger));
    printDigest(spec, cell, args.seed, bear::runResultToJson(*out));
    return *out;
}

/** Measured-phase IPC of @p bear_run over @p alloy_run. */
double
ipcRatio(const bear::RunResult &bear_run, const bear::RunResult &alloy_run)
{
    return alloy_run.stats.ipcTotal > 0.0
        ? bear_run.stats.ipcTotal / alloy_run.stats.ipcTotal
        : 0.0;
}

/** Scratch files of one process in the work directory. */
std::string
scratchPath(const Args &args, const std::string &suffix)
{
    return args.workDir + "/" + args.workload + "-"
        + std::to_string(::getpid()) + suffix;
}

// ---------------------------------------------------------------
// Untraced runs: the end-to-end metrics
// ---------------------------------------------------------------

Result
rateRun(const Spec &spec, const Args &args)
{
    const double start = now();
    Ledger ledger(args.corrupt);
    const bear::RunnerOptions o = optionsOf(spec, args);

    // Set-up of a cell: stream construction plus the System
    // constructor, everything before its first simulated reference.
    std::vector<double> setups;
    for (int k = 0; k < setupReps(spec, args); ++k) {
        for (DesignKind design : kDesigns) {
            releaseFreeMemory();
            const double t0 = now();
            bear::System system(systemConfig(o, design),
                                generators(spec, o));
            setups.push_back(now() - t0);
        }
    }
    const double setup_s = median(setups);

    // Alloy and BEAR cells in turn, each on a fresh Runner (a Runner
    // memoises its results).  Pair p simulates stream seed
    // p % kSeedsPerRun; the first kSeedsPerRun pairs always run, and
    // more run while the next cell should still fit in the budget.
    std::vector<double> cell_seconds;
    std::map<DesignKind, std::vector<double>> seconds_of;
    std::map<std::pair<DesignKind, std::size_t>, bear::RunResult> results;
    std::map<std::pair<DesignKind, std::size_t>, std::string> reports;
    const double deadline = start + args.seconds;
    const double loop_start = now();
    for (std::size_t n = 0;; ++n) {
        const std::size_t pair = n / std::size(kDesigns);
        const DesignKind design = kDesigns[n % std::size(kDesigns)];
        std::vector<double> &mine = seconds_of[design];
        if (pair >= kSeedsPerRun && now() + median(mine) > deadline)
            break;
        const std::size_t seed_index = pair % kSeedsPerRun;
        bear::RunnerOptions so = o;
        so.seed = streamSeed(args, seed_index);
        bear::Runner runner(so);
        releaseFreeMemory();
        const double t0 = now();
        bear::RunOutcome out = runner.tryRun(jobOf(spec, design));
        const double dt = now() - t0;
        cell_seconds.push_back(dt);
        mine.push_back(dt);
        const std::string cell = cellName(design) + "/seed"
            + std::to_string(seed_index);
        const std::string op = spec.name + "/" + cell;
        if (!out.hasValue()) {
            ledger.count(op, {out.error().message()});
            continue;
        }
        std::vector<std::string> v = reportViolations(*out, ledger);
        const std::string json = bear::runResultToJson(*out);
        auto [it, first] = reports.emplace(std::pair(design, seed_index),
                                           json);
        if (first) {
            results[{design, seed_index}] = *out;
            printDigest(spec, cell, args.seed, json);
        } else if (it->second != json) {
            v.push_back("report differs from this run's first report "
                        "of the same cell");
        }
        ledger.count(op, v);
    }
    const double loop_seconds = now() - loop_start;

    // Host seconds spent simulating one cell of each design: the
    // median cell less its set-up.
    double simulating = 0.0;
    for (DesignKind design : kDesigns)
        simulating += median(seconds_of[design]) - setup_s;

    std::printf("samples: %zu cells, %zu set-ups\n", cell_seconds.size(),
                setups.size());

    Result r;
    r.attempted = ledger.attempted;
    r.failed = ledger.failed;
    r.add("sim_refs_per_s",
          static_cast<double>(std::size(kDesigns) * refsPerCell(o))
              / simulating,
          "refs/s");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    r.add("session_p50_s", median(cell_seconds), "s");
    r.add("session_p90_s", percentile(cell_seconds, 0.9), "s");
    r.add("sessions_per_s",
          static_cast<double>(cell_seconds.size()) / loop_seconds, "1/s");
    double speedup = 0.0, bloat = 0.0;
    for (std::size_t i = 0; i < kSeedsPerRun; ++i) {
        speedup += ipcRatio(results[{DesignKind::Bear, i}],
                            results[{DesignKind::Alloy, i}]);
        bloat += results[{DesignKind::Bear, i}].stats.bloatFactor;
    }
    r.add("sim_speedup", speedup / kSeedsPerRun, "ratio");
    r.add("sim_bloat", bloat / kSeedsPerRun, "ratio");
    return r;
}

/** Total of a bear-serve-stats-v1 histogram (mean times count). */
double
histogramTotal(const bear::JsonValue &stats, const std::string &key)
{
    const bear::JsonValue &h = stats[key];
    return h["mean"].asDouble() * static_cast<double>(h["count"].asU64());
}

bear::JsonValue
daemonStats(const std::string &socket)
{
    auto text = bear::serve::Client::fetchStats(socket);
    if (!text.hasValue())
        throw std::runtime_error("stats: " + text.error().message());
    auto parsed = bear::JsonValue::parse(*text);
    if (!parsed.hasValue())
        throw std::runtime_error("stats: " + parsed.error().message());
    return std::move(parsed.value());
}

Result
serveRun(const Spec &spec, const Args &args)
{
    const double start = now();
    Ledger ledger(args.corrupt);
    const bear::RunnerOptions o = optionsOf(spec, args);
    const std::string trace_path = scratchPath(args, ".beartrace");
    const std::string socket = scratchPath(args, ".sock");

    // Set-up: record the trace, start the daemon, and build the
    // first session's streams and System from the uploaded bytes.
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int k = 0; k < setupReps(spec, args); ++k) {
        daemon.reset();
        releaseFreeMemory();
        const double t0 = now();
        record(spec, o, trace_path);
        daemon = std::make_unique<Daemon>(o, socket);
        bear::System system(systemConfig(o, DesignKind::Bear),
                            decoded(readFile(trace_path)));
        setups.push_back(now() - t0);
    }
    const std::vector<std::uint8_t> bytes = readFile(trace_path);

    // Offline Runner replays: of the served trace (every served report
    // must equal its BEAR one) and of traces of the other stream
    // seeds, for the exact metrics.
    std::string expected;
    double speedup = 0.0, bloat = 0.0;
    for (std::size_t i = 0; i < kSeedsPerRun; ++i) {
        bear::RunnerOptions so = o;
        so.seed = streamSeed(args, i);
        const std::string path = i == 0
            ? trace_path
            : scratchPath(args, "-seed" + std::to_string(i) + ".beartrace");
        if (i > 0)
            record(spec, so, path);
        const std::string suffix = "/seed" + std::to_string(i);
        const bear::RunResult alloy_run =
            offlineReplay(spec, so, path, DesignKind::Alloy,
                          "offline-Alloy" + suffix, args, ledger);
        const bear::RunResult bear_run =
            offlineReplay(spec, so, path, DesignKind::Bear,
                          "offline-BEAR" + suffix, args, ledger);
        if (i == 0)
            expected = bear::runResultToJson(bear_run);
        else
            std::filesystem::remove(path);
        speedup += ipcRatio(bear_run, alloy_run);
        bloat += bear_run.stats.bloatFactor;
    }

    const double loop_start = now();
    const std::vector<Session> sessions =
        runTenants(socket, bytes, start + args.seconds,
                   std::numeric_limits<std::uint32_t>::max(), expected,
                   ledger);
    const double loop_seconds = now() - loop_start;
    const bear::JsonValue stats = daemonStats(socket);
    daemon.reset();
    std::filesystem::remove(trace_path);

    std::vector<double> latencies;
    std::uint64_t served = 0;
    for (const Session &s : sessions) {
        latencies.push_back(s.seconds);
        served += s.ok;
    }
    const std::size_t beyond_p90 =
        latencies.size() - static_cast<std::size_t>(std::ceil(
            0.9 * static_cast<double>(latencies.size())));
    std::printf("samples: %zu sessions (%zu beyond p90), %zu set-ups\n",
                latencies.size(), beyond_p90, setups.size());

    Result r;
    r.attempted = ledger.attempted;
    r.failed = ledger.failed;
    r.add("sim_refs_per_s",
          static_cast<double>(served * refsPerCell(o))
              / (histogramTotal(stats, "runMicros") * 1e-6),
          "refs/s");
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    r.add("session_p50_s", median(latencies), "s");
    r.add("session_p90_s", percentile(latencies, 0.9), "s");
    r.add("sessions_per_s",
          static_cast<double>(latencies.size()) / loop_seconds, "1/s");
    r.add("sim_speedup", speedup / kSeedsPerRun, "ratio");
    r.add("sim_bloat", bloat / kSeedsPerRun, "ratio");
    return r;
}

// ---------------------------------------------------------------
// Traced runs: the per-layer metrics
// ---------------------------------------------------------------

/** One mirrored cell of a traced run. */
struct TracedCell
{
    DesignKind design = DesignKind::Bear;
    bool replay = false;    ///< streams from the recorded trace
    bool viaRunner = false; ///< also time the same cell on a Runner
};

/** Counts the mirror gathers over the measured phase of its cells. */
struct LayerCounts
{
    std::uint64_t refs = 0;
    std::uint64_t demand = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t l4Hits = 0;
    std::uint64_t l4Reads = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t frames = 0;
    std::uint64_t l4Accesses = 0;
    std::uint64_t l4RowHits = 0;
    std::uint64_t ddrAccesses = 0;
    bear::obs::LatencyHistogram l4QueueDelay;
    std::uint32_t cells = 0;

    static LayerCounts
    of(Mirror &m)
    {
        LayerCounts c;
        c.refs = m.refs();
        c.demand = m.demandAccesses();
        c.llcMisses = m.llcMisses();
        c.l4Hits = m.dramCache().demandHits();
        c.l4Reads = c.l4Hits + m.dramCache().demandMisses();
        c.writebacks = m.writebacks();
        c.frames = m.framesAllocated();
        c.l4Accesses = m.cacheDram().totalReads() + m.cacheDram().totalWrites();
        c.l4RowHits = m.cacheDram().totalRowHits();
        c.ddrAccesses =
            m.mainMemory().totalReads() + m.mainMemory().totalWrites();
        c.l4QueueDelay = m.cacheDram().queueDelayHistogram();
        c.cells = 1;
        return c;
    }

    void
    add(const LayerCounts &o)
    {
        refs += o.refs;
        demand += o.demand;
        llcMisses += o.llcMisses;
        l4Hits += o.l4Hits;
        l4Reads += o.l4Reads;
        writebacks += o.writebacks;
        frames += o.frames;
        l4Accesses += o.l4Accesses;
        l4RowHits += o.l4RowHits;
        ddrAccesses += o.ddrAccesses;
        l4QueueDelay.merge(o.l4QueueDelay);
        cells += o.cells;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

template <typename T, typename U>
double
ratio(T num, U den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

Result
tracedRun(const Spec &spec, const Args &args)
{
    Ledger ledger(args.corrupt);
    const bear::RunnerOptions o = optionsOf(spec, args);
    const bear::RunnerOptions leg = servedOptions(args);
    const std::string trace_path = scratchPath(args, ".beartrace");
    const std::string socket = scratchPath(args, ".sock");
    const SpanCost cost = SpanCost::measure();
    SpanLog log;
    log.reserve(4 * refsPerCell(o) / kSampleEvery * 6);

    // Trace leg: this workload's references at the served budgets,
    // recorded, then replayed with sampled decode spans.
    record(spec, leg, trace_path);
    const double bytes_per_ref =
        ratio(std::filesystem::file_size(trace_path), refsPerCell(leg));
    const std::size_t decode_first = log.spans().size();
    {
        Streams streams = replays(trace_path);
        const std::uint64_t per_core =
            leg.warmupRefsPerCore + leg.measureRefsPerCore;
        std::uint64_t i = 0;
        for (auto &stream : streams) {
            for (std::uint64_t n = 0; n < per_core; ++n, ++i) {
                SpanScope span(i % kSampleEvery == 0 ? &log : nullptr,
                               Layer::TraceDecode, SpanLog::kNoParent,
                               i % kSampleEvery == 0 ? log.newRef() : 0);
                (void)stream->next();
            }
        }
    }
    LayerTotals decode_leg =
        LayerTotals::of(log, decode_first, log.spans().size(), cost);

    std::vector<TracedCell> cells;
    if (spec.served) {
        // The served trace replayed (what a session runs) and the
        // generators that produced it (what recording it costs).
        cells.push_back({DesignKind::Bear, false, false});
        cells.push_back({DesignKind::Bear, true, true});
    } else {
        for (DesignKind design : kDesigns)
            cells.push_back({design, false, true});
    }

    std::vector<LayerTotals> totals;
    LayerCounts counts;
    double system_s = 0.0, mirror_s = 0.0;
    double runner_s = 0.0, runner_system_s = 0.0;
    for (const TracedCell &cell : cells) {
        const std::string name = (cell.replay ? "replay-" : "")
            + cellName(cell.design);
        const std::string op = spec.name + "/traced-" + name;
        const bear::SystemConfig config = systemConfig(o, cell.design);
        auto streams = [&] {
            return cell.replay ? replays(trace_path)
                               : generators(spec, o);
        };

        releaseFreeMemory();
        double t0 = now();
        bear::RunResult direct;
        direct.workload = spec.label;
        direct.design = cellName(cell.design);
        {
            bear::System system(config, streams());
            system.run(o.warmupRefsPerCore);
            system.resetStats();
            system.run(o.measureRefsPerCore);
            direct.stats = system.stats();
        }
        const double system_dt = now() - t0;
        const std::string direct_json = bear::runResultToJson(direct);
        printDigest(spec, name, args.seed, direct_json);
        std::vector<std::string> v = reportViolations(direct, ledger);

        releaseFreeMemory();
        t0 = now();
        const std::size_t first = log.spans().size();
        bear::RunResult mirrored = direct;
        LayerCounts c;
        {
            Mirror mirror(config, streams(),
                          cell.replay ? Layer::TraceDecode
                                      : Layer::Workloads,
                          &log, kSampleEvery);
            mirror.run(o.warmupRefsPerCore);
            mirror.resetStats();
            mirror.run(o.measureRefsPerCore);
            mirrored.stats = mirror.stats();
            c = LayerCounts::of(mirror);
        }
        const double mirror_dt = now() - t0;
        if (bear::runResultToJson(mirrored) != direct_json) {
            v.push_back("traced mirror's stats differ from System::run; "
                        "this cell's traced numbers are void");
        } else {
            totals.push_back(
                LayerTotals::of(log, first, log.spans().size(), cost));
            counts.add(c);
            system_s += system_dt;
            mirror_s += mirror_dt;
        }

        if (cell.viaRunner) {
            bear::RunnerOptions ro = o;
            if (cell.replay)
                ro.traceInPath = trace_path;
            bear::Runner runner(ro);
            releaseFreeMemory();
            t0 = now();
            bear::RunOutcome out = runner.tryRun(jobOf(spec, cell.design));
            runner_s += now() - t0;
            runner_system_s += system_dt;
            if (!out.hasValue())
                v.push_back(out.error().message());
            else if (bear::runResultToJson(*out) != direct_json)
                v.push_back("Runner cell differs from System::run");
        }
        ledger.count(op, v);
    }

    // Serve leg: sessions of the recorded trace through beard.
    double queue_wait_us = 0.0, run_us = 0.0, frame_us = 0.0;
    std::uint64_t busy = 0;
    {
        Daemon daemon(leg, socket);
        const std::string expected = bear::runResultToJson(
            offlineReplay(spec, leg, trace_path, DesignKind::Bear,
                          "leg-offline-BEAR", args, ledger));
        const std::vector<Session> sessions =
            runTenants(socket, readFile(trace_path),
                       std::numeric_limits<double>::infinity(),
                       args.tiny ? 1 : kLegSessions, expected, ledger);
        const bear::JsonValue stats = daemonStats(socket);
        for (const Session &s : sessions)
            busy += s.busyRetries;
        const double n =
            static_cast<double>(stats["runMicros"]["count"].asU64());
        queue_wait_us = ratio(histogramTotal(stats, "queueWaitMicros"), n);
        run_us = ratio(histogramTotal(stats, "runMicros"), n);
        double frame_total = 0.0, frames = 0.0;
        for (const bear::JsonValue &t : stats["tenants"].elements()) {
            frame_total += histogramTotal(t, "frameMicros");
            frames += static_cast<double>(t["frameMicros"]["count"].asU64());
        }
        frame_us = ratio(frame_total, frames);
    }
    std::filesystem::remove(trace_path);

    const std::string spans_path =
        args.workDir + "/" + spec.name + ".spans.tsv";
    if (!log.write(spans_path))
        throw std::runtime_error("cannot write " + spans_path);
    std::printf("spans: %zu written to %s (1 in %llu refs timed)\n",
                log.spans().size(), spans_path.c_str(),
                static_cast<unsigned long long>(kSampleEvery));

    // Per-layer sums; a layer's share is over the cells it ran in.
    LayerTotals all;
    for (const LayerTotals &t : totals)
        all.add(t);
    auto at = [](Layer l) { return static_cast<std::size_t>(l); };
    auto ns = [&](Layer l) { return all.ns[at(l)]; };
    const double roots = static_cast<double>(all.calls[at(Layer::Ref)]);
    auto shareWhereRan = [&](Layer l) {
        double part = 0.0, whole = 0.0;
        for (const LayerTotals &t : totals) {
            if (t.calls[at(l)] == 0)
                continue;
            part += t.ns[at(l)];
            whole += t.ns[at(Layer::Ref)];
        }
        return ratio(part, whole);
    };
    auto perCall = [&](Layer l) { return ratio(ns(l), all.calls[at(l)]); };
    const double root_ns = ns(Layer::Ref);
    const double cache_ns = ns(Layer::CacheAccess) + ns(Layer::CacheFill);
    const double dram_ns = ns(Layer::DramRead) + ns(Layer::DramWriteback);
    decode_leg.add(all);

    Result r;
    r.attempted = ledger.attempted;
    r.failed = ledger.failed;
    r.add("vm.translate_ns", perCall(Layer::Vm), "ns");
    r.add("vm.share", ratio(ns(Layer::Vm), root_ns), "ratio");
    r.add("vm.frames", ratio(counts.frames, counts.cells), "count");
    r.add("workloads.next_ns", perCall(Layer::Workloads), "ns");
    r.add("workloads.share", shareWhereRan(Layer::Workloads), "ratio");
    r.add("cache.access_ns", ratio(cache_ns, roots), "ns");
    r.add("cache.share", ratio(cache_ns, root_ns), "ratio");
    r.add("cache.llc_miss_frac", ratio(counts.llcMisses, counts.demand),
          "ratio");
    r.add("dramcache.read_ns", ratio(ns(Layer::DramRead), roots), "ns");
    r.add("dramcache.writeback_ns", ratio(ns(Layer::DramWriteback), roots),
          "ns");
    r.add("dramcache.share", ratio(dram_ns, root_ns), "ratio");
    r.add("dramcache.hit_rate", ratio(counts.l4Hits, counts.l4Reads),
          "ratio");
    r.add("dramcache.writebacks_per_ref",
          ratio(counts.writebacks, counts.refs), "ratio");
    r.add("mem.l4_accesses_per_ref", ratio(counts.l4Accesses, counts.refs),
          "ratio");
    r.add("mem.ddr_accesses_per_ref",
          ratio(counts.ddrAccesses, counts.refs), "ratio");
    r.add("mem.l4_row_hit_frac", ratio(counts.l4RowHits, counts.l4Accesses),
          "ratio");
    r.add("mem.l4_queue_delay_p50_cycles",
          static_cast<double>(counts.l4QueueDelay.percentile(0.5).count()),
          "cycles");
    r.add("sim.driver_ns", ratio(all.rootSelfNs, roots), "ns");
    r.add("sim.share", ratio(all.rootSelfNs, root_ns), "ratio");
    r.add("sim.control_overhead", ratio(runner_s, runner_system_s) - 1.0,
          "ratio");
    r.add("trace.decode_ns",
          ratio(decode_leg.ns[at(Layer::TraceDecode)],
                decode_leg.calls[at(Layer::TraceDecode)]),
          "ns");
    r.add("trace.bytes_per_ref", bytes_per_ref, "B");
    r.add("serve.queue_wait_us", queue_wait_us, "us");
    r.add("serve.run_us", run_us, "us");
    r.add("serve.frame_us", frame_us, "us");
    r.add("serve.busy_retries", static_cast<double>(busy), "count");
    r.add("trace.overhead", ratio(mirror_s, system_s) - 1.0, "ratio");
    return r;
}

} // namespace

Result
runWorkload(const Args &args)
{
    const Spec spec = specOf(args.workload);
    std::filesystem::create_directories(args.workDir);
    if (args.trace)
        return tracedRun(spec, args);
    return spec.served ? serveRun(spec, args) : rateRun(spec, args);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
