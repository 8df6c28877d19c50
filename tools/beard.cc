/**
 * @file
 * beard: the multi-tenant simulation-as-a-service daemon (DESIGN.md
 * §16).
 *
 * Serving mode binds a Unix-domain socket and turns every connection
 * into one tenant session: Hello names a design from the roster, the
 * client streams a .beartrace as CRC-sealed frames, and the tenant's
 * schema-v2 JSON run report comes back when its simulation completes.
 * Admission control is per worker shard — a full shard answers Busy
 * with a retry hint — and SIGINT/SIGTERM starts a graceful drain:
 * in-flight tenants finish and collect their reports, then the daemon
 * exits 130 (mirroring an interrupted sweep).
 *
 *   beard [--socket PATH] [--shards N] [--queue N]
 *   beard --offline <trace> [--design D]
 *   beard --selftest
 *
 * --offline replays a recorded trace through the batch Runner and
 * prints the report a served session of the same file would produce —
 * the reference half of the byte-identity check ci.sh step 10 pins.
 *
 * Simulation knobs come from the BEAR_* environment (BEAR_WARMUP,
 * BEAR_MEASURE, BEAR_SCALE, ...); the daemon adds the BEAR_SERVE_*
 * family (socket, shards, queue, busy-retry hint, receive timeout,
 * idle/slow-loris reaping, drain grace — see
 * ServerOptions::tryFromEnv), socket/shards/queue each overridable by
 * the corresponding flag.  A set-but-malformed variable is a startup
 * error naming the variable and its accepted range — never a silent
 * fallback.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include <unistd.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/single_run.hh"
#include "tools/tool_args.hh"
#include "trace/trace_reader.hh"

namespace
{

const char *const kUsage =
    "usage: beard [--socket PATH] [--shards N] [--queue N]\n"
    "       beard --offline <trace> [--design D]\n"
    "       beard --selftest\n"
    "  --socket   Unix socket path (default /tmp/beard.sock,\n"
    "             env BEAR_SERVE_SOCKET)\n"
    "  --shards   worker shards, 1..64 (default 2,\n"
    "             env BEAR_SERVE_SHARDS)\n"
    "  --queue    admitted sessions per shard, 1..1024 (default 4,\n"
    "             env BEAR_SERVE_QUEUE)\n"
    "  --offline  replay a .beartrace through the batch runner and\n"
    "             print the report a served session would produce\n"
    "  --design   design roster name for --offline (default BEAR)\n";

/** Parse a design name or exit(2) naming the roster failure. */
bear::DesignKind
designOrDie(const std::string &name)
{
    auto design = bear::serve::parseDesignName(name);
    if (!design.hasValue()) {
        std::fprintf(stderr, "beard: %s\n%s",
                     design.error().message().c_str(), kUsage);
        std::exit(2);
    }
    return *design;
}

/**
 * Offline reference run: replay @p trace_path through the batch
 * Runner with cores and workload label taken from the file's own
 * header, printing the schema-v2 report to stdout.
 */
int
runOffline(const std::string &trace_path, const std::string &design)
{
    // The header alone names the cores and the workload; the Runner
    // below decodes the whole file once, in its constructor.
    auto meta = bear::trace::readTraceMeta(trace_path);
    if (!meta.hasValue()) {
        std::fprintf(stderr, "beard: %s: %s\n", trace_path.c_str(),
                     meta.error().message().c_str());
        return 1;
    }

    bear::RunnerOptions options = bear::RunnerOptions::fromEnv();
    options.cores = meta->coreCount;
    options.traceInPath = trace_path;

    bear::Runner runner(options);
    const bear::RunResult result =
        runner.runRate(designOrDie(design), meta->workload);
    std::printf("%s\n", bear::runResultToJson(result).c_str());
    return 0;
}

/** Serve until a signal drains the daemon; exit 130 on interrupt. */
int
runDaemon(bear::serve::ServerOptions options)
{
    bear::serve::Server server(std::move(options));
    auto started = server.start();
    if (!started.hasValue()) {
        std::fprintf(stderr, "beard: %s\n",
                     started.error().message().c_str());
        return 1;
    }
    std::printf("beard: serving on %s (%u shards, queue %u)\n",
                server.options().socketPath.c_str(),
                server.options().shards, server.options().queueDepth);
    std::fflush(stdout);

    // SIGINT/SIGTERM → graceful drain.  The handler only sets a flag
    // (async-signal-safe); this watcher turns it into requestDrain.
    bear::installInterruptHandlers();
    std::atomic<bool> stop{false};
    std::thread watcher([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            if (bear::interruptRequested()) {
                server.requestDrain(bear::CancelReason::Interrupt);
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });

    const int rc = server.serve();
    stop.store(true, std::memory_order_relaxed);
    watcher.join();
    std::fprintf(stderr, "beard: drained, exit %d\n", rc);
    return rc;
}

/**
 * Self-test: bring a daemon up on a private socket, fetch its stats
 * document over the wire, drain it, and check the lifecycle contract
 * (clean start, parsable stats, unlinked socket, exit code 0).
 */
int
selftest()
{
    bool ok = true;
    auto check = [&](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "selftest: FAILED: %s\n", what);
            ok = false;
        }
    };

    bear::serve::ServerOptions options;
    options.socketPath = "/tmp/beard-selftest-"
        + std::to_string(static_cast<unsigned>(::getpid()))
        + ".sock";
    options.shards = 1;
    options.queueDepth = 1;
    {
        bear::serve::Server server(options);
        auto started = server.start();
        check(started.hasValue(), "daemon starts on a fresh socket");
        if (started.hasValue()) {
            auto stats = bear::serve::Client::fetchStats(
                options.socketPath);
            check(stats.hasValue(), "stats fetch succeeds");
            check(stats.hasValue()
                      && stats->find("bear-serve-stats-v1")
                          != std::string::npos,
                  "stats document carries its schema tag");

            server.requestDrain(bear::CancelReason::None);
            check(server.draining(), "drain request is visible");
            check(server.serve() == 0, "non-interrupt drain exits 0");
        }
    }
    // A second daemon must be able to reuse the path immediately.
    {
        bear::serve::Server server(options);
        auto restarted = server.start();
        check(restarted.hasValue(), "socket path is reusable");
        if (restarted.hasValue()) {
            server.requestDrain(bear::CancelReason::Interrupt);
            check(server.serve() == 130, "interrupt drain exits 130");
        }
    }

    if (ok)
        std::printf("selftest passed\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const bear::tools::ToolArgs args(
        argc, argv, {"socket", "shards", "queue", "offline", "design"},
        kUsage);
    if (args.selftest())
        return selftest();
    if (!args.positional().empty())
        args.fail("beard takes no positional arguments");

    const std::string offline = args.stringOr("offline", "");
    if (!offline.empty())
        return runOffline(offline, args.stringOr("design", "BEAR"));

    auto parsed = bear::serve::ServerOptions::tryFromEnv();
    if (!parsed.hasValue()) {
        std::fprintf(stderr, "beard: %s\n",
                     parsed.error().message().c_str());
        return 2;
    }
    bear::serve::ServerOptions options = std::move(*parsed);

    options.socketPath = args.stringOr("socket", options.socketPath);
    const std::uint64_t shards = args.u64Or("shards", options.shards);
    if (shards < 1 || shards > 64)
        args.fail("--shards wants 1..64");
    options.shards = static_cast<std::uint32_t>(shards);
    const std::uint64_t queue = args.u64Or("queue", options.queueDepth);
    if (queue < 1 || queue > 1024)
        args.fail("--queue wants 1..1024");
    options.queueDepth = static_cast<std::uint32_t>(queue);

    return runDaemon(std::move(options));
}
