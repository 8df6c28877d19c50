/**
 * @file
 * Unit tests for the serving layer (src/serve): wire-frame round
 * trips, the corruption contracts (truncated, bad magic, bad version,
 * bad CRC, oversized length — every one a structured ServeError),
 * split-feed equivalence of the incremental frame decoder, and the
 * headline guarantees of the daemon itself — a served session's
 * report is byte-identical to the offline Runner's for the same trace
 * and design, 64 concurrent tenants against a tiny admission queue
 * all complete with backpressure demonstrably engaging, and a drain
 * requested by an interrupt exits 130 like Runner::run does.
 *
 * PR 10 adds the resilience contracts: BEAR_SERVE_* env validation
 * (every rejection names the variable and its accepted range), the
 * tenant-isolation invariant under injected serve.* faults (healthy
 * tenants byte-identical to the offline run, faulted tenants handed a
 * structured, attributed Error frame, daemon still drains clean), the
 * per-tenant forward-progress watchdog (Deadline), idle and
 * slow-loris reaping (Idle, and the freed admission slot), and the
 * bounded deterministic Busy backoff.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/fault.hh"
#include "serve/channel.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/serve_error.hh"
#include "serve/server.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/trace_format.hh"
#include "trace/trace_writer.hh"

using namespace bear;
using namespace bear::serve;

namespace
{

/** ctest runs tests of one binary as parallel processes: paths must
 *  be unique per test *and* per process. */
std::string
uniquePath(const std::string &stem, const std::string &ext)
{
    return ::testing::TempDir() + stem + "-"
        + std::to_string(static_cast<unsigned>(::getpid())) + ext;
}

std::vector<std::uint8_t>
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

/** A small deterministic two-core trace (no RNG, no workload). */
bool
writeSampleTrace(const std::string &path)
{
    trace::TraceMeta meta;
    meta.workload = "selftest";
    meta.coreCount = 2;
    meta.seed = 7;
    auto writer = trace::TraceWriter::create(path, meta);
    if (!writer.hasValue())
        return false;
    for (std::uint32_t i = 0; i < 512; ++i) {
        for (CoreId core = 0; core < 2; ++core) {
            MemRef ref;
            ref.vaddr = 0x10000 + 64ULL * ((i * 7 + core * 131) % 256);
            ref.pc = 0x400000 + 4ULL * (i % 32);
            ref.instGap = 1 + (i % 3);
            ref.isWrite = (i % 5) == 0;
            ref.dependent = (i % 2) == 0;
            if (!writer->append(core, ref).hasValue())
                return false;
        }
    }
    return writer->finish().hasValue();
}

/** Small budgets: these tests prove plumbing, not paper numbers. */
RunnerOptions
smallBudgets()
{
    RunnerOptions options;
    options.scale = 0.015625;
    options.warmupRefsPerCore = 2000;
    options.measureRefsPerCore = 1000;
    options.workers = 1;
    return options;
}

ServerOptions
loopbackOptions(const std::string &socket_path, std::uint32_t shards,
                std::uint32_t queue_depth)
{
    ServerOptions options;
    options.socketPath = socket_path;
    options.shards = shards;
    options.queueDepth = queue_depth;
    options.busyRetryMs = 2;
    options.run = smallBudgets();
    return options;
}

/** Drain a decoder of every complete frame it currently holds. */
std::vector<Frame>
drainFrames(FrameDecoder &decoder)
{
    std::vector<Frame> frames;
    for (;;) {
        auto next = decoder.next();
        EXPECT_TRUE(next.hasValue());
        if (!next.hasValue() || !next->has_value())
            break;
        frames.push_back(std::move(**next));
    }
    return frames;
}

// --- Wire-frame round trips -----------------------------------------

TEST(ServeFrame, HelloRoundTrip)
{
    const auto payload = buildHello("BEAR");
    auto parsed = parseHello(payload);
    ASSERT_TRUE(parsed.hasValue());
    EXPECT_EQ(parsed->designName, "BEAR");
    EXPECT_EQ(parsed->design, DesignKind::Bear);
}

TEST(ServeFrame, HelloOkAndBusyRoundTrip)
{
    HelloOk ok;
    ok.tenantId = 0x1122334455667788ULL;
    ok.shard = 3;
    auto parsed_ok = parseHelloOk(buildHelloOk(ok));
    ASSERT_TRUE(parsed_ok.hasValue());
    EXPECT_EQ(parsed_ok->tenantId, ok.tenantId);
    EXPECT_EQ(parsed_ok->shard, ok.shard);

    auto parsed_busy = parseBusy(buildBusy(250));
    ASSERT_TRUE(parsed_busy.hasValue());
    EXPECT_EQ(*parsed_busy, 250U);
}

TEST(ServeFrame, ErrorFrameRoundTrip)
{
    ServeError error;
    error.kind = ServeErrorKind::BadTrace;
    error.detail = "chunk 3 checksum";
    const ServeError back = parseError(buildError(error));
    EXPECT_EQ(back.kind, ServeErrorKind::BadTrace);
    EXPECT_EQ(back.detail, "chunk 3 checksum");
}

// --- Corruption contracts -------------------------------------------

TEST(ServeFrame, HelloBadMagicRejected)
{
    auto payload = buildHello("BEAR");
    payload[0] ^= 0x20;
    auto parsed = parseHello(payload);
    ASSERT_FALSE(parsed.hasValue());
    EXPECT_EQ(parsed.error().kind, ServeErrorKind::BadMagic);
}

TEST(ServeFrame, HelloBadVersionRejected)
{
    auto payload = buildHello("BEAR");
    payload[4] ^= 0xFF; // low byte of the protocol version
    auto parsed = parseHello(payload);
    ASSERT_FALSE(parsed.hasValue());
    EXPECT_EQ(parsed.error().kind, ServeErrorKind::BadVersion);
}

TEST(ServeFrame, HelloUnknownDesignRejected)
{
    auto parsed = parseHello(buildHello("NOT-A-DESIGN"));
    ASSERT_FALSE(parsed.hasValue());
    EXPECT_EQ(parsed.error().kind, ServeErrorKind::BadDesign);
}

TEST(ServeFrame, CrcFlipRejectedAndSticky)
{
    const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
    auto wire = encodeFrame(FrameType::TraceData, body);
    wire[kFrameHeaderBytes + 2] ^= 0x01; // flip one payload byte

    FrameDecoder decoder;
    decoder.ingest(wire.data(), wire.size());
    auto next = decoder.next();
    ASSERT_FALSE(next.hasValue());
    EXPECT_EQ(next.error().kind, ServeErrorKind::BadCrc);

    // After garbage there is no resync: the failure is permanent.
    auto again = decoder.next();
    ASSERT_FALSE(again.hasValue());
    EXPECT_EQ(again.error().kind, ServeErrorKind::BadCrc);
}

TEST(ServeFrame, TruncatedStreamRejected)
{
    const std::vector<std::uint8_t> body = {9, 8, 7};
    const auto wire = encodeFrame(FrameType::TraceData, body);

    FrameDecoder decoder;
    decoder.ingest(wire.data(), wire.size() - 2);
    auto next = decoder.next();
    ASSERT_TRUE(next.hasValue());
    EXPECT_FALSE(next->has_value()); // incomplete, not an error yet

    auto finished = decoder.finish();
    ASSERT_FALSE(finished.hasValue());
    EXPECT_EQ(finished.error().kind, ServeErrorKind::Truncated);
}

TEST(ServeFrame, OversizedLengthRejectedBeforePayload)
{
    // A 5-byte header declaring a payload over the cap must fail
    // immediately — before the decoder ever sees (or allocates for)
    // the claimed payload.
    std::vector<std::uint8_t> header;
    header.push_back(
        static_cast<std::uint8_t>(FrameType::TraceData));
    trace::putU32(header, kMaxFramePayloadBytes + 1);

    FrameDecoder decoder;
    decoder.ingest(header.data(), header.size());
    auto next = decoder.next();
    ASSERT_FALSE(next.hasValue());
    EXPECT_EQ(next.error().kind, ServeErrorKind::Oversized);
}

TEST(ServeFrame, UnknownFrameTypeRejected)
{
    // Hand-build a CRC-valid frame with a type outside the enum, so
    // the rejection is attributable to the type check alone.
    std::vector<std::uint8_t> wire;
    wire.push_back(0x7F);
    trace::putU32(wire, 0);
    trace::putU32(wire, trace::crc32(wire.data(), wire.size()));

    FrameDecoder decoder;
    decoder.ingest(wire.data(), wire.size());
    auto next = decoder.next();
    ASSERT_FALSE(next.hasValue());
    EXPECT_EQ(next.error().kind, ServeErrorKind::BadFrame);
}

// --- Incremental decoding -------------------------------------------

TEST(ServeFrame, SplitFeedEquivalence)
{
    std::vector<std::uint8_t> body(300);
    for (std::size_t i = 0; i < body.size(); ++i)
        body[i] = static_cast<std::uint8_t>(i * 13);

    std::vector<std::uint8_t> wire;
    for (const auto &frame :
         {encodeFrame(FrameType::Hello, buildHello("BEAR")),
          encodeFrame(FrameType::TraceData, body),
          encodeFrame(FrameType::TraceDone, {}),
          encodeFrame(FrameType::Bye, {})})
        wire.insert(wire.end(), frame.begin(), frame.end());

    FrameDecoder whole;
    whole.ingest(wire.data(), wire.size());
    const std::vector<Frame> expected = drainFrames(whole);
    ASSERT_EQ(expected.size(), 4U);
    EXPECT_TRUE(whole.finish().hasValue());

    // Byte-at-a-time must yield the identical frame sequence.
    FrameDecoder split;
    std::vector<Frame> got;
    for (const std::uint8_t byte : wire) {
        split.ingest(&byte, 1);
        for (Frame &frame : drainFrames(split))
            got.push_back(std::move(frame));
    }
    EXPECT_TRUE(split.finish().hasValue());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].type, expected[i].type);
        EXPECT_EQ(got[i].payload, expected[i].payload);
    }
}

// --- The daemon itself ----------------------------------------------

TEST(ServeLoopback, ReportByteIdenticalToOfflineRunner)
{
    const std::string trace_path =
        uniquePath("serve-identity", ".beartrace");
    const std::string socket_path =
        uniquePath("serve-identity", ".sock");
    ASSERT_TRUE(writeSampleTrace(trace_path));

    std::string served;
    {
        Server server(loopbackOptions(socket_path, 1, 2));
        auto started = server.start();
        ASSERT_TRUE(started.hasValue());

        ClientOptions copts;
        copts.socketPath = socket_path;
        copts.design = "BEAR";
        auto outcome =
            Client::runSession(copts, slurpBytes(trace_path));
        ASSERT_TRUE(outcome.hasValue())
            << outcome.error().message();
        served = outcome->reportJson;

        server.requestDrain(CancelReason::None);
        EXPECT_EQ(server.serve(), 0);
    }

    RunnerOptions ropts = smallBudgets();
    ropts.cores = 2;
    ropts.traceInPath = trace_path;
    Runner runner(ropts);
    const RunResult offline =
        runner.runRate(DesignKind::Bear, "selftest");
    EXPECT_EQ(served, runResultToJson(offline));
    std::remove(trace_path.c_str());
}

TEST(ServeLoopback, IdleCoreUploadIsRefusedAsBadTrace)
{
    const std::string trace_path =
        uniquePath("serve-idle-core", ".beartrace");
    const std::string socket_path =
        uniquePath("serve-idle-core", ".sock");
    {
        trace::TraceMeta meta;
        meta.workload = "selftest";
        meta.coreCount = 2;
        auto writer = trace::TraceWriter::create(trace_path, meta);
        ASSERT_TRUE(writer.hasValue());
        for (std::uint32_t i = 0; i < 64; ++i) {
            MemRef ref;
            ref.vaddr = 0x10000 + 64ULL * i;
            ASSERT_TRUE(writer->append(0, ref).hasValue());
        }
        ASSERT_TRUE(writer->finish().hasValue());
    }

    Server server(loopbackOptions(socket_path, 1, 1));
    ASSERT_TRUE(server.start().hasValue());
    ClientOptions copts;
    copts.socketPath = socket_path;
    copts.design = "BEAR";
    auto outcome = Client::runSession(copts, slurpBytes(trace_path));
    ASSERT_FALSE(outcome.hasValue());
    EXPECT_EQ(outcome.error().kind, ServeErrorKind::BadTrace)
        << outcome.error().message();
    EXPECT_NE(outcome.error().message().find(
                  "trace holds no records for core 1"),
              std::string::npos)
        << outcome.error().message();

    server.requestDrain(CancelReason::None);
    EXPECT_EQ(server.serve(), 0);
    std::remove(trace_path.c_str());
}

TEST(ServeLoopback, SixtyFourTenantsWithBackpressure)
{
    const std::string trace_path =
        uniquePath("serve-load", ".beartrace");
    const std::string socket_path = uniquePath("serve-load", ".sock");
    ASSERT_TRUE(writeSampleTrace(trace_path));
    const std::vector<std::uint8_t> trace_bytes =
        slurpBytes(trace_path);
    std::remove(trace_path.c_str());

    constexpr std::size_t kTenants = 64;
    std::vector<std::string> reports(kTenants);
    std::vector<std::string> errors(kTenants);
    std::vector<std::uint32_t> busy(kTenants, 0);

    {
        // Two shards with a 4-deep admission bound against 64
        // simultaneous sessions: backpressure must engage.
        Server server(loopbackOptions(socket_path, 2, 4));
        auto started = server.start();
        ASSERT_TRUE(started.hasValue());

        std::vector<std::thread> tenants;
        tenants.reserve(kTenants);
        for (std::size_t t = 0; t < kTenants; ++t) {
            tenants.emplace_back([&, t] {
                ClientOptions copts;
                copts.socketPath = socket_path;
                copts.design = "BEAR";
                auto outcome =
                    Client::runSession(copts, trace_bytes);
                if (outcome.hasValue()) {
                    reports[t] = outcome->reportJson;
                    busy[t] = outcome->busyRetries;
                } else {
                    errors[t] = outcome.error().message();
                }
            });
        }
        for (std::thread &tenant : tenants)
            tenant.join();

        server.requestDrain(CancelReason::None);
        EXPECT_EQ(server.serve(), 0);
    }

    std::uint64_t busy_total = 0;
    for (std::size_t t = 0; t < kTenants; ++t) {
        EXPECT_TRUE(errors[t].empty()) << "tenant " << t << ": "
                                       << errors[t];
        EXPECT_EQ(reports[t], reports[0]) << "tenant " << t
                                          << " diverged";
        busy_total += busy[t];
    }
    EXPECT_FALSE(reports[0].empty());
    EXPECT_GE(busy_total, 1U)
        << "64 tenants against 8 admission slots never saw Busy";
}

TEST(ServeDrain, InterruptDrainExits130)
{
    Server server(
        loopbackOptions(uniquePath("serve-drain", ".sock"), 1, 1));
    auto started = server.start();
    ASSERT_TRUE(started.hasValue());
    EXPECT_FALSE(server.draining());
    server.requestDrain(CancelReason::Interrupt);
    EXPECT_TRUE(server.draining());
    EXPECT_EQ(server.serve(), 130);
}

TEST(ServeDrain, FirstDrainReasonWins)
{
    Server server(
        loopbackOptions(uniquePath("serve-drain2", ".sock"), 1, 1));
    auto started = server.start();
    ASSERT_TRUE(started.hasValue());
    server.requestDrain(CancelReason::None);
    server.requestDrain(CancelReason::Interrupt); // too late
    EXPECT_EQ(server.serve(), 0);
}

// --- BEAR_SERVE_* env validation ------------------------------------

/**
 * RAII env override: sets (or, with nullptr, unsets) one variable and
 * restores the previous state on scope exit.  gtest runs the tests of
 * one binary sequentially in one process, so this cannot race.
 */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }
    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

/** Every serve knob, so tests can pin a known-clean environment. */
const char *const kServeEnvVars[] = {
    "BEAR_SERVE_SOCKET",       "BEAR_SERVE_SHARDS",
    "BEAR_SERVE_QUEUE",        "BEAR_SERVE_RETRY_MS",
    "BEAR_SERVE_RECV_TIMEOUT_MS", "BEAR_SERVE_MIN_RATE",
    "BEAR_SERVE_IDLE_TIMEOUT", "BEAR_SERVE_DRAIN_GRACE",
};

TEST(ServeEnv, UnsetEnvironmentKeepsDefaults)
{
    std::vector<std::unique_ptr<EnvGuard>> clear;
    for (const char *name : kServeEnvVars)
        clear.push_back(std::make_unique<EnvGuard>(name, nullptr));

    auto opts = ServerOptions::tryFromEnv();
    ASSERT_TRUE(opts.hasValue()) << opts.error().message();
    const ServerOptions defaults;
    EXPECT_EQ(opts->socketPath, defaults.socketPath);
    EXPECT_EQ(opts->shards, defaults.shards);
    EXPECT_EQ(opts->queueDepth, defaults.queueDepth);
    EXPECT_EQ(opts->busyRetryMs, defaults.busyRetryMs);
    EXPECT_EQ(opts->recvTimeoutMs, defaults.recvTimeoutMs);
    EXPECT_EQ(opts->minUploadBytesPerSec,
              defaults.minUploadBytesPerSec);
    EXPECT_DOUBLE_EQ(opts->idleTimeoutSeconds,
                     defaults.idleTimeoutSeconds);
    EXPECT_DOUBLE_EQ(opts->drainGraceSeconds,
                     defaults.drainGraceSeconds);
}

TEST(ServeEnv, FullOverrideSetIsApplied)
{
    EnvGuard socket("BEAR_SERVE_SOCKET", "/tmp/bear-env-test.sock");
    EnvGuard shards("BEAR_SERVE_SHARDS", "4");
    EnvGuard queue("BEAR_SERVE_QUEUE", "9");
    EnvGuard retry("BEAR_SERVE_RETRY_MS", "77");
    EnvGuard recv("BEAR_SERVE_RECV_TIMEOUT_MS", "1500");
    EnvGuard rate("BEAR_SERVE_MIN_RATE", "0");
    EnvGuard idle("BEAR_SERVE_IDLE_TIMEOUT", "2.5");
    EnvGuard grace("BEAR_SERVE_DRAIN_GRACE", "0.25");

    auto opts = ServerOptions::tryFromEnv();
    ASSERT_TRUE(opts.hasValue()) << opts.error().message();
    EXPECT_EQ(opts->socketPath, "/tmp/bear-env-test.sock");
    EXPECT_EQ(opts->shards, 4U);
    EXPECT_EQ(opts->queueDepth, 9U);
    EXPECT_EQ(opts->busyRetryMs, 77U);
    EXPECT_EQ(opts->recvTimeoutMs, 1500U);
    EXPECT_EQ(opts->minUploadBytesPerSec, 0U);
    EXPECT_DOUBLE_EQ(opts->idleTimeoutSeconds, 2.5);
    EXPECT_DOUBLE_EQ(opts->drainGraceSeconds, 0.25);
}

/** A rejection must name the variable AND the accepted range — the
 *  operator fixing a deploy should never have to read the source. */
void
expectEnvRejected(const char *name, const char *value,
                  const char *range)
{
    EnvGuard guard(name, value);
    auto opts = ServerOptions::tryFromEnv();
    ASSERT_FALSE(opts.hasValue())
        << name << "=" << value << " was accepted";
    const std::string message = opts.error().message();
    EXPECT_NE(message.find(name), std::string::npos) << message;
    EXPECT_NE(message.find(range), std::string::npos) << message;
    EXPECT_NE(message.find(value), std::string::npos) << message;
}

TEST(ServeEnv, OutOfRangeValuesRejectedWithTheRange)
{
    expectEnvRejected("BEAR_SERVE_SHARDS", "0", "1..64");
    expectEnvRejected("BEAR_SERVE_SHARDS", "65", "1..64");
    expectEnvRejected("BEAR_SERVE_QUEUE", "1025", "1..1024");
    expectEnvRejected("BEAR_SERVE_RETRY_MS", "0", "1..60000");
    expectEnvRejected("BEAR_SERVE_RECV_TIMEOUT_MS", "9",
                      "10..60000");
    expectEnvRejected("BEAR_SERVE_IDLE_TIMEOUT", "3601", "0..3600");
    expectEnvRejected("BEAR_SERVE_DRAIN_GRACE", "-1", "0..3600");
}

TEST(ServeEnv, MalformedValuesRejectedWithTheRange)
{
    expectEnvRejected("BEAR_SERVE_SHARDS", "two", "1..64");
    expectEnvRejected("BEAR_SERVE_RECV_TIMEOUT_MS", "200ms",
                      "10..60000");
    expectEnvRejected("BEAR_SERVE_MIN_RATE", "-4096", "0..");
    expectEnvRejected("BEAR_SERVE_IDLE_TIMEOUT", "soon", "0..3600");
}

TEST(ServeEnv, EmptySocketPathIsAConfigErrorNotUnset)
{
    EnvGuard guard("BEAR_SERVE_SOCKET", "");
    auto opts = ServerOptions::tryFromEnv();
    ASSERT_FALSE(opts.hasValue());
    const std::string message = opts.error().message();
    EXPECT_NE(message.find("BEAR_SERVE_SOCKET"), std::string::npos)
        << message;
    EXPECT_NE(message.find("empty value"), std::string::npos)
        << message;
}

TEST(ServeEnv, BadFaultSpecFailsStartNotServe)
{
    ServerOptions options = loopbackOptions(
        uniquePath("serve-badfault", ".sock"), 1, 1);
    options.run.faultSpec = "panic@"; // site missing
    Server server(options);
    auto started = server.start();
    ASSERT_FALSE(started.hasValue());
    EXPECT_NE(started.error().detail.find("BEAR_FAULT"),
              std::string::npos)
        << started.error().detail;
}

// --- Bounded deterministic Busy backoff -----------------------------

TEST(ServeClient, BusyBackoffHonoursHintButNeverTrustsIt)
{
    // A daemon hinting 0 cannot make the client spin flat out...
    EXPECT_EQ(busyBackoffMs(0, 0, 250), 10U);
    // ...and one hinting an hour cannot park it past the ceiling.
    EXPECT_EQ(busyBackoffMs(3'600'000, 0, 250), 250U);
    // A sane hint above the ramp is taken as-is.
    EXPECT_EQ(busyBackoffMs(50, 1, 250), 50U);
}

TEST(ServeClient, BusyBackoffRampsDeterministically)
{
    // 10ms << attempt, the BEAR_RETRIES shape, until the clamp.
    EXPECT_EQ(busyBackoffMs(0, 1, 1'000'000), 20U);
    EXPECT_EQ(busyBackoffMs(0, 2, 1'000'000), 40U);
    EXPECT_EQ(busyBackoffMs(0, 4, 1'000'000), 160U);
    EXPECT_EQ(busyBackoffMs(0, 4, 100), 100U);
    // Huge attempt counts saturate the shift instead of overflowing.
    EXPECT_EQ(busyBackoffMs(0, 1000, 4'000'000'000U),
              busyBackoffMs(0, 16, 4'000'000'000U));
}

// --- Tenant fault isolation (the PR 10 invariant) -------------------

/**
 * K of N tenants are fault-injected; the invariant is that the other
 * N-K complete byte-identical to the offline Runner, every faulted
 * tenant receives a structured Error frame attributing the failure,
 * and the daemon itself survives to drain cleanly.
 */
TEST(ServeChaos, FaultedTenantsAreContainedAndHealthyOnesIdentical)
{
    const std::string trace_path =
        uniquePath("serve-chaos", ".beartrace");
    const std::string socket_path =
        uniquePath("serve-chaos", ".sock");
    ASSERT_TRUE(writeSampleTrace(trace_path));
    const std::vector<std::uint8_t> trace_bytes =
        slurpBytes(trace_path);

    // Offline reference first, while the injector is still unarmed.
    RunnerOptions ropts = smallBudgets();
    ropts.cores = 2;
    ropts.traceInPath = trace_path;
    Runner runner(ropts);
    const std::string offline =
        runResultToJson(runner.runRate(DesignKind::Bear, "selftest"));
    std::remove(trace_path.c_str());

    constexpr std::size_t kTenants = 8;
    std::vector<std::string> reports(kTenants);
    std::vector<ServeError> errors(kTenants);
    // One byte per tenant: vector<bool> packs the flags into shared
    // words, so concurrent tenants' writes would race.
    std::vector<char> failed(kTenants, 0);

    {
        // Queue as deep as the tenant count: no Busy noise, so every
        // session maps 1:1 onto a tenant id and the fault plan's
        // per-tenant victims are exactly the sessions we launched.
        ServerOptions options =
            loopbackOptions(socket_path, 2, kTenants);
        options.run.faultSpec = "panic@serve.job.run:p=0.4";
        options.run.seed = 1234;
        Server server(options);
        auto started = server.start();
        ASSERT_TRUE(started.hasValue())
            << started.error().message();

        std::vector<std::thread> tenants;
        tenants.reserve(kTenants);
        for (std::size_t t = 0; t < kTenants; ++t) {
            tenants.emplace_back([&, t] {
                ClientOptions copts;
                copts.socketPath = socket_path;
                copts.design = "BEAR";
                auto outcome =
                    Client::runSession(copts, trace_bytes);
                if (outcome.hasValue()) {
                    reports[t] = outcome->reportJson;
                } else {
                    failed[t] = 1;
                    errors[t] = outcome.error();
                }
            });
        }
        for (std::thread &tenant : tenants)
            tenant.join();

        // The daemon survived its tenants' panics: it still drains
        // clean, and the injector's tally proves faults really fired.
        server.requestDrain(CancelReason::None);
        EXPECT_EQ(server.serve(), 0);
    }
    EXPECT_GE(fault::injector().firedTotal(), 1U);

    std::size_t healthy = 0;
    std::size_t faulted = 0;
    for (std::size_t t = 0; t < kTenants; ++t) {
        if (!failed[t]) {
            ++healthy;
            EXPECT_EQ(reports[t], offline)
                << "healthy tenant " << t
                << " diverged from the offline run";
            continue;
        }
        ++faulted;
        // Structured and attributed: the kind says what class of
        // failure, the detail says where it was contained and in
        // which phase the simulation was.
        EXPECT_EQ(errors[t].kind, ServeErrorKind::Internal)
            << errors[t].message();
        EXPECT_NE(errors[t].detail.find("[contained]"),
                  std::string::npos)
            << errors[t].detail;
        EXPECT_NE(errors[t].detail.find("injected fault at "
                                        "serve.job.run"),
                  std::string::npos)
            << errors[t].detail;
        EXPECT_NE(errors[t].detail.find("during"), std::string::npos)
            << errors[t].detail;
    }
    // p=0.4 over 8 tenant scopes with seed 1234 is deterministic:
    // both populations must be represented or the test proves
    // nothing.
    EXPECT_GE(healthy, 1U);
    EXPECT_GE(faulted, 1U);
    EXPECT_EQ(healthy + faulted, kTenants);
}

TEST(ServeChaos, StalledTenantIsCancelledByTheWatchdog)
{
    const std::string trace_path =
        uniquePath("serve-stall", ".beartrace");
    const std::string socket_path =
        uniquePath("serve-stall", ".sock");
    ASSERT_TRUE(writeSampleTrace(trace_path));
    const std::vector<std::uint8_t> trace_bytes =
        slurpBytes(trace_path);
    std::remove(trace_path.c_str());

    ServerOptions options = loopbackOptions(socket_path, 1, 1);
    options.run.faultSpec = "stall@serve.job.run:n=1";
    options.run.jobTimeoutSeconds = 0.3;
    Server server(options);
    auto started = server.start();
    ASSERT_TRUE(started.hasValue()) << started.error().message();

    ClientOptions copts;
    copts.socketPath = socket_path;
    copts.design = "BEAR";
    const auto t0 = std::chrono::steady_clock::now();
    auto outcome = Client::runSession(copts, trace_bytes);
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0)
            .count();

    ASSERT_FALSE(outcome.hasValue())
        << "stalled session completed";
    EXPECT_EQ(outcome.error().kind, ServeErrorKind::Deadline)
        << outcome.error().message();
    EXPECT_NE(outcome.error().detail.find("watchdog"),
              std::string::npos)
        << outcome.error().detail;
    EXPECT_NE(outcome.error().detail.find("stalled"),
              std::string::npos)
        << outcome.error().detail;
    // The watchdog fired, the client did not ride a recv timeout.
    EXPECT_LT(waited, 10.0);

    server.requestDrain(CancelReason::None);
    EXPECT_EQ(server.serve(), 0);
}

TEST(ServeDrain, StalledTenantIsCancelledWhenTheGraceExpires)
{
    // No progress deadline: only the drain grace can free the stalled
    // tenant, so an interrupt drain must cancel it as Interrupt and
    // still exit 130.
    const std::string trace_path =
        uniquePath("serve-grace", ".beartrace");
    const std::string socket_path =
        uniquePath("serve-grace", ".sock");
    ASSERT_TRUE(writeSampleTrace(trace_path));
    const std::vector<std::uint8_t> trace_bytes =
        slurpBytes(trace_path);
    std::remove(trace_path.c_str());

    ServerOptions options = loopbackOptions(socket_path, 1, 1);
    options.run.faultSpec = "stall@serve.job.run:n=1";
    options.run.jobTimeoutSeconds = 0.0;
    options.drainGraceSeconds = 0.2;
    Server server(options);
    auto started = server.start();
    ASSERT_TRUE(started.hasValue()) << started.error().message();

    Expected<SessionOutcome, ServeError> outcome =
        unexpected(ServeError{ServeErrorKind::Internal, "not run"});
    std::thread tenant([&] {
        ClientOptions copts;
        copts.socketPath = socket_path;
        copts.design = "BEAR";
        outcome = Client::runSession(copts, trace_bytes);
    });

    // Drain only once the tenant's simulation is stalled.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (fault::injector().firedAt("serve.job.run") == 0
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(fault::injector().firedAt("serve.job.run"), 1U);

    server.requestDrain(CancelReason::Interrupt);
    EXPECT_EQ(server.serve(), 130);
    tenant.join();

    ASSERT_FALSE(outcome.hasValue()) << "stalled session completed";
    EXPECT_EQ(outcome.error().kind, ServeErrorKind::Draining)
        << outcome.error().message();
    EXPECT_NE(outcome.error().detail.find("stalled"),
              std::string::npos)
        << outcome.error().detail;
}

// --- Idle and slow-loris reaping ------------------------------------

ServerOptions
reaperOptions(const std::string &socket_path)
{
    ServerOptions options = loopbackOptions(socket_path, 1, 1);
    options.recvTimeoutMs = 20;
    options.idleTimeoutSeconds = 0.2;
    options.minUploadBytesPerSec = 0;
    return options;
}

TEST(ServeReap, HalfOpenSessionIsReapedAndTheSlotFreed)
{
    const std::string trace_path =
        uniquePath("serve-idle", ".beartrace");
    const std::string socket_path =
        uniquePath("serve-idle", ".sock");
    ASSERT_TRUE(writeSampleTrace(trace_path));
    const std::vector<std::uint8_t> trace_bytes =
        slurpBytes(trace_path);
    std::remove(trace_path.c_str());

    Server server(reaperOptions(socket_path));
    auto started = server.start();
    ASSERT_TRUE(started.hasValue()) << started.error().message();

    {
        // A slow-loris client: Hello, then silence, holding the only
        // admission slot of a queue-depth-1 daemon.
        auto channel = Channel::connect(socket_path);
        ASSERT_TRUE(channel.hasValue())
            << channel.error().message();
        ASSERT_TRUE(channel
                        ->sendFrame(FrameType::Hello,
                                    buildHello("BEAR"))
                        .hasValue());
        auto hello_ok = channel->recvFrame();
        ASSERT_TRUE(hello_ok.hasValue())
            << hello_ok.error().message();
        ASSERT_EQ(hello_ok->type, FrameType::HelloOk);

        auto reaped = channel->recvFrame();
        ASSERT_TRUE(reaped.hasValue()) << reaped.error().message();
        ASSERT_EQ(reaped->type, FrameType::Error);
        const ServeError error = parseError(reaped->payload);
        EXPECT_EQ(error.kind, ServeErrorKind::Idle)
            << error.message();
        EXPECT_NE(error.detail.find("reaped"), std::string::npos)
            << error.detail;
    }

    // The reap freed the slot: a well-behaved tenant is admitted and
    // completes on the very same daemon.
    ClientOptions copts;
    copts.socketPath = socket_path;
    copts.design = "BEAR";
    copts.maxBusyRetries = 100;
    auto outcome = Client::runSession(copts, trace_bytes);
    EXPECT_TRUE(outcome.hasValue()) << outcome.error().message();

    server.requestDrain(CancelReason::None);
    EXPECT_EQ(server.serve(), 0);
}

TEST(ServeReap, DripFeedUploadTripsTheRateFloor)
{
    const std::string trace_path =
        uniquePath("serve-drip", ".beartrace");
    const std::string socket_path =
        uniquePath("serve-drip", ".sock");
    ASSERT_TRUE(writeSampleTrace(trace_path));
    const std::vector<std::uint8_t> trace_bytes =
        slurpBytes(trace_path);
    std::remove(trace_path.c_str());

    ServerOptions options = reaperOptions(socket_path);
    // A floor no drip-feed can average while resetting the idle
    // timer one byte at a time.
    options.minUploadBytesPerSec = 1U << 20;
    Server server(options);
    auto started = server.start();
    ASSERT_TRUE(started.hasValue()) << started.error().message();

    auto channel = Channel::connect(socket_path);
    ASSERT_TRUE(channel.hasValue()) << channel.error().message();
    ASSERT_TRUE(
        channel->sendFrame(FrameType::Hello, buildHello("BEAR"))
            .hasValue());
    auto hello_ok = channel->recvFrame();
    ASSERT_TRUE(hello_ok.hasValue()) << hello_ok.error().message();
    ASSERT_EQ(hello_ok->type, FrameType::HelloOk);

    // Drip a real TraceData frame one byte per tick — each byte
    // resets the idle timer, but the average rate stays absurdly
    // below the floor.  Stop once the server hangs up on us.
    const auto wire = encodeFrame(FrameType::TraceData,
                                  trace_bytes.data(), 64);
    for (const std::uint8_t byte : wire) {
        if (!channel->sendRaw(&byte, 1).hasValue())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    auto reaped = channel->recvFrame();
    ASSERT_TRUE(reaped.hasValue()) << reaped.error().message();
    ASSERT_EQ(reaped->type, FrameType::Error);
    const ServeError error = parseError(reaped->payload);
    EXPECT_EQ(error.kind, ServeErrorKind::Idle) << error.message();
    EXPECT_NE(error.detail.find("too slow"), std::string::npos)
        << error.detail;

    server.requestDrain(CancelReason::None);
    EXPECT_EQ(server.serve(), 0);
}

TEST(ServeStats, DaemonStatsReachableOverTheWire)
{
    const std::string socket_path =
        uniquePath("serve-stats", ".sock");
    Server server(loopbackOptions(socket_path, 1, 1));
    auto started = server.start();
    ASSERT_TRUE(started.hasValue());

    auto stats = Client::fetchStats(socket_path);
    ASSERT_TRUE(stats.hasValue()) << stats.error().message();
    EXPECT_NE(stats->find("bear-serve-stats-v1"), std::string::npos);

    server.requestDrain(CancelReason::None);
    EXPECT_EQ(server.serve(), 0);
}

} // namespace
