/**
 * @file
 * beard's core: a multi-tenant simulation-as-a-service daemon over a
 * Unix-domain socket (DESIGN.md §16).
 *
 * Each accepted connection is one tenant session: the client names a
 * design from the roster in its Hello, streams a .beartrace as
 * CRC-sealed frames, and receives the schema-v2 JSON run report when
 * its simulation completes.  Sessions are hashed onto a fixed pool of
 * worker shards; each shard owns a bounded queue, and admission
 * control happens at Hello time — a shard already holding queueDepth
 * admitted sessions answers Busy with a retry hint instead of
 * buffering unboundedly.  That is the whole backpressure story: the
 * daemon's memory footprint is bounded by shards * queueDepth decoded
 * traces, never by how many clients pile on.
 *
 * The byte-identity guarantee is structural: a served session runs
 * runSingleTenant() over VectorReplayStreams of the decoded records —
 * literally the same code path and stream semantics as an offline
 * replay of the same file — so `bearload` output diffs clean against
 * `beard --offline` (ci.sh step 10 pins this under sanitizers).
 *
 * Draining: requestDrain() (wired to SIGINT/SIGTERM by the beard
 * binary via interruptRequested()) stops admissions, lets every
 * in-flight tenant finish and collect its report, then serve()
 * returns — 130 for an interrupt drain, mirroring Runner::run.
 */

#ifndef BEAR_SERVE_SERVER_HH
#define BEAR_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "common/sync.hh"
#include "obs/histogram.hh"
#include "serve/frame.hh"
#include "sim/job_control.hh"
#include "sim/runner.hh"
#include "sim/watchdog.hh"

namespace bear::serve
{

/** Daemon knobs; `run` carries the per-tenant simulation budgets. */
struct ServerOptions
{
    std::string socketPath = "/tmp/beard.sock";

    /** Worker shards; tenants are hashed (id % shards) onto them. */
    std::uint32_t shards = 2;

    /** Admitted-session bound per shard; beyond it Hello gets Busy. */
    std::uint32_t queueDepth = 4;

    /** Retry hint carried in Busy replies. */
    std::uint32_t busyRetryMs = 25;

    /**
     * Per-connection receive timeout in milliseconds: the tick that
     * bounds how late a connection notices a drain request or an
     * idle/slow-loris reap.  BEAR_SERVE_RECV_TIMEOUT_MS.
     */
    std::uint32_t recvTimeoutMs = 200;

    /**
     * Reap a session after this many seconds without a byte from the
     * peer — a half-open connection must not pin its admission slot.
     * 0 disables reaping.  BEAR_SERVE_IDLE_TIMEOUT.
     */
    double idleTimeoutSeconds = 60.0;

    /**
     * Slow-loris floor: once a session is older than the idle
     * timeout, its average upload rate must reach this many bytes
     * per second or it is reaped — dripping one byte per tick resets
     * the idle timer but cannot beat the average.  0 disables the
     * rate check.  BEAR_SERVE_MIN_RATE.
     */
    std::uint64_t minUploadBytesPerSec = 4096;

    /** After a drain request, mid-upload sessions get this long.
     *  BEAR_SERVE_DRAIN_GRACE. */
    double drainGraceSeconds = 5.0;

    /** Simulation knobs shared by every tenant (budgets, seed, ...). */
    RunnerOptions run;

    /**
     * Parse the daemon's environment overrides strictly, the same
     * contract as RunnerOptions::tryFromEnv (which this calls for
     * `run`): BEAR_SERVE_SOCKET, BEAR_SERVE_SHARDS (1..64),
     * BEAR_SERVE_QUEUE (1..1024), BEAR_SERVE_RETRY_MS (1..60000),
     * BEAR_SERVE_RECV_TIMEOUT_MS (10..60000), BEAR_SERVE_IDLE_TIMEOUT
     * (seconds, 0..3600; 0 disables), BEAR_SERVE_MIN_RATE (bytes/s,
     * 0..2^30; 0 disables), BEAR_SERVE_DRAIN_GRACE (seconds,
     * 0..3600).  A set-but-malformed variable is an EnvError naming
     * the variable and the accepted range — never a silent fallback.
     */
    [[nodiscard]] static Expected<ServerOptions, EnvError>
    tryFromEnv();
};

/** One finished tenant session, as the STATS report lists it. */
struct TenantEntry
{
    std::uint64_t tenantId = 0;
    std::uint32_t shard = 0;
    std::string workload;
    std::string design;
    std::uint64_t records = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t frames = 0;
    std::uint64_t queueWaitMicros = 0;
    std::uint64_t runMicros = 0;
    std::uint64_t serviceMicros = 0;
    /** Per-frame handling latency (decode + bookkeeping). */
    obs::Histogram<Micros> frameLatency;
    bool ok = false;
    std::string error;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket, spawn the shard workers and the accept thread.
     * Fails (Io) when the path cannot be bound — the loud alternative
     * to serving nothing on a dead socket.
     */
    [[nodiscard]] Expected<bool, ServeError> start();

    /**
     * Begin draining: stop admitting, let in-flight tenants finish.
     * First reason wins; callable from any thread (beard's signal
     * watcher calls it when interruptRequested() turns true).
     */
    void requestDrain(CancelReason reason);

    bool draining() const;

    /**
     * Block until the drain completes and every thread is joined.
     * Returns the process exit code: 130 for an interrupt drain
     * (mirroring Runner::run), 0 otherwise.
     */
    int serve();

    /** Daemon-wide statistics snapshot (bear-serve-stats-v1 JSON). */
    std::string statsJson();

    const ServerOptions &options() const { return options_; }

  private:
    struct Shard;
    struct SessionJob;

    void acceptLoop();
    void connectionLoop(int fd);
    void shardLoop(Shard &shard);

    /** Has a drain been pending longer than drainGraceSeconds? */
    bool drainGraceExpired() const;

    /** Run one admitted, fully-uploaded session on a shard worker. */
    void runSession(SessionJob &job);

    void noteRejected();
    void noteCompleted(TenantEntry entry);

    ServerOptions options_;
    int listen_fd_ = -1;
    std::atomic<bool> started_{false};
    std::atomic<bool> drain_latch_{false};
    std::atomic<bool> draining_{false};
    std::atomic<CancelReason> drain_reason_{CancelReason::None};
    std::atomic<double> drain_started_{0.0};
    std::atomic<std::uint64_t> next_tenant_{0};

    std::vector<std::unique_ptr<Shard>> shards_;
    std::thread accept_thread_;

    /** BEAR_FAULT, armed from start() to the end of serve(). */
    std::optional<fault::ArmedPlan> fault_plan_;

    /**
     * The serve-side watchdog, the same sim/watchdog.hh supervisor the
     * Runner uses: from start() until serve() has joined the shard
     * workers it cancels a stalled tenant simulation as Timeout after
     * run.jobTimeoutSeconds, and every in-flight one as Interrupt once
     * a drain outlives its grace window — SIGTERM wins even against a
     * wedged tenant.
     */
    std::optional<Watchdog> watchdog_;

    Mutex conn_mutex_;
    std::vector<std::thread> connections_ GUARDED_BY(conn_mutex_);

    Mutex stats_mutex_;
    std::uint64_t admitted_ GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t completed_ GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t rejected_busy_ GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t failed_ GUARDED_BY(stats_mutex_) = 0;
    std::uint64_t tenants_dropped_ GUARDED_BY(stats_mutex_) = 0;
    obs::DepthHistogram admission_depth_ GUARDED_BY(stats_mutex_);
    obs::Histogram<Micros> service_time_ GUARDED_BY(stats_mutex_);
    obs::Histogram<Micros> queue_wait_ GUARDED_BY(stats_mutex_);
    obs::Histogram<Micros> run_time_ GUARDED_BY(stats_mutex_);
    std::vector<TenantEntry> tenants_ GUARDED_BY(stats_mutex_);
};

} // namespace bear::serve

#endif // BEAR_SERVE_SERVER_HH
