#include "serve/server.hh"

#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "serve/serve_error.hh"
#include "sim/report.hh"
#include "sim/single_run.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_stream_decoder.hh"

namespace bear::serve
{

namespace
{

/** Accept-loop poll period; bounds drain latency. */
constexpr int kAcceptPollMs = 100;

/** STATS lists at most this many per-tenant entries. */
constexpr std::size_t kMaxTenantEntries = 256;

/** Seconds to microseconds, for the Micros histograms. */
Micros
toMicros(double seconds)
{
    if (seconds <= 0.0)
        return Micros{0};
    return Micros{static_cast<std::uint64_t>(seconds * 1e6 + 0.5)};
}

/** Write every byte of @p data (handles short writes, no SIGPIPE). */
bool
sendAll(int fd, const std::uint8_t *data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendFrameBestEffort(int fd, FrameType type,
          const std::vector<std::uint8_t> &payload)
{
    const auto bytes = encodeFrame(type, payload);
    return sendAll(fd, bytes.data(), bytes.size());
}

bool
sendFrameBestEffort(int fd, FrameType type, const std::string &payload)
{
    const auto bytes = encodeFrame(
        type, reinterpret_cast<const std::uint8_t *>(payload.data()),
        payload.size());
    return sendAll(fd, bytes.data(), bytes.size());
}

/**
 * Evaluate a connection-thread fault site (serve.accept, serve.decode,
 * serve.reply).  A fired clause is contained right here and becomes a
 * structured ServeError for this one tenant — the connection thread
 * itself never unwinds, so the daemon keeps serving.  Stall is not
 * honoured at connection sites (no watchdog watches a connection
 * thread); serve.job.run is the stall site.
 */
std::optional<ServeError>
connectionFault(const char *site, const std::string &scope)
{
    auto &inj = fault::injector();
    if (!inj.armed())
        return std::nullopt;
    const auto kind = inj.evaluate(site, scope);
    if (!kind)
        return std::nullopt;
    ContainmentScope contain;
    try {
        switch (*kind) {
        case fault::FaultKind::Throw:
            throw std::runtime_error(
                detail::format("injected fault at ", site));
        case fault::FaultKind::Panic:
            bear_panic("injected fault at ", site);
        case fault::FaultKind::Alloc:
            throw std::bad_alloc();
        case fault::FaultKind::Stall:
        case fault::FaultKind::TraceIo:
            bear_warn("BEAR_FAULT: ", fault::faultKindName(*kind),
                      " fired at connection site ", site,
                      "; only serve.job.run honours it");
            return std::nullopt;
        }
    } catch (const ContainedFailure &failure) {
        return ServeError{ServeErrorKind::Internal,
                          detail::format("connection failed "
                                         "[contained] at ",
                                         site, ": ", failure.message)};
    } catch (const std::bad_alloc &) {
        return ServeError{
            ServeErrorKind::Internal,
            detail::format("allocation failed at ", site)};
    } catch (const std::exception &e) {
        return ServeError{ServeErrorKind::Internal,
                          detail::format("connection failed at ", site,
                                         ": ", e.what())};
    }
    return std::nullopt;
}

} // namespace

Expected<ServerOptions, EnvError>
ServerOptions::tryFromEnv()
{
    ServerOptions options;
    auto run = RunnerOptions::tryFromEnv();
    if (!run.hasValue())
        return unexpected(run.error());
    options.run = std::move(*run);

    {
        auto r = envNonEmptyString("BEAR_SERVE_SOCKET",
                                   options.socketPath);
        if (!r.hasValue())
            return unexpected(r.error());
    }
    std::uint64_t u64 = 0;
    {
        auto r = envU64InRange("BEAR_SERVE_SHARDS", u64, 1, 64);
        if (!r.hasValue())
            return unexpected(r.error());
        if (*r)
            options.shards = static_cast<std::uint32_t>(u64);
    }
    {
        auto r = envU64InRange("BEAR_SERVE_QUEUE", u64, 1, 1024);
        if (!r.hasValue())
            return unexpected(r.error());
        if (*r)
            options.queueDepth = static_cast<std::uint32_t>(u64);
    }
    {
        auto r = envU64InRange("BEAR_SERVE_RETRY_MS", u64, 1, 60000);
        if (!r.hasValue())
            return unexpected(r.error());
        if (*r)
            options.busyRetryMs = static_cast<std::uint32_t>(u64);
    }
    {
        auto r = envU64InRange("BEAR_SERVE_RECV_TIMEOUT_MS", u64, 10,
                               60000);
        if (!r.hasValue())
            return unexpected(r.error());
        if (*r)
            options.recvTimeoutMs = static_cast<std::uint32_t>(u64);
    }
    {
        auto r = envU64InRange("BEAR_SERVE_MIN_RATE", u64, 0,
                               std::uint64_t{1} << 30);
        if (!r.hasValue())
            return unexpected(r.error());
        if (*r)
            options.minUploadBytesPerSec = u64;
    }
    {
        auto r = envSecondsInRange("BEAR_SERVE_IDLE_TIMEOUT",
                                   options.idleTimeoutSeconds, 0.0,
                                   3600.0);
        if (!r.hasValue())
            return unexpected(r.error());
    }
    {
        auto r = envSecondsInRange("BEAR_SERVE_DRAIN_GRACE",
                                   options.drainGraceSeconds, 0.0,
                                   3600.0);
        if (!r.hasValue())
            return unexpected(r.error());
    }
    return options;
}

/** One fully-uploaded session in flight between threads. */
struct Server::SessionJob
{
    // Written by the connection thread before enqueueing.
    DesignKind design = DesignKind::Bear;
    trace::TraceMeta meta;
    std::vector<std::vector<MemRef>> coreRecords;
    std::uint64_t tenantId = 0;
    double enqueuedAt = 0.0;

    /** Cancellation/progress channel between the shard worker running
     *  this job and the serve watchdog. */
    JobControl control;

    // Written by the shard worker, read back after `done`.
    Mutex mutex;
    CondVar cv;
    bool done GUARDED_BY(mutex) = false;
    bool ok GUARDED_BY(mutex) = false;
    std::string reportJson GUARDED_BY(mutex);
    ServeError error GUARDED_BY(mutex);
    double queueWaitSeconds GUARDED_BY(mutex) = 0.0;
    double runSeconds GUARDED_BY(mutex) = 0.0;
};

/** One worker shard: a bounded queue and the thread draining it. */
struct Server::Shard
{
    std::uint32_t index = 0;
    Mutex mutex;
    CondVar cv;
    std::deque<SessionJob *> queue GUARDED_BY(mutex);
    /** Admitted-but-not-finished sessions; the admission bound. */
    std::uint32_t inFlight GUARDED_BY(mutex) = 0;
    std::uint64_t jobsRun GUARDED_BY(mutex) = 0;
    bool stop GUARDED_BY(mutex) = false;
    std::thread worker;
};

Server::Server(ServerOptions options) : options_(std::move(options))
{
    bear_assert(options_.shards >= 1, "need at least one shard");
    bear_assert(options_.queueDepth >= 1,
                "need an admission bound of at least one");
    shards_.reserve(options_.shards);
    for (std::uint32_t s = 0; s < options_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->index = s;
        shards_.push_back(std::move(shard));
    }
}

Server::~Server()
{
    if (started_.load()) {
        requestDrain(CancelReason::None);
        serve();
    }
}

Expected<bool, ServeError>
Server::start()
{
    bear_assert(!started_.load(), "server already started");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        return unexpected(ServeError{
            ServeErrorKind::Io,
            "socket path \"" + options_.socketPath + "\" exceeds "
                + std::to_string(sizeof(addr.sun_path) - 1)
                + " bytes"});
    }
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        return unexpected(ServeError{
            ServeErrorKind::Io,
            std::string("socket: ") + std::strerror(errno)});
    }
    // A stale socket file from a crashed daemon must not block the
    // next one (bind would fail with EADDRINUSE on the dead path).
    ::unlink(options_.socketPath.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr))
        != 0) {
        const int err = errno;
        ::close(fd);
        return unexpected(ServeError{
            ServeErrorKind::Io,
            "bind " + options_.socketPath + ": "
                + std::strerror(err)});
    }
    if (::listen(fd, 128) != 0) {
        const int err = errno;
        ::close(fd);
        return unexpected(ServeError{
            ServeErrorKind::Io,
            "listen " + options_.socketPath + ": "
                + std::strerror(err)});
    }

    // Arm the fault plan (BEAR_FAULT with serve.* sites) only once
    // the socket is live, so a bind failure cannot leave a stale plan
    // armed process-wide.
    if (!options_.run.faultSpec.empty()) {
        auto plan = fault::parseFaultSpec(options_.run.faultSpec);
        if (!plan.hasValue()) {
            ::close(fd);
            ::unlink(options_.socketPath.c_str());
            return unexpected(ServeError{
                ServeErrorKind::Internal,
                "BEAR_FAULT=\"" + options_.run.faultSpec
                    + "\": " + plan.error()});
        }
        plan->seed = options_.run.seed;
        fault_plan_.emplace(std::move(*plan));
    }

    listen_fd_ = fd;
    started_.store(true);
    // A drain past its grace window cancels every in-flight
    // simulation: SIGTERM must win even against a stalled tenant, or
    // one wedged job holds the whole shutdown hostage.
    watchdog_.emplace(options_.run.jobTimeoutSeconds,
                      [this] { return drainGraceExpired(); });
    for (auto &shard : shards_) {
        Shard *s = shard.get();
        s->worker = std::thread([this, s] { shardLoop(*s); });
    }
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::requestDrain(CancelReason reason)
{
    // Latch on the first call: a graceful (None) drain already in
    // progress must not be upgraded to an interrupt exit code by a
    // late signal, and vice versa.  The reason and start time are
    // written before draining_ flips, so any thread that observes
    // draining() == true sees both.
    if (drain_latch_.exchange(true))
        return;
    drain_reason_.store(reason);
    drain_started_.store(wallSeconds());
    draining_.store(true);
}

bool
Server::draining() const
{
    return draining_.load(std::memory_order_relaxed);
}

bool
Server::drainGraceExpired() const
{
    return draining()
        && wallSeconds() - drain_started_.load()
        > options_.drainGraceSeconds;
}

int
Server::serve()
{
    bear_assert(started_.load(), "serve() before start()");
    if (accept_thread_.joinable())
        accept_thread_.join();

    // No new connections arrive; join the ones still finishing.
    std::vector<std::thread> connections;
    {
        MutexLock lock(conn_mutex_);
        connections.swap(connections_);
    }
    for (auto &t : connections)
        t.join();

    // Queues can no longer grow; tell the workers to finish and stop.
    for (auto &shard : shards_) {
        {
            MutexLock lock(shard->mutex);
            shard->stop = true;
        }
        shard->cv.notifyAll();
    }
    for (auto &shard : shards_) {
        if (shard->worker.joinable())
            shard->worker.join();
    }

    // The watchdog outlives the workers (it is what cancels a wedged
    // job so the joins above can finish); stop it last.
    watchdog_.reset();
    fault_plan_.reset();

    ::unlink(options_.socketPath.c_str());
    started_.store(false);
    return drain_reason_.load() == CancelReason::Interrupt ? 130 : 0;
}

void
Server::acceptLoop()
{
    while (!draining()) {
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, kAcceptPollMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            bear_warn("beard: poll on the listen socket failed: ",
                      std::strerror(errno));
            break;
        }
        if (ready == 0 || !(pfd.revents & POLLIN))
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == EAGAIN
                || errno == EWOULDBLOCK)
                continue;
            bear_warn("beard: accept failed: ", std::strerror(errno));
            break;
        }
        timeval timeout{};
        const long ms = static_cast<long>(options_.recvTimeoutMs);
        timeout.tv_sec = ms / 1000;
        timeout.tv_usec = (ms % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        MutexLock lock(conn_mutex_);
        connections_.emplace_back([this, fd] { connectionLoop(fd); });
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
}

void
Server::connectionLoop(int fd)
{
    // serve.accept: an injected accept-path fault is contained before
    // any session state exists — the would-be tenant still gets a
    // structured Error frame, and the listener keeps accepting.
    if (auto fault = connectionFault("serve.accept", "daemon")) {
        sendFrameBestEffort(fd, FrameType::Error, buildError(*fault));
        bear_warn("beard: ", fault->message());
        ::close(fd);
        return;
    }

    enum class State : std::uint8_t
    {
        AwaitHello,
        Upload,
        Closed, ///< session settled; stop reading
    };

    FrameDecoder frames;
    trace::StreamingTraceDecoder decoder;
    State state = State::AwaitHello;

    Shard *shard = nullptr;
    DesignKind design = DesignKind::Bear;
    TenantEntry entry;
    double hello_at = 0.0;
    bool settled = false; // stats entry recorded for this session

    // Liveness accounting for idle/slow-loris reaping.
    double last_byte_at = wallSeconds();
    double upload_started = 0.0;
    std::uint64_t wire_bytes = 0;

    // Every abnormal exit funnels here: the peer gets the reason as
    // an Error frame (best effort) and the daemon logs it; other
    // sessions never notice.
    const auto bail = [&](const ServeError &error) {
        sendFrameBestEffort(fd, FrameType::Error, buildError(error));
        bear_warn("beard: tenant ", entry.tenantId, ": ",
                  error.message());
        if (shard != nullptr && !settled) {
            entry.ok = false;
            entry.error = error.message();
            entry.serviceMicros =
                toMicros(wallSeconds() - hello_at).count();
            noteCompleted(entry);
            settled = true;
        }
        state = State::Closed;
    };

    const auto onHello = [&](const Frame &frame) {
        if (draining()) {
            sendFrameBestEffort(fd, FrameType::Error,
                      buildError(ServeError{
                          ServeErrorKind::Draining,
                          "daemon is draining; no new sessions"}));
            state = State::Closed;
            return;
        }
        auto hello = parseHello(frame.payload);
        if (!hello.hasValue()) {
            bail(hello.error());
            return;
        }
        const std::uint64_t tenant = next_tenant_.fetch_add(1) + 1;
        Shard &target = *shards_[tenant % shards_.size()];

        // Admission control: the shard's in-flight count is the
        // bound.  Busy is a reply, not an error — the client backs
        // off and retries; the daemon's memory stays bounded.
        bool admit = false;
        std::uint32_t depth = 0;
        {
            MutexLock lock(target.mutex);
            if (target.inFlight < options_.queueDepth) {
                depth = ++target.inFlight;
                admit = true;
            }
        }
        if (!admit) {
            noteRejected();
            sendFrameBestEffort(fd, FrameType::Busy,
                      buildBusy(options_.busyRetryMs));
            state = State::Closed;
            return;
        }

        shard = &target;
        design = hello->design;
        entry.tenantId = tenant;
        entry.shard = target.index;
        entry.design = hello->designName;
        hello_at = wallSeconds();
        {
            MutexLock lock(stats_mutex_);
            ++admitted_;
            admission_depth_.sample(Count{depth});
        }
        HelloOk ok;
        ok.tenantId = tenant;
        ok.shard = target.index;
        sendFrameBestEffort(fd, FrameType::HelloOk, buildHelloOk(ok));
        state = State::Upload;
        upload_started = wallSeconds();
    };

    // Idle/slow-loris reaping: a half-open connection or a client
    // dripping one byte per tick must not pin an admission slot (or a
    // pre-admission connection thread) forever.  Checked on every
    // receive-timeout tick and after every successful read.
    const auto checkLiveness = [&]() {
        const double idle = options_.idleTimeoutSeconds;
        if (idle <= 0.0 || state == State::Closed)
            return;
        const double now = wallSeconds();
        if (now - last_byte_at > idle) {
            bail(ServeError{
                ServeErrorKind::Idle,
                detail::format("session sent no bytes for ", idle,
                               "s; reaped to free its slot")});
            return;
        }
        // Past the idle window a session must also have averaged the
        // minimum upload rate — resetting the idle timer with a
        // drip-feed cannot beat the average.
        const std::uint64_t rate = options_.minUploadBytesPerSec;
        if (state != State::Upload || rate == 0)
            return;
        const double elapsed = now - upload_started;
        if (elapsed > idle
            && static_cast<double>(wire_bytes)
                < static_cast<double>(rate) * elapsed) {
            bail(ServeError{
                ServeErrorKind::Idle,
                detail::format("upload too slow: ", wire_bytes,
                               " bytes in ", elapsed, "s (floor ",
                               rate,
                               " bytes/s); reaped to free its slot")});
        }
    };

    const auto onTraceDone = [&]() {
        auto finished = decoder.finish();
        if (!finished.hasValue()) {
            bail(fromTraceError(finished.error()));
            return;
        }
        const trace::TraceMeta &meta = decoder.meta();
        entry.workload = meta.workload;
        entry.records = decoder.recordsDecoded();

        SessionJob job;
        job.design = design;
        job.meta = meta;
        job.coreRecords = decoder.takeCoreRecords();
        job.tenantId = entry.tenantId;
        job.enqueuedAt = wallSeconds();
        auto every = trace::checkEveryCoreHasRecords(job.coreRecords);
        if (!every.hasValue()) {
            bail(fromTraceError(every.error()));
            return;
        }

        {
            MutexLock lock(shard->mutex);
            shard->queue.push_back(&job);
        }
        shard->cv.notifyAll();

        bool job_ok = false;
        std::string report;
        ServeError job_error;
        {
            MutexLock lock(job.mutex);
            job.cv.wait(lock, [&]() NO_THREAD_SAFETY_ANALYSIS {
                return job.done;
            });
            job_ok = job.ok;
            report = std::move(job.reportJson);
            job_error = job.error;
            entry.queueWaitMicros =
                toMicros(job.queueWaitSeconds).count();
            entry.runMicros = toMicros(job.runSeconds).count();
        }
        if (!job_ok) {
            bail(job_error);
            return;
        }
        // serve.reply: the simulation succeeded but delivering the
        // report fails — the tenant hears that, attributed, instead
        // of a silent close.
        if (auto fault = connectionFault(
                "serve.reply",
                "tenant-" + std::to_string(entry.tenantId))) {
            bail(*fault);
            return;
        }
        sendFrameBestEffort(fd, FrameType::Report, report);
        entry.ok = true;
        entry.serviceMicros =
            toMicros(wallSeconds() - hello_at).count();
        noteCompleted(entry);
        settled = true;
        state = State::Closed;
    };

    const auto handleFrame = [&](Frame frame) {
        if (state == State::AwaitHello) {
            switch (frame.type) {
            case FrameType::Hello:
                onHello(frame);
                return;
            case FrameType::StatsReq:
                sendFrameBestEffort(fd, FrameType::StatsReport, statsJson());
                state = State::Closed;
                return;
            case FrameType::Bye:
                state = State::Closed;
                return;
            default:
                bail(ServeError{
                    ServeErrorKind::Protocol,
                    std::string(frameTypeName(frame.type))
                        + " frame before hello"});
                return;
            }
        }
        // State::Upload
        switch (frame.type) {
        case FrameType::TraceData: {
            // serve.decode: evaluated once per session (on its first
            // trace frame), so p-mode clauses pick victims per tenant
            // rather than per 64KiB chunk.
            if (entry.frames == 0) {
                if (auto fault = connectionFault(
                        "serve.decode",
                        "tenant-" + std::to_string(entry.tenantId))) {
                    bail(*fault);
                    return;
                }
            }
            const double t0 = wallSeconds();
            auto fed = decoder.feed(frame.payload.data(),
                                    frame.payload.size());
            if (!fed.hasValue()) {
                bail(fromTraceError(fed.error()));
                return;
            }
            entry.frameLatency.sample(toMicros(wallSeconds() - t0));
            entry.bytesReceived += frame.payload.size();
            ++entry.frames;
            return;
        }
        case FrameType::TraceDone:
            onTraceDone();
            return;
        case FrameType::Bye:
            bail(ServeError{ServeErrorKind::Truncated,
                            "session abandoned before trace-done"});
            return;
        default:
            bail(ServeError{ServeErrorKind::Protocol,
                            std::string(frameTypeName(frame.type))
                                + " frame during upload"});
            return;
        }
    };

    std::uint8_t buffer[64 * 1024];
    while (state != State::Closed) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Receive-timeout tick: enforce the drain grace so a
                // stalled upload cannot hold the drain hostage.
                if (drainGraceExpired()) {
                    if (state == State::AwaitHello) {
                        state = State::Closed;
                    } else {
                        bail(ServeError{
                            ServeErrorKind::Draining,
                            "daemon drained before the upload "
                            "finished"});
                    }
                    continue;
                }
                checkLiveness();
                continue;
            }
            bail(ServeError{ServeErrorKind::Io,
                            std::string("recv: ")
                                + std::strerror(errno)});
            break;
        }
        if (n == 0) {
            if (state == State::Upload) {
                bail(ServeError{
                    ServeErrorKind::Truncated,
                    "connection closed mid-session ("
                        + std::to_string(entry.bytesReceived)
                        + " trace bytes received)"});
            }
            break;
        }
        last_byte_at = wallSeconds();
        wire_bytes += static_cast<std::uint64_t>(n);
        checkLiveness();
        frames.ingest(buffer, static_cast<std::size_t>(n));
        while (state != State::Closed) {
            auto next = frames.next();
            if (!next.hasValue()) {
                bail(next.error());
                break;
            }
            if (!next->has_value())
                break;
            handleFrame(std::move(**next));
        }
    }

    // Release the admission slot whatever happened above.
    if (shard != nullptr) {
        MutexLock lock(shard->mutex);
        --shard->inFlight;
    }
    ::close(fd);
}

std::string
Server::statsJson()
{
    JsonWriter json;
    json.beginObject();
    json.field("schema", "bear-serve-stats-v1");
    {
        MutexLock lock(stats_mutex_);
        json.field("tenantsAdmitted", admitted_);
        json.field("tenantsCompleted", completed_);
        json.field("tenantsRejectedBusy", rejected_busy_);
        json.field("tenantsFailed", failed_);
        json.field("tenantsDropped", tenants_dropped_);
        writeHistogram(json, "admissionDepth", admission_depth_);
        writeHistogram(json, "serviceMicros", service_time_);
        writeHistogram(json, "queueWaitMicros", queue_wait_);
        writeHistogram(json, "runMicros", run_time_);
        json.beginArray("tenants");
        for (const TenantEntry &t : tenants_) {
            json.beginObject();
            json.field("tenant", t.tenantId);
            json.field("shard", static_cast<std::uint64_t>(t.shard));
            json.field("workload", t.workload);
            json.field("design", t.design);
            json.field("ok", t.ok);
            if (!t.ok)
                json.field("error", t.error);
            json.field("records", t.records);
            json.field("bytesReceived", t.bytesReceived);
            json.field("frames", t.frames);
            json.field("queueWaitMicros", t.queueWaitMicros);
            json.field("runMicros", t.runMicros);
            json.field("serviceMicros", t.serviceMicros);
            writeHistogram(json, "frameMicros", t.frameLatency);
            json.endObject();
        }
        json.endArray();
    }
    json.beginArray("shards");
    for (auto &shard : shards_) {
        MutexLock lock(shard->mutex);
        json.beginObject();
        json.field("shard", static_cast<std::uint64_t>(shard->index));
        json.field("jobsRun", shard->jobsRun);
        json.field("inFlight",
                   static_cast<std::uint64_t>(shard->inFlight));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

void
Server::noteRejected()
{
    MutexLock lock(stats_mutex_);
    ++rejected_busy_;
}

void
Server::noteCompleted(TenantEntry entry)
{
    MutexLock lock(stats_mutex_);
    if (entry.ok)
        ++completed_;
    else
        ++failed_;
    service_time_.sample(Micros{entry.serviceMicros});
    queue_wait_.sample(Micros{entry.queueWaitMicros});
    run_time_.sample(Micros{entry.runMicros});
    if (tenants_.size() < kMaxTenantEntries)
        tenants_.push_back(std::move(entry));
    else
        ++tenants_dropped_;
}

void
Server::shardLoop(Shard &shard)
{
    for (;;) {
        SessionJob *job = nullptr;
        {
            MutexLock lock(shard.mutex);
            shard.cv.wait(lock, [&]() NO_THREAD_SAFETY_ANALYSIS {
                return shard.stop || !shard.queue.empty();
            });
            if (shard.queue.empty()) {
                if (shard.stop)
                    return;
                continue;
            }
            job = shard.queue.front();
            shard.queue.pop_front();
            ++shard.jobsRun;
        }
        runSession(*job);
    }
}

void
Server::runSession(SessionJob &job)
{
    const double started = wallSeconds();
    const std::string scope =
        "tenant-" + std::to_string(job.tenantId);
    std::string report;
    ServeError error;
    bool ok = false;
    double run_seconds = 0.0;

    // One tenant's failure — a panic deep in a checker, an allocation
    // failure, an injected fault, a stall — must stay that tenant's
    // problem: contain it, attribute it (kind + phase), answer with
    // an Error frame, keep serving everyone else.  The Watch puts the
    // job under the serve watchdog for the duration, so a stall
    // becomes a Deadline failure instead of a wedged shard.
    Watchdog::Watch watch(*watchdog_, job.control);
    ContainmentScope contain;
    try {
        SingleRunSpec spec;
        spec.config = options_.run.systemConfig(job.design);
        spec.config.cores = job.meta.coreCount;
        spec.config.control = &job.control;
        spec.warmupRefsPerCore = options_.run.warmupRefsPerCore;
        spec.measureRefsPerCore = options_.run.measureRefsPerCore;
        spec.workload = job.meta.workload;
        spec.design = designName(job.design);

        std::vector<std::unique_ptr<RefStream>> streams;
        streams.reserve(job.meta.coreCount);
        for (std::uint32_t c = 0; c < job.meta.coreCount; ++c) {
            streams.push_back(
                std::make_unique<trace::VectorReplayStream>(
                    std::move(job.coreRecords[c])));
        }

        checkJobFaultSite("serve.job.run", scope, job.control);
        const RunResult result =
            runSingleTenant(spec, std::move(streams));
        report = runResultToJson(result);
        run_seconds = wallSeconds() - started;
        ok = true;
    } catch (const ContainedFailure &failure) {
        error = ServeError{
            ServeErrorKind::Internal,
            detail::format("simulation failed [contained] during ",
                           job.control.phaseName(), ": ",
                           failure.message)};
    } catch (const JobCancelled &cancelled) {
        if (cancelled.reason == CancelReason::Timeout) {
            error = ServeError{
                ServeErrorKind::Deadline,
                detail::format(
                    "watchdog: no forward progress within ",
                    options_.run.jobTimeoutSeconds, "s during ",
                    job.control.phaseName(),
                    cancelled.diagnostics.empty()
                        ? std::string()
                        : ": " + cancelled.diagnostics)};
        } else {
            error = ServeError{
                ServeErrorKind::Draining,
                detail::format(
                    "daemon drained mid-simulation during ",
                    job.control.phaseName(),
                    cancelled.diagnostics.empty()
                        ? std::string()
                        : ": " + cancelled.diagnostics)};
        }
    } catch (const std::bad_alloc &) {
        error = ServeError{
            ServeErrorKind::Internal,
            detail::format("simulation failed [alloc] during ",
                           job.control.phaseName(),
                           ": allocation failure")};
    } catch (const std::exception &e) {
        error = ServeError{
            ServeErrorKind::Internal,
            detail::format("simulation failed during ",
                           job.control.phaseName(), ": ", e.what())};
    }

    {
        MutexLock lock(job.mutex);
        job.ok = ok;
        job.reportJson = std::move(report);
        job.error = std::move(error);
        job.queueWaitSeconds = started - job.enqueuedAt;
        job.runSeconds = run_seconds;
        job.done = true;
        // Notify while still holding the mutex: the waiting
        // connection thread owns the SessionJob on its stack and
        // destroys it the moment its wait returns, so the broadcast
        // must complete before the waiter can re-acquire the lock.
        job.cv.notifyAll();
    }
}

} // namespace bear::serve
