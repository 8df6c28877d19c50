#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <new>
#include <optional>
#include <sstream>
#include <thread>

#include "common/fault.hh"
#include "common/log.hh"
#include "sim/single_run.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"

namespace bear
{

namespace
{

/**
 * Accepted ranges of the numeric knobs.  Values above these are
 * either physically meaningless (a 2^40-reference warm-up would run
 * for months) or would silently truncate on the narrower option
 * fields — both are rejected with the range in the error instead.
 */
constexpr std::uint64_t kMaxRefsPerCore = 1ULL << 40;
constexpr std::uint64_t kMaxWorkers = 4096;
constexpr std::uint64_t kMaxEventTraceCapacity = 1ULL << 24;
constexpr double kMaxJobTimeoutSeconds = 86400.0;

/**
 * Strict full-string parsers: the whole value must be consumed, so
 * "12x" or "" is an error, not a truncated-but-accepted number.
 * std::optional-of-nothing would lose the reason; return it directly.
 */
const char *
parseU64(const char *text, std::uint64_t &out)
{
    if (*text == '\0')
        return "empty value";
    if (*text == '-')
        return "negative value";
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        return "not an unsigned integer";
    if (errno == ERANGE)
        return "out of range";
    out = v;
    return nullptr;
}

const char *
parseDouble(const char *text, double &out)
{
    if (*text == '\0')
        return "empty value";
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        return "not a number";
    if (errno == ERANGE || !std::isfinite(v))
        return "out of range";
    out = v;
    return nullptr;
}

/**
 * A double override whose domain is not a closed range: @p check
 * returns why a parsed value is rejected, or nullptr to accept it.
 */
Expected<bool, EnvError>
envDoubleChecked(const char *name, double &out,
                 const char *check(double))
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    double parsed = 0.0;
    const char *why = parseDouble(text, parsed);
    if (!why)
        why = check(parsed);
    if (why)
        return unexpected(EnvError{name, text, why});
    out = parsed;
    return true;
}

/**
 * Carries a failed IPC_alone reference run out of a mix job's
 * execute(); the catch layer re-attributes it to the mix cell with
 * phase = IpcAlone.
 */
struct AloneFailed
{
    RunError error;
};

/** Attribute a cancelled job: an interrupt drain or a timeout. */
void
noteCancelled(RunError &err, const JobCancelled &cancelled,
              double timeoutSeconds)
{
    if (cancelled.reason == CancelReason::Interrupt) {
        err.kind = RunErrorKind::Interrupted;
        err.what = "interrupted (SIGINT/SIGTERM)";
    } else {
        err.kind = RunErrorKind::Timeout;
        err.what = detail::format("watchdog: no forward progress within ",
                                  timeoutSeconds, " s");
    }
    err.diagnostics = cancelled.diagnostics;
}

/**
 * Releases the shared trace-recording claim if the claiming job dies,
 * so a retried (or later) job can record instead of the whole sweep
 * silently losing its trace.
 */
class ClaimGuard
{
  public:
    explicit ClaimGuard(std::atomic<bool> &flag) : flag_(flag) {}

    ~ClaimGuard()
    {
        if (active_)
            flag_.store(false);
    }

    void commit() { active_ = false; }

  private:
    std::atomic<bool> &flag_;
    bool active_ = true;
};

} // namespace

std::string
EnvError::message() const
{
    return variable + "=\"" + value + "\": " + reason;
}

Expected<bool, EnvError>
envU64InRange(const char *name, std::uint64_t &out, std::uint64_t lo,
              std::uint64_t hi)
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    std::uint64_t parsed = 0;
    const char *why = parseU64(text, parsed);
    if (!why && (parsed < lo || parsed > hi))
        why = "out of range";
    if (why) {
        return unexpected(EnvError{
            name, text,
            detail::format(why, " (accepted range ", lo, "..", hi,
                           ")")});
    }
    out = parsed;
    return true;
}

Expected<bool, EnvError>
envSecondsInRange(const char *name, double &out, double lo, double hi)
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    double parsed = 0.0;
    const char *why = parseDouble(text, parsed);
    if (!why && (parsed < lo || parsed > hi))
        why = "out of range";
    if (why) {
        return unexpected(EnvError{
            name, text,
            detail::format(why, " (accepted range ", lo, "..", hi,
                           " seconds)")});
    }
    out = parsed;
    return true;
}

Expected<bool, EnvError>
envNonEmptyString(const char *name, std::string &out)
{
    const char *text = std::getenv(name);
    if (!text)
        return false;
    if (*text == '\0')
        return unexpected(EnvError{name, text, "empty value"});
    out = text;
    return true;
}

const char *
jobPhaseName(JobPhase phase)
{
    switch (phase) {
    case JobPhase::Setup:
        return "setup";
    case JobPhase::Warmup:
        return "warmup";
    case JobPhase::Measure:
        return "measure";
    case JobPhase::IpcAlone:
        return "ipc_alone";
    }
    return "?";
}

const char *
runErrorKindName(RunErrorKind kind)
{
    switch (kind) {
    case RunErrorKind::Contained:
        return "contained";
    case RunErrorKind::Timeout:
        return "timeout";
    case RunErrorKind::Interrupted:
        return "interrupted";
    case RunErrorKind::TraceIo:
        return "trace-io";
    }
    return "?";
}

std::string
RunError::message() const
{
    std::string m = detail::format(design, '/', workload, " failed [",
                                   runErrorKindName(kind), "] during ",
                                   jobPhaseName(phase), ": ", what);
    if (attempts > 1)
        m += detail::format(" (after ", attempts, " attempts)");
    return m;
}

Expected<RunnerOptions, EnvError>
RunnerOptions::tryFromEnv()
{
    RunnerOptions options;

    std::uint64_t full = 0;
    auto r = envU64InRange("BEAR_FULL", full, 0, 1);
    if (!r)
        return unexpected(r.error());
    if (full)
        options.scale = 1.0;

    r = envDoubleChecked("BEAR_SCALE", options.scale, [](double v) {
        return v > 0.0 && v <= 16.0 ? nullptr : "scale must be in (0, 16]";
    });
    if (!r)
        return unexpected(r.error());

    r = envU64InRange("BEAR_WARMUP", options.warmupRefsPerCore, 0,
                      kMaxRefsPerCore);
    if (!r)
        return unexpected(r.error());
    r = envU64InRange("BEAR_MEASURE", options.measureRefsPerCore, 0,
                      kMaxRefsPerCore);
    if (!r)
        return unexpected(r.error());

    std::uint64_t workers = options.workers;
    r = envU64InRange("BEAR_WORKERS", workers, 0, kMaxWorkers);
    if (!r)
        return unexpected(r.error());
    options.workers = static_cast<std::uint32_t>(workers);

    std::uint64_t trace = options.traceCapacity;
    r = envU64InRange("BEAR_TRACE", trace, 0, kMaxEventTraceCapacity);
    if (!r)
        return unexpected(r.error());
    options.traceCapacity = static_cast<std::size_t>(trace);

    r = envNonEmptyString("BEAR_TRACE_IN", options.traceInPath);
    if (!r)
        return unexpected(r.error());
    r = envNonEmptyString("BEAR_TRACE_OUT", options.traceOutPath);
    if (!r)
        return unexpected(r.error());

    r = envDoubleChecked(
        "BEAR_JOB_TIMEOUT", options.jobTimeoutSeconds, [](double v) {
            return v > 0.0 && v <= kMaxJobTimeoutSeconds
                ? nullptr
                : "timeout must be in (0, 86400] seconds";
        });
    if (!r)
        return unexpected(r.error());

    r = envNonEmptyString("BEAR_JOURNAL", options.journalPath);
    if (!r)
        return unexpected(r.error());

    r = envNonEmptyString("BEAR_FAULT", options.faultSpec);
    if (!r)
        return unexpected(r.error());
    if (!options.faultSpec.empty()) {
        auto plan = fault::parseFaultSpec(options.faultSpec);
        if (!plan.hasValue()) {
            return unexpected(EnvError{"BEAR_FAULT", options.faultSpec,
                                       plan.error()});
        }
    }

    std::uint64_t retries = options.retries;
    r = envU64InRange("BEAR_RETRIES", retries, 1, 16);
    if (!r)
        return unexpected(r.error());
    options.retries = static_cast<std::uint32_t>(retries);

    return options;
}

RunnerOptions
RunnerOptions::fromEnv()
{
    auto options = tryFromEnv();
    if (!options)
        bear_fatal("bad environment override: ",
                   options.error().message());
    return *options;
}

std::uint64_t
RunnerOptions::fingerprint() const
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
    const auto mixIn = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mixIn(std::bit_cast<std::uint64_t>(scale));
    mixIn(warmupRefsPerCore);
    mixIn(measureRefsPerCore);
    mixIn(cores);
    mixIn(bandwidthRatio);
    mixIn(totalBanks);
    mixIn(cacheCapacityBytes);
    mixIn(seed);
    mixIn(static_cast<std::uint64_t>(traceCapacity));
    for (const char c : traceInPath) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

Runner::Runner(const RunnerOptions &options) : options_(options)
{
    bear_assert(options.scale > 0.0, "scale must be positive");
    bear_assert(options.cores > 0, "need cores");
    bear_assert(options.retries >= 1, "need at least one attempt");

    // Preflight the replay corpus before any simulation (and before
    // the watchdog thread exists, so a config error dies with a clean
    // single-threaded exit): a missing or corrupt BEAR_TRACE_IN must
    // never cost a warm-up first.
    if (!options_.traceInPath.empty()) {
        auto probe =
            trace::TraceReplayStream::open(options_.traceInPath, 0);
        if (!probe.hasValue()) {
            bear_fatal("BEAR_TRACE_IN=", options_.traceInPath, ": ",
                       probe.error().message());
        }
        if ((*probe)->meta().coreCount != options_.cores) {
            bear_fatal("BEAR_TRACE_IN=", options_.traceInPath,
                       ": recorded with ", (*probe)->meta().coreCount,
                       " cores, this run wants ", options_.cores);
        }
    }

    if (!options_.faultSpec.empty()) {
        auto plan = fault::parseFaultSpec(options_.faultSpec);
        if (!plan.hasValue()) {
            bear_fatal("BEAR_FAULT=\"", options_.faultSpec, "\": ",
                       plan.error());
        }
        plan->seed = options_.seed;
        fault_plan_.emplace(std::move(*plan));
    }

    if (!options_.journalPath.empty()) {
        auto journal = ResultJournal::openOrCreate(
            options_.journalPath, options_.fingerprint());
        if (!journal.hasValue()) {
            bear_fatal("BEAR_JOURNAL: ", journal.error().message);
        }
        journal_ =
            std::make_unique<ResultJournal>(std::move(*journal));
        cache_ = journal_->results();
        alone_cache_ = journal_->aloneIpcs();
        if (!cache_.empty() || !alone_cache_.empty()) {
            bear_inform("BEAR_JOURNAL=", options_.journalPath,
                        ": resuming with ", cache_.size(),
                        " journaled result(s) and ",
                        alone_cache_.size(),
                        " IPC_alone value(s); only missing cells run");
        }
    }

    installInterruptHandlers();
    watchdog_.emplace(options_.jobTimeoutSeconds, interruptRequested);
}

SystemConfig
Runner::systemConfig(const RunJob &job) const
{
    SystemConfig config;
    config.design = job.design;
    config.cores = options_.cores;
    config.scale = options_.scale;
    config.cacheCapacityBytes = job.cacheCapacityBytes
        ? job.cacheCapacityBytes
        : options_.cacheCapacityBytes;
    config.bandwidthRatio =
        job.bandwidthRatio ? job.bandwidthRatio : options_.bandwidthRatio;
    config.totalBanks = job.totalBanks ? job.totalBanks
                                       : options_.totalBanks;
    config.seed = options_.seed;
    config.traceCapacity = options_.traceCapacity;
    return config;
}

std::string
Runner::keyOf(const RunJob &job) const
{
    std::ostringstream os;
    os << designName(job.design) << '|'
       << (job.mix ? job.mix->name : job.rateBenchmark) << '|'
       << job.bandwidthRatio << '|' << job.totalBanks << '|'
       << job.cacheCapacityBytes;
    return os.str();
}

RunResult
Runner::execute(const RunJob &job, JobControl &control, JobPhase &phase)
{
    SystemConfig config = systemConfig(job);
    config.control = &control;
    const std::string workload_name =
        job.mix ? job.mix->name : job.rateBenchmark;
    const std::string key = keyOf(job);

    phase = JobPhase::Setup;
    control.setPhase("setup");
    checkJobFaultSite("job.setup", key, control);

    std::vector<std::unique_ptr<RefStream>> streams;
    if (!options_.traceInPath.empty()) {
        // Replay mode: every core's stream comes from the recorded
        // corpus; the job only chooses the design and the label.
        for (std::uint32_t c = 0; c < options_.cores; ++c) {
            auto stream = trace::TraceReplayStream::open(
                options_.traceInPath, c);
            if (!stream.hasValue()) {
                bear_fatal("BEAR_TRACE_IN=", options_.traceInPath,
                           ": ", stream.error().message());
            }
            if ((*stream)->meta().coreCount != options_.cores) {
                bear_fatal("BEAR_TRACE_IN=", options_.traceInPath,
                           ": recorded with ",
                           (*stream)->meta().coreCount,
                           " cores, this run wants ", options_.cores);
            }
            streams.push_back(std::move(stream.value()));
        }
    } else if (job.mix) {
        for (std::uint32_t c = 0; c < options_.cores; ++c) {
            const WorkloadProfile &profile =
                profileByName(job.mix->benchmarks[c]);
            streams.push_back(std::make_unique<WorkloadStream>(
                profile, options_.seed + 0x1000 * (c + 1),
                options_.scale));
        }
    } else {
        const WorkloadProfile &profile =
            profileByName(job.rateBenchmark);
        for (std::uint32_t c = 0; c < options_.cores; ++c) {
            streams.push_back(std::make_unique<WorkloadStream>(
                profile, options_.seed + 0x1000 * (c + 1),
                options_.scale));
        }
    }

    // Tee the streams to a .beartrace file.  One file holds one run,
    // so with several jobs in flight only the first records; declared
    // before the System so the recording streams it feeds are
    // destroyed first.
    std::unique_ptr<trace::TraceWriter> writer;
    std::optional<ClaimGuard> claim;
    if (!options_.traceOutPath.empty()) {
        if (!trace_out_claimed_.exchange(true)) {
            claim.emplace(trace_out_claimed_);
            trace::TraceMeta meta;
            meta.workload = workload_name;
            meta.seed = options_.seed;
            meta.coreCount = options_.cores;
            auto created = trace::TraceWriter::create(
                options_.traceOutPath, meta);
            if (!created.hasValue()) {
                // Unopenable output path: a config error, not a
                // transient — fail (or contain) immediately.
                bear_fatal("BEAR_TRACE_OUT=", options_.traceOutPath,
                           ": ", created.error().message());
            }
            writer = std::make_unique<trace::TraceWriter>(
                std::move(created.value()));
            for (std::uint32_t c = 0; c < options_.cores; ++c) {
                streams[c] = std::make_unique<trace::RecordingStream>(
                    std::move(streams[c]), *writer, c);
            }
        } else {
            bear_warn("BEAR_TRACE_OUT=", options_.traceOutPath,
                      ": already recording an earlier run; ",
                      workload_name, " runs unrecorded");
        }
    }

    bool writer_finished = false;
    try {
        SingleRunSpec spec;
        spec.config = config;
        spec.warmupRefsPerCore = options_.warmupRefsPerCore;
        spec.measureRefsPerCore = options_.measureRefsPerCore;
        spec.workload = workload_name;
        spec.design = designName(job.design);
        spec.isMix = job.mix != nullptr;
        spec.onPhase = [&](RunPhase p) {
            if (p == RunPhase::Warmup) {
                phase = JobPhase::Warmup;
                checkJobFaultSite("job.warmup", key, control);
            } else {
                phase = JobPhase::Measure;
                checkJobFaultSite("job.measure", key, control);
            }
        };
        RunResult result = runSingleTenant(spec, std::move(streams));
        if (job.mix) {
            for (std::uint32_t c = 0; c < options_.cores; ++c) {
                auto alone = ipcAloneContained(job.mix->benchmarks[c],
                                               &control);
                if (!alone.hasValue())
                    throw AloneFailed{alone.error()};
                result.ipcAlone.push_back(*alone);
            }
        }

        if (writer) {
            writer_finished = true;
            auto finished = writer->finish();
            if (!finished.hasValue())
                throw trace::TraceIoFailure{finished.error()};
            bear_inform("recorded ", *finished, " references of ",
                        workload_name, " to ", options_.traceOutPath);
        }
        if (claim)
            claim->commit();
        return result;
    } catch (...) {
        // Seal whatever the recording already holds: a finished-short
        // trace replays its prefix, an unfinished one is garbage.
        // The ClaimGuard then releases the recording slot so a retry
        // (or a later job) records instead.
        if (writer && !writer_finished) {
            auto sealed = writer->finish();
            if (sealed.hasValue()) {
                bear_warn("BEAR_TRACE_OUT=", options_.traceOutPath,
                          ": job failed mid-recording; sealed a "
                          "partial trace of ",
                          *sealed, " references");
            }
        }
        throw;
    }
}

RunOutcome
Runner::executeContained(const RunJob &job, const std::string &key)
{
    JobControl control;
    Watchdog::Watch watch(*watchdog_, control);
    ContainmentScope contain;

    JobPhase phase = JobPhase::Setup;
    RunError err;
    err.key = key;
    err.workload = job.mix ? job.mix->name : job.rateBenchmark;
    err.design = designName(job.design);

    try {
        return execute(job, control, phase);
    } catch (const AloneFailed &alone) {
        RunError inner = alone.error;
        inner.key = key;
        inner.workload = err.workload;
        inner.design = err.design;
        inner.phase = JobPhase::IpcAlone;
        return unexpected(std::move(inner));
    } catch (const ContainedFailure &failure) {
        err.kind = RunErrorKind::Contained;
        err.what = failure.message;
    } catch (const JobCancelled &cancelled) {
        noteCancelled(err, cancelled, options_.jobTimeoutSeconds);
    } catch (const trace::TraceIoFailure &failure) {
        err.kind = RunErrorKind::TraceIo;
        err.what = failure.error.message();
    } catch (const std::bad_alloc &) {
        err.kind = RunErrorKind::Contained;
        err.what = "allocation failure (std::bad_alloc)";
    } catch (const std::exception &e) {
        err.kind = RunErrorKind::Contained;
        err.what = e.what();
    }
    err.phase = phase;
    return unexpected(std::move(err));
}

RunOutcome
Runner::tryRun(const RunJob &job)
{
    const std::string key = keyOf(job);
    {
        MutexLock lock(mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
    }

    for (std::uint32_t attempt = 1;; ++attempt) {
        RunOutcome outcome = executeContained(job, key);
        if (outcome.hasValue()) {
            MutexLock lock(mutex_);
            auto [it, inserted] =
                cache_.emplace(key, std::move(*outcome));
            if (inserted && journal_
                && !journal_->appendResult(key, it->second)) {
                bear_warn("BEAR_JOURNAL=", options_.journalPath,
                          ": appending ", key,
                          " failed; resumability degrades");
            }
            return it->second;
        }

        RunError err = outcome.error();
        err.attempts = attempt;
        const bool transient = err.kind == RunErrorKind::TraceIo;
        if (!transient || attempt >= options_.retries)
            return unexpected(std::move(err));

        // Deterministic capped backoff: 10ms, 20ms, 40ms, ...
        const auto backoff =
            std::chrono::milliseconds(10LL << (attempt - 1));
        bear_warn("transient failure of ", key, " (attempt ", attempt,
                  " of ", options_.retries, "): ", err.what,
                  "; retrying in ", backoff.count(), " ms");
        std::this_thread::sleep_for(backoff);
    }
}

RunResult
Runner::run(const RunJob &job)
{
    auto outcome = tryRun(job);
    if (!outcome.hasValue()) {
        const RunError &err = outcome.error();
        if (!err.diagnostics.empty())
            bear_warn("failure diagnostics:\n", err.diagnostics);
        if (err.kind == RunErrorKind::Interrupted) {
            bear_inform("interrupted: ", err.message());
            std::exit(130);
        }
        bear_fatal(err.message());
    }
    return *outcome;
}

RunResult
Runner::runRate(DesignKind design, const std::string &benchmark)
{
    RunJob job;
    job.design = design;
    job.rateBenchmark = benchmark;
    return run(job);
}

RunResult
Runner::runMix(DesignKind design, const MixSpec &mix)
{
    RunJob job;
    job.design = design;
    job.mix = &mix;
    return run(job);
}

Expected<double, RunError>
Runner::ipcAloneContained(const std::string &benchmark,
                          JobControl *control)
{
    {
        MutexLock lock(mutex_);
        auto it = alone_cache_.find(benchmark);
        if (it != alone_cache_.end())
            return it->second;
    }

    RunError err;
    err.kind = RunErrorKind::Contained;
    err.key = "alone|" + benchmark;
    err.workload = benchmark;
    err.design = "alloy-1core";
    err.phase = JobPhase::IpcAlone;

    // Standalone calls register their own watchdog entry; nested ones
    // (inside a mix job) reuse the mix's control so its progress and
    // cancellation cover the reference run too.
    JobControl own;
    std::optional<Watchdog::Watch> watch;
    if (!control) {
        watch.emplace(*watchdog_, own);
        control = &own;
    }
    ContainmentScope contain;

    try {
        checkJobFaultSite("alone.run", benchmark, *control);

        // Single active core on the baseline Alloy system: the
        // benchmark has every resource to itself.
        SystemConfig config;
        config.design = DesignKind::Alloy;
        config.cores = 1;
        config.scale = options_.scale;
        config.cacheCapacityBytes = options_.cacheCapacityBytes;
        config.bandwidthRatio = options_.bandwidthRatio;
        config.totalBanks = options_.totalBanks;
        config.seed = options_.seed;
        config.control = control;

        std::vector<std::unique_ptr<RefStream>> streams;
        streams.push_back(std::make_unique<WorkloadStream>(
            profileByName(benchmark), options_.seed + 0x1000,
            options_.scale));

        SingleRunSpec spec;
        spec.config = config;
        spec.warmupRefsPerCore = options_.warmupRefsPerCore;
        spec.measureRefsPerCore = options_.measureRefsPerCore;
        spec.workload = benchmark;
        spec.design = err.design;
        // Both phases report as ipc_alone: the reference run is one
        // opaque step of its enclosing mix cell.
        spec.onPhase = [&](RunPhase) {
            control->setPhase("ipc_alone");
        };
        const RunResult alone = runSingleTenant(spec,
                                                std::move(streams));
        const double ipc = alone.stats.ipcPerCore[0];

        MutexLock lock(mutex_);
        auto [it, inserted] = alone_cache_.emplace(benchmark, ipc);
        if (inserted && journal_
            && !journal_->appendAlone(benchmark, ipc)) {
            bear_warn("BEAR_JOURNAL=", options_.journalPath,
                      ": appending IPC_alone of ", benchmark,
                      " failed; resumability degrades");
        }
        return it->second;
    } catch (const ContainedFailure &failure) {
        err.what = failure.message;
    } catch (const JobCancelled &cancelled) {
        noteCancelled(err, cancelled, options_.jobTimeoutSeconds);
    } catch (const std::bad_alloc &) {
        err.what = "allocation failure (std::bad_alloc)";
    } catch (const std::exception &e) {
        err.what = e.what();
    }
    return unexpected(std::move(err));
}

Expected<double, RunError>
Runner::tryIpcAlone(const std::string &benchmark)
{
    return ipcAloneContained(benchmark, nullptr);
}

double
Runner::ipcAlone(const std::string &benchmark)
{
    auto outcome = tryIpcAlone(benchmark);
    if (!outcome.hasValue()) {
        const RunError &err = outcome.error();
        if (err.kind == RunErrorKind::Interrupted) {
            bear_inform("interrupted: ", err.message());
            std::exit(130);
        }
        bear_fatal(err.message());
    }
    return *outcome;
}

std::vector<RunOutcome>
Runner::runAll(const std::vector<RunJob> &jobs)
{
    std::uint32_t workers = options_.workers
        ? options_.workers
        : std::max(1U, std::thread::hardware_concurrency());
    workers = std::min<std::uint32_t>(
        workers, static_cast<std::uint32_t>(jobs.size()));

    // Mix jobs need IPC_alone numbers; compute them up front so worker
    // threads only read the memo table.  A failure here is not final —
    // the mix cells re-attempt and carry the structured error if it
    // persists.
    for (const RunJob &job : jobs) {
        if (interruptRequested())
            break;
        if (job.mix) {
            for (const auto &benchmark : job.mix->benchmarks) {
                auto alone = tryIpcAlone(benchmark);
                if (!alone.hasValue()) {
                    bear_warn("IPC_alone precompute failed: ",
                              alone.error().message());
                }
            }
        }
    }

    // Expected<> has no default state, so prefill every cell with the
    // outcome it has if no worker ever reaches it (interrupt drain).
    std::vector<RunOutcome> results;
    results.reserve(jobs.size());
    for (const RunJob &job : jobs) {
        RunError placeholder;
        placeholder.kind = RunErrorKind::Interrupted;
        placeholder.key = keyOf(job);
        placeholder.workload =
            job.mix ? job.mix->name : job.rateBenchmark;
        placeholder.design = designName(job.design);
        placeholder.phase = JobPhase::Setup;
        placeholder.what =
            "sweep interrupted before this job started";
        results.push_back(unexpected(std::move(placeholder)));
    }

    std::atomic<std::size_t> next{0};
    auto work = [&]() {
        for (;;) {
            if (interruptRequested())
                return; // leave the remaining cells as Interrupted
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            results[i] = tryRun(jobs[i]);
        }
    };

    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::uint32_t w = 0; w < workers; ++w)
            pool.emplace_back(work);
        for (auto &t : pool)
            t.join();
    }
    return results;
}

std::vector<RunJob>
rateJobs(DesignKind design)
{
    std::vector<RunJob> jobs;
    for (const auto &name : rateWorkloadNames()) {
        RunJob job;
        job.design = design;
        job.rateBenchmark = name;
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<RunJob>
mixJobs(DesignKind design)
{
    std::vector<RunJob> jobs;
    for (const auto &mix : tableThreeMixes()) {
        RunJob job;
        job.design = design;
        job.mix = &mix;
        jobs.push_back(job);
    }
    return jobs;
}

std::vector<RunJob>
allJobs(DesignKind design)
{
    std::vector<RunJob> jobs = rateJobs(design);
    std::uint64_t full = 0;
    auto r = envU64InRange("BEAR_ALL54", full, 0, 1);
    if (!r)
        bear_fatal("bad environment override: ", r.error().message());
    const auto &mixes = full ? allMixes() : tableThreeMixes();
    for (const auto &mix : mixes) {
        RunJob job;
        job.design = design;
        job.mix = &mix;
        jobs.push_back(job);
    }
    return jobs;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace bear
