/**
 * @file
 * Experiment runner: builds systems for rate/mix workloads, manages
 * warm-up and measurement phases, caches results, and fans runs out
 * over worker threads.
 *
 * Each run follows the paper's methodology: the system executes a
 * warm-up phase (caches and policy state settle), statistics are
 * reset, and a measurement phase produces the reported numbers.  Mixed
 * workloads additionally need per-benchmark IPC_alone runs (single
 * core on the baseline Alloy system) to compute weighted speedups;
 * the runner computes and memoises those on demand.
 *
 * Resilience (DESIGN.md §11): each job executes inside a containment
 * scope, so an exception, a bear_assert failure, or a bear_fatal deep
 * inside one simulation becomes a structured RunError for that cell —
 * never a dead worker pool or a half-printed table.  A Watchdog
 * (sim/watchdog.hh) watches forward progress and converts hangs into
 * timeout failures (BEAR_JOB_TIMEOUT) and SIGINT/SIGTERM into a
 * graceful sweep drain.
 * Transient trace-I/O failures retry with capped deterministic
 * backoff (BEAR_RETRIES).  With BEAR_JOURNAL set, every completed
 * cell is appended to a CRC-sealed journal and a re-run resumes,
 * re-executing only failed or missing cells.
 */

#ifndef BEAR_SIM_RUNNER_HH
#define BEAR_SIM_RUNNER_HH

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/expected.hh"
#include "common/fault.hh"
#include "common/sync.hh"
#include "sim/job_control.hh"
#include "sim/journal.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "sim/watchdog.hh"
#include "workloads/mixes.hh"
#include "workloads/workload.hh"

namespace bear
{

/** Knobs shared by every run of a bench binary. */
struct RunnerOptions
{
    double scale = 0.0625;
    std::uint64_t warmupRefsPerCore = 400000;
    std::uint64_t measureRefsPerCore = 150000;
    std::uint32_t cores = 8;
    std::uint32_t bandwidthRatio = 8;
    std::uint32_t totalBanks = 64;
    std::uint64_t cacheCapacityBytes = 1ULL << 30; ///< pre-scale
    std::uint64_t seed = 0x5EED;
    std::uint32_t workers = 0; ///< 0 = hardware concurrency
    std::size_t traceCapacity = 0; ///< event-trace ring; 0 = off

    /**
     * Replay workload: path of a .beartrace file (src/trace) that
     * supplies every core's reference stream instead of the synthetic
     * generators; the Runner reads it once, in its constructor.
     * Empty = generate live.  IPC_alone reference runs
     * for mixes still use the generators (they need a 1-core stream).
     */
    std::string traceInPath;

    /**
     * Record workload: path the first executed run writes its streams
     * to as a .beartrace file.  Only the first run of a Runner
     * records (a shared file cannot hold concurrent jobs); later runs
     * warn and proceed unrecorded.  Empty = no recording.
     */
    std::string traceOutPath;

    /**
     * Watchdog deadline in wall-clock seconds without forward
     * progress (simulated references retired) before a job is
     * cancelled as a timeout failure.  0 (the default) disables the
     * watchdog.  BEAR_JOB_TIMEOUT.
     */
    double jobTimeoutSeconds = 0.0;

    /**
     * Path of the CRC-sealed results journal (sim/journal.hh).
     * Completed cells are appended as they finish; re-running with the
     * same journal and options skips them.  Empty = no journal.
     * BEAR_JOURNAL.
     */
    std::string journalPath;

    /**
     * Fault-injection spec (common/fault.hh grammar), armed for the
     * lifetime of the Runner.  Empty = no injection.  BEAR_FAULT.
     */
    std::string faultSpec;

    /**
     * Attempts per job before a transient failure (trace I/O) becomes
     * the job's final error.  Retries back off deterministically
     * (10ms << attempt).  Non-transient failures never retry.
     * BEAR_RETRIES, accepted range 1..16.
     */
    std::uint32_t retries = 3;

    /**
     * Parse the environment overrides strictly: BEAR_SCALE,
     * BEAR_WARMUP, BEAR_MEASURE, BEAR_WORKERS, BEAR_TRACE,
     * BEAR_TRACE_IN / BEAR_TRACE_OUT (.beartrace replay / record),
     * BEAR_JOB_TIMEOUT / BEAR_JOURNAL / BEAR_FAULT / BEAR_RETRIES
     * (resilience), BEAR_FULL=1 (paper-size, scale 1.0).  A
     * set-but-malformed variable is an error naming the variable and,
     * for the numeric knobs, the accepted range — never a silent
     * fallback to the default or a silent truncation.
     */
    [[nodiscard]] static Expected<RunnerOptions, EnvError>
    tryFromEnv();

    /** tryFromEnv(), exiting with the error message on failure; the
     *  convenience entry point for bench/example main()s. */
    static RunnerOptions fromEnv();

    /**
     * FNV-1a digest of every field that shapes results (scale, ref
     * counts, cores, geometry, seed, trace capacity, replay path) —
     * the compatibility stamp of the results journal.  Fields that
     * only shape execution (workers, journal/record paths, timeout,
     * retries) are excluded, so resuming with more workers or a
     * different timeout is allowed.
     */
    std::uint64_t fingerprint() const;

    /**
     * The system these options describe for @p design: cores, scale,
     * geometry, seed and event-trace capacity.  Runner jobs, IPC_alone
     * reference runs and served sessions all start here and override
     * only what differs for them.
     */
    SystemConfig systemConfig(DesignKind design) const;
};

/** A run request: design x workload (rate benchmark or mix). */
struct RunJob
{
    DesignKind design = DesignKind::Alloy;
    std::string rateBenchmark; ///< set for rate mode
    const MixSpec *mix = nullptr; ///< set for mix mode
    /** Optional per-job overrides (sensitivity studies). */
    std::uint32_t bandwidthRatio = 0; ///< 0 = RunnerOptions value
    std::uint32_t totalBanks = 0;
    std::uint64_t cacheCapacityBytes = 0;
};

/** Where in its lifecycle a job failed (DESIGN.md §11). */
enum class JobPhase : std::uint8_t
{
    Setup,   ///< stream construction, recording claim
    Warmup,  ///< the warm-up run
    Measure, ///< the measurement run and stats gathering
    IpcAlone ///< a single-core IPC_alone reference run
};

/** Stable lower-case phase name for errors and reports. */
const char *jobPhaseName(JobPhase phase);

/** Failure taxonomy of one job (DESIGN.md §11). */
enum class RunErrorKind : std::uint8_t
{
    Contained,   ///< exception / contained panic or fatal in the job
    Timeout,     ///< watchdog: no forward progress within the deadline
    Interrupted, ///< SIGINT/SIGTERM drained the sweep
    TraceIo      ///< transient trace I/O failure, retries exhausted
};

/** Stable lower-case kind name for errors and reports. */
const char *runErrorKindName(RunErrorKind kind);

/** One job's structured failure: what, where, and the evidence. */
struct RunError
{
    RunErrorKind kind = RunErrorKind::Contained;
    std::string key;      ///< runner memo key of the job
    std::string workload;
    std::string design;
    JobPhase phase = JobPhase::Setup;
    std::string what;     ///< exception / panic / cancellation message
    /** Event-trace tail and per-bank queue state at failure time. */
    std::string diagnostics;
    std::uint32_t attempts = 1; ///< executions consumed (retries + 1)

    /** `bear/mix1 failed during measure: ... — ready to print.` */
    std::string message() const;
};

/** A completed RunResult, or the structured failure of the job. */
using RunOutcome = Expected<RunResult, RunError>;

/** Thread-pooled, memoising experiment runner. */
class Runner
{
  public:
    /**
     * Loads and validates the replay corpus (BEAR_TRACE_IN) up front —
     * a missing, corrupt or idle-core trace is a fatal config error
     * *before* any simulation runs, and the file is never read again —
     * then opens the journal, arms the fault plan, and starts the
     * watchdog.
     */
    explicit Runner(const RunnerOptions &options);

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Run one rate-mode workload (8 copies of @p benchmark). */
    RunResult runRate(DesignKind design, const std::string &benchmark);

    /** Run one mixed workload. */
    RunResult runMix(DesignKind design, const MixSpec &mix);

    /**
     * Run a job (rate or mix, with overrides), exiting on failure:
     * the single-job entry point where a failed job is a failed
     * program (exit 1; 130 when interrupted).  Sweeps should prefer
     * tryRun()/runAll(), which contain failures per cell.
     */
    RunResult run(const RunJob &job);

    /** Run a job, containing any failure as a RunError. */
    [[nodiscard]] RunOutcome tryRun(const RunJob &job);

    /**
     * Run jobs across worker threads; outcomes in job order.  A
     * failed job never takes down the sweep: its cell carries the
     * RunError and every other job still completes.  On SIGINT or
     * SIGTERM, running jobs drain as Interrupted and unstarted jobs
     * are skipped.
     */
    [[nodiscard]] std::vector<RunOutcome>
    runAll(const std::vector<RunJob> &jobs);

    /** Memoised IPC_alone of @p benchmark on the baseline system. */
    double ipcAlone(const std::string &benchmark);

    /** ipcAlone(), containing any failure as a RunError. */
    [[nodiscard]] Expected<double, RunError>
    tryIpcAlone(const std::string &benchmark);

    const RunnerOptions &options() const { return options_; }

    /** The journal backing this runner, or null when none. */
    const ResultJournal *journal() const { return journal_.get(); }

  private:
    SystemConfig systemConfig(const RunJob &job) const;
    RunResult execute(const RunJob &job, JobControl &control,
                      JobPhase &phase);
    RunOutcome executeContained(const RunJob &job,
                                const std::string &key);
    Expected<double, RunError>
    ipcAloneContained(const std::string &benchmark,
                      JobControl *control);
    std::string keyOf(const RunJob &job) const;

    RunnerOptions options_;

    /**
     * BEAR_TRACE_IN's records, one vector per core, decoded once by
     * the constructor and read-only afterwards: every job's (and every
     * worker's) replay streams share them.  Empty without a corpus.
     */
    std::vector<std::shared_ptr<const std::vector<MemRef>>>
        replay_corpus_;

    /** Set once the recording run has claimed traceOutPath. */
    std::atomic<bool> trace_out_claimed_{false};

    /** Serialises the memo caches and the journal appends. */
    Mutex mutex_;
    std::map<std::string, RunResult> cache_ GUARDED_BY(mutex_);
    std::map<std::string, double> alone_cache_ GUARDED_BY(mutex_);

    /**
     * The pointer is written once in the constructor (before any
     * worker or the watchdog thread exists) and read-only afterwards;
     * appends to the pointee are serialised under mutex_.
     */
    std::unique_ptr<ResultJournal> journal_;

    /** BEAR_FAULT, armed for the Runner's lifetime. */
    std::optional<fault::ArmedPlan> fault_plan_;

    /** Watches every executing job; started last in the constructor
     *  and, declared last, stopped first on destruction. */
    std::optional<Watchdog> watchdog_;
};

/** Has this process received SIGINT/SIGTERM since the first Runner? */
bool interruptRequested();

/** The 16-benchmark RATE set. */
std::vector<RunJob> rateJobs(DesignKind design);

/** The 8 detailed mixes. */
std::vector<RunJob> mixJobs(DesignKind design);

/**
 * The "ALL" workload set: RATE + the detailed mixes by default or
 * with BEAR_ALL54=0; with BEAR_ALL54=1, RATE + all 38 mixes (the
 * paper's 54-workload set).  Any other value is fatal, with the same
 * EnvError message RunnerOptions::fromEnv() gives.
 */
std::vector<RunJob> allJobs(DesignKind design);

/**
 * Monotonic wall-clock seconds (arbitrary epoch), for benchmark
 * harnesses that time throughput and the daemon's service timing.
 * Simulated results must never depend on it: simulation code reads
 * only simulated cycles.
 */
double wallSeconds();

} // namespace bear

#endif // BEAR_SIM_RUNNER_HH
