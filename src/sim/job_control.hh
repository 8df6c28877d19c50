/**
 * @file
 * Cooperative cancellation and forward-progress accounting for one
 * simulation job.
 *
 * A JobControl is shared between the worker thread executing a job and
 * the Watchdog (sim/watchdog.hh) it is registered with.  The worker
 * publishes progress (the simulated references retired, in batches of
 * System::kControlPollRefs) and the phase it is in; the watchdog
 * watches progress and requests cancellation when it stops advancing
 * for longer than the timeout, or when its owner's interrupt predicate
 * holds (SIGINT/SIGTERM for the runner, an expired drain for beard).
 * The simulation loop checkpoints the cancel flag every
 * System::kControlPollRefs references (about a millisecond of host
 * time, well inside the watchdog's 20 ms tick), so a cancelled job
 * unwinds soon after the request — a hang becomes a structured timeout
 * failure instead of a stuck worker pool.
 */

#ifndef BEAR_SIM_JOB_CONTROL_HH
#define BEAR_SIM_JOB_CONTROL_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace bear
{

/** Why a job was asked to stop. */
enum class CancelReason : std::uint8_t
{
    None = 0,
    Timeout,   ///< watchdog: no forward progress within the deadline
    Interrupt, ///< SIGINT/SIGTERM: the whole sweep is shutting down
};

/** Shared state between one job's worker and its watchdog. */
struct JobControl
{
    /** Simulated references retired; advancing proves liveness. */
    std::atomic<std::uint64_t> progress{0};

    std::atomic<CancelReason> cancel{CancelReason::None};

    /** Phase label for diagnostics; stores string literals only. */
    std::atomic<const char *> phase{"setup"};

    /** First cancellation reason wins (interrupt vs timeout race). */
    void
    requestCancel(CancelReason reason)
    {
        CancelReason expected = CancelReason::None;
        cancel.compare_exchange_strong(expected, reason,
                                       std::memory_order_relaxed);
    }

    CancelReason
    cancelReason() const
    {
        return cancel.load(std::memory_order_relaxed);
    }

    void setPhase(const char *name) { phase.store(name); }
    const char *phaseName() const { return phase.load(); }
};

/**
 * Thrown at a cancellation checkpoint (System::run, a stalled fault
 * site) once a cancel request is observed.  The layer that still has
 * the System in scope attaches diagnostics (event-trace tail, per-bank
 * state) on the way out; the runner converts the whole thing into a
 * RunError.
 */
struct JobCancelled
{
    CancelReason reason = CancelReason::Timeout;
    std::string diagnostics;
};

} // namespace bear

#endif // BEAR_SIM_JOB_CONTROL_HH
