/**
 * @file
 * The job supervisor shared by the sweep runner and the beard daemon
 * (DESIGN.md §11, §17).
 *
 * A Watchdog owns one tick thread and the list of registered jobs.
 * Every kTick it cancels a job whose JobControl::progress has not
 * advanced for longer than the timeout (CancelReason::Timeout), and,
 * whenever the owner's interrupt predicate holds, cancels every
 * registered job as CancelReason::Interrupt.  The first reason a job
 * receives wins (JobControl::requestCancel).  Jobs register for the
 * duration of a scope through the RAII Watchdog::Watch; once a Watch
 * is destroyed the watchdog never touches its JobControl again.
 */

#ifndef BEAR_SIM_WATCHDOG_HH
#define BEAR_SIM_WATCHDOG_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hh"
#include "sim/job_control.hh"

namespace bear
{

class Watchdog
{
  public:
    /** Poll period; bounds timeout and interrupt detection latency. */
    static constexpr std::chrono::milliseconds kTick{20};

    /**
     * Start the tick thread.  @p timeoutSeconds <= 0 disables the
     * progress deadline; @p interrupt is evaluated on every tick, and
     * while it returns true every registered job is cancelled as
     * Interrupt.
     */
    Watchdog(double timeoutSeconds, std::function<bool()> interrupt);

    /** Stops and joins the tick thread. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** RAII registration of one job's JobControl. */
    class Watch
    {
      public:
        Watch(Watchdog &watchdog, JobControl &control);
        ~Watch();

        Watch(const Watch &) = delete;
        Watch &operator=(const Watch &) = delete;

      private:
        friend class Watchdog;

        Watchdog &watchdog_;
        JobControl &control_;
        // Read and written by the tick thread only, under
        // Watchdog::active_mutex_.
        std::uint64_t lastProgress_ = 0;
        std::chrono::steady_clock::time_point lastAdvance_ =
            std::chrono::steady_clock::now();
    };

  private:
    void loop();

    const double timeout_;
    const std::function<bool()> interrupt_;

    Mutex active_mutex_;
    std::vector<Watch *> active_ GUARDED_BY(active_mutex_);

    Mutex tick_mutex_;
    CondVar tick_cv_;
    bool stop_ GUARDED_BY(tick_mutex_) = false;
    std::thread thread_;
};

/**
 * Evaluate the job-level fault site @p site for @p scope and act if a
 * clause fires.  Throw, panic and alloc unwind into the caller's
 * containment layer; a stall burns wall-clock without advancing
 * progress until a Watchdog cancels @p control, then throws
 * JobCancelled — exactly the failure BEAR_JOB_TIMEOUT exists to
 * catch.  trace-io is honoured only by trace.* sites and is warned
 * about here.
 */
void checkJobFaultSite(const char *site, const std::string &scope,
                       JobControl &control);

} // namespace bear

#endif // BEAR_SIM_WATCHDOG_HH
