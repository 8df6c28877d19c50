/**
 * @file
 * Unit tests for the shared job supervisor (sim/watchdog.hh): the
 * progress deadline, the interrupt predicate, first-reason-wins, and
 * the RAII registration contract.  Waits poll with generous deadlines
 * so the tests hold under sanitizers on a loaded host; only "nothing
 * happened" checks sleep a fixed number of ticks.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "sim/job_control.hh"
#include "sim/watchdog.hh"

using namespace bear;

namespace
{

/** Poll @p control until it is cancelled or @p seconds pass. */
CancelReason
awaitCancel(const JobControl &control, double seconds = 10.0)
{
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::duration<double>(seconds);
    while (control.cancelReason() == CancelReason::None
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return control.cancelReason();
}

/** Long enough for the watchdog to have ticked many times. */
void
sleepTicks(int ticks)
{
    std::this_thread::sleep_for(Watchdog::kTick * ticks);
}

bool
never()
{
    return false;
}

} // namespace

TEST(Watchdog, StalledJobIsCancelledAsTimeout)
{
    Watchdog watchdog(0.05, never);
    JobControl control;
    Watchdog::Watch watch(watchdog, control);
    EXPECT_EQ(awaitCancel(control), CancelReason::Timeout);
}

TEST(Watchdog, AdvancingJobIsNotCancelled)
{
    Watchdog watchdog(0.1, never);
    JobControl control;
    Watchdog::Watch watch(watchdog, control);
    // Advance every millisecond for ten timeouts' worth of time.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (std::chrono::steady_clock::now() < until) {
        control.progress.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(control.cancelReason(), CancelReason::None);
}

TEST(Watchdog, NonPositiveTimeoutNeverTimesOut)
{
    for (const double timeout : {0.0, -1.0}) {
        Watchdog watchdog(timeout, never);
        JobControl control;
        Watchdog::Watch watch(watchdog, control);
        sleepTicks(10);
        EXPECT_EQ(control.cancelReason(), CancelReason::None)
            << "timeout " << timeout;
    }
}

TEST(Watchdog, InterruptCancelsEveryJobAndFirstReasonWins)
{
    std::atomic<bool> interrupt{false};
    Watchdog watchdog(0.05, [&] { return interrupt.load(); });

    // A stalls past the deadline first: Timeout.
    JobControl a;
    Watchdog::Watch watch_a(watchdog, a);
    ASSERT_EQ(awaitCancel(a), CancelReason::Timeout);

    // Then the interrupt: every registered job is cancelled as
    // Interrupt, except that A keeps the reason it received first.
    interrupt.store(true);
    JobControl b;
    JobControl c;
    Watchdog::Watch watch_b(watchdog, b);
    Watchdog::Watch watch_c(watchdog, c);
    EXPECT_EQ(awaitCancel(b), CancelReason::Interrupt);
    EXPECT_EQ(awaitCancel(c), CancelReason::Interrupt);
    sleepTicks(3);
    EXPECT_EQ(a.cancelReason(), CancelReason::Timeout);
}

TEST(Watchdog, WatchOutOfScopeIsNeverTouched)
{
    std::atomic<bool> interrupt{false};
    Watchdog watchdog(0.02, [&] { return interrupt.load(); });
    JobControl control;
    {
        Watchdog::Watch watch(watchdog, control);
    }
    // Well past the deadline, and with the interrupt raised: a
    // deregistered job is neither timed out nor interrupted.
    sleepTicks(10);
    interrupt.store(true);
    sleepTicks(5);
    EXPECT_EQ(control.cancelReason(), CancelReason::None);
}
