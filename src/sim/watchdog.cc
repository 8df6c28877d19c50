#include "sim/watchdog.hh"

#include <algorithm>
#include <new>
#include <stdexcept>

#include "common/fault.hh"
#include "common/log.hh"

namespace bear
{

Watchdog::Watchdog(double timeoutSeconds, std::function<bool()> interrupt)
    : timeout_(timeoutSeconds), interrupt_(std::move(interrupt)),
      thread_([this] { loop(); })
{
}

Watchdog::~Watchdog()
{
    {
        MutexLock lock(tick_mutex_);
        stop_ = true;
    }
    tick_cv_.notifyAll();
    thread_.join();
}

void
Watchdog::loop()
{
    for (;;) {
        {
            MutexLock lk(tick_mutex_);
            if (tick_cv_.waitFor(lk, kTick,
                                 [this]() NO_THREAD_SAFETY_ANALYSIS {
                                     return stop_;
                                 }))
                return;
        }

        const bool interrupted = interrupt_();
        const auto now = std::chrono::steady_clock::now();
        MutexLock guard(active_mutex_);
        for (Watch *job : active_) {
            if (interrupted)
                job->control_.requestCancel(CancelReason::Interrupt);
            if (timeout_ <= 0.0)
                continue;
            const std::uint64_t p =
                job->control_.progress.load(std::memory_order_relaxed);
            if (p != job->lastProgress_) {
                job->lastProgress_ = p;
                job->lastAdvance_ = now;
                continue;
            }
            const std::chrono::duration<double> stalled =
                now - job->lastAdvance_;
            if (stalled.count() > timeout_)
                job->control_.requestCancel(CancelReason::Timeout);
        }
    }
}

Watchdog::Watch::Watch(Watchdog &watchdog, JobControl &control)
    : watchdog_(watchdog), control_(control)
{
    MutexLock lock(watchdog_.active_mutex_);
    watchdog_.active_.push_back(this);
}

Watchdog::Watch::~Watch()
{
    MutexLock lock(watchdog_.active_mutex_);
    auto &v = watchdog_.active_;
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

void
checkJobFaultSite(const char *site, const std::string &scope,
                  JobControl &control)
{
    auto &inj = fault::injector();
    if (!inj.armed())
        return;
    const auto kind = inj.evaluate(site, scope);
    if (!kind)
        return;
    switch (*kind) {
    case fault::FaultKind::Throw:
        throw std::runtime_error(
            detail::format("injected fault at ", site));
    case fault::FaultKind::Panic:
        bear_panic("injected fault at ", site);
    case fault::FaultKind::Alloc:
        throw std::bad_alloc();
    case fault::FaultKind::Stall:
        control.setPhase("stalled");
        while (control.cancelReason() == CancelReason::None)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw JobCancelled{
            control.cancelReason(),
            detail::format("stalled by injected fault at ", site)};
    case fault::FaultKind::TraceIo:
        bear_warn("BEAR_FAULT: trace-io fired at job site ", site,
                  "; only trace.* sites honour it");
        break;
    }
}

} // namespace bear
