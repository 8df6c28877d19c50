#include "sim/single_run.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <sstream>

#include "common/log.hh"
#include "common/sync.hh"
#include "obs/event_trace.hh"

namespace bear
{

namespace
{

/**
 * SIGINT/SIGTERM land here: record the signal and restore the default
 * disposition, so a second ^C force-kills instead of waiting for the
 * drain.  Only the async-signal-safe store happens in handler
 * context; pollers (the runner's watchdog, beard's drain
 * watcher) do the actual cancellation, the unwinding workers finalize
 * traces, and journals are already flushed per append — nothing
 * computed is lost.
 */
std::atomic<int> g_signal{0};

extern "C" void
bearSignalHandler(int sig)
{
    g_signal.store(sig, std::memory_order_relaxed);
    std::signal(sig, SIG_DFL);
}

} // namespace

bool
interruptRequested()
{
    return g_signal.load(std::memory_order_relaxed) != 0;
}

void
installInterruptHandlers()
{
    static OnceFlag once;
    callOnce(once, [] {
        std::signal(SIGINT, bearSignalHandler);
        std::signal(SIGTERM, bearSignalHandler);
    });
}

std::string
gatherRunDiagnostics(System &system, JobControl &control)
{
    std::ostringstream os;
    os << "phase=" << control.phaseName() << " progress="
       << control.progress.load(std::memory_order_relaxed)
       << " simulated refs";

    if (obs::EventTrace *tr = system.trace()) {
        const auto events = tr->snapshot();
        const std::size_t keep =
            std::min<std::size_t>(events.size(), 8);
        os << "\nevent-trace tail (last " << keep << " of "
           << tr->recorded() << " recorded):";
        for (std::size_t i = events.size() - keep; i < events.size();
             ++i) {
            const auto &e = events[i];
            os << "\n  cycle " << e.at << ' '
               << obs::traceEventName(e.kind) << " where=0x"
               << std::hex << e.where << std::dec << " value="
               << e.value;
        }
    }

    auto banks = system.cacheDram().bankUtilization();
    std::sort(banks.begin(), banks.end(),
              [](const BankUtilization &a, const BankUtilization &b) {
                  return a.busyCycles > b.busyCycles;
              });
    const std::size_t keep = std::min<std::size_t>(banks.size(), 4);
    os << "\nbusiest DRAM-cache banks:";
    for (std::size_t i = 0; i < keep; ++i) {
        const auto &b = banks[i];
        os << "\n  ch" << b.channel << "/bank" << b.bank << " reads="
           << b.reads << " writes=" << b.writes << " rowHits="
           << b.rowHits << " rowConflicts=" << b.rowConflicts
           << " busy=" << b.busyCycles.count() << " conflictStall="
           << b.conflictStallCycles.count();
    }
    return os.str();
}

RunResult
runSingleTenant(const SingleRunSpec &spec,
                std::vector<std::unique_ptr<RefStream>> streams)
{
    bear_assert(streams.size() == spec.config.cores,
                "need one reference stream per core");

    System system(spec.config, std::move(streams));
    JobControl *control = spec.config.control;
    try {
        if (control)
            control->setPhase("warmup");
        if (spec.onPhase)
            spec.onPhase(RunPhase::Warmup);
        system.run(spec.warmupRefsPerCore);
        system.resetStats();

        if (control)
            control->setPhase("measure");
        if (spec.onPhase)
            spec.onPhase(RunPhase::Measure);
        system.run(spec.measureRefsPerCore);
    } catch (JobCancelled &cancelled) {
        // Attach the evidence while the System still exists.
        if (cancelled.diagnostics.empty() && control) {
            cancelled.diagnostics =
                gatherRunDiagnostics(system, *control);
        }
        throw;
    }

    RunResult result;
    result.workload = spec.workload;
    result.design = spec.design;
    result.isMix = spec.isMix;
    result.stats = system.stats();
    return result;
}

} // namespace bear
