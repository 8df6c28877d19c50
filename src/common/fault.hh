/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * A FaultPlan (parsed from the BEAR_FAULT environment knob) names a
 * set of injection sites and, per site, when to fire: on the Nth
 * evaluation of the site within a scope, or with a fixed probability.
 * Both triggers are fully deterministic — occurrence counters are kept
 * per (site, scope) pair, and the probabilistic draw hashes
 * (site, scope, occurrence, seed) — so the same spec selects the same
 * victims no matter how worker threads interleave, and a retry of a
 * failed job (which advances the occurrence counter) deterministically
 * clears an `n=1` fault, modelling a transient error.
 *
 * The injector itself does nothing at a site but answer "does a fault
 * fire here, and of what kind?".  Acting on the answer (throwing,
 * stalling, poisoning a stream) stays with the site, because only the
 * site knows what failure is meaningful there.  Disabled (the default)
 * the per-site cost is one relaxed atomic load.
 *
 * Spec grammar (DESIGN.md §11):
 *
 *   spec    := clause (',' clause)*
 *   clause  := kind '@' site [':' trigger]
 *   kind    := 'throw' | 'panic' | 'alloc' | 'stall' | 'trace-io'
 *   site    := [A-Za-z0-9_.-]+ | '*'        ('*' matches every site)
 *   trigger := 'n=' <uint >= 1>             (default: n=1)
 *            | 'p=' <float in (0, 1]>
 *
 * Example: BEAR_FAULT='throw@job.measure:p=0.3,trace-io@trace.write:n=1'
 */

#ifndef BEAR_COMMON_FAULT_HH
#define BEAR_COMMON_FAULT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/expected.hh"
#include "common/sync.hh"

namespace bear::fault
{

/** What failure a clause injects; the site decides how it manifests. */
enum class FaultKind : std::uint8_t
{
    Throw,   ///< throw std::runtime_error at the site
    Panic,   ///< bear_panic at the site (models an assertion failure)
    Alloc,   ///< throw std::bad_alloc at the site
    Stall,   ///< stop making forward progress (watchdog bait)
    TraceIo, ///< poison the trace stream (meaningful at trace.* sites)
};

/** Stable lower-case name, matching the spec grammar. */
const char *faultKindName(FaultKind kind);

/** One `kind@site[:trigger]` clause. */
struct FaultClause
{
    FaultKind kind = FaultKind::Throw;
    std::string site;           ///< exact site name, or "*"
    std::uint64_t nth = 1;      ///< fire on the nth evaluation; 0 = p-mode
    double probability = 0.0;   ///< per-evaluation chance when nth == 0
};

/** A parsed BEAR_FAULT spec plus the seed for probabilistic draws. */
struct FaultPlan
{
    std::vector<FaultClause> clauses;
    std::uint64_t seed = 0;

    bool empty() const { return clauses.empty(); }
};

/**
 * Parse @p spec.  The error string names the offending clause and why
 * it was rejected, ready to wrap into an EnvError.
 */
[[nodiscard]] Expected<FaultPlan, std::string>
parseFaultSpec(const std::string &spec);

/**
 * The process-wide injector.  Sites are spread across layers (runner,
 * trace writer), so a single instance armed by the Runner keeps the
 * plumbing out of every constructor between them.
 */
class FaultInjector
{
  public:
    /** Install @p plan; resets occurrence and fire counters. */
    void arm(FaultPlan plan);

    /** Remove the plan; evaluate() returns nothing until re-armed. */
    void disarm();

    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /**
     * Evaluate @p site for @p scope (typically the job key): advances
     * the (site, scope) occurrence counter and returns the kind of the
     * first clause that fires, if any.
     */
    std::optional<FaultKind> evaluate(const char *site,
                                      const std::string &scope);

    /** Total faults injected at @p site since arm() (test hook). */
    std::uint64_t firedAt(const std::string &site) const;

    /** Total faults injected at every site since arm() (test hook).
     *  Survives disarm(), so a chaos harness can assert its soak
     *  actually exercised the plan after the daemon drained. */
    std::uint64_t firedTotal() const;

  private:
    mutable Mutex mutex_;
    FaultPlan plan_ GUARDED_BY(mutex_);
    /** (site, scope) -> evaluations so far. */
    std::map<std::pair<std::string, std::string>, std::uint64_t>
        counts_ GUARDED_BY(mutex_);
    std::map<std::string, std::uint64_t> fired_ GUARDED_BY(mutex_);
    /** Fast-path gate: one relaxed load when no plan is armed. */
    std::atomic<bool> armed_{false};
};

/** The process-wide injector instance. */
FaultInjector &injector();

/**
 * Holds @p plan armed on the process-wide injector for its lifetime:
 * the Runner keeps one for its own lifetime, beard from start() to the
 * end of serve().
 */
class ArmedPlan
{
  public:
    explicit ArmedPlan(FaultPlan plan) { injector().arm(std::move(plan)); }
    ~ArmedPlan() { injector().disarm(); }

    ArmedPlan(const ArmedPlan &) = delete;
    ArmedPlan &operator=(const ArmedPlan &) = delete;
};

} // namespace bear::fault

#endif // BEAR_COMMON_FAULT_HH
