/**
 * @file
 * Strict environment-override parsing (the BEAR_* discipline).
 *
 * An unset variable leaves the caller's value untouched and returns
 * false; a set-but-malformed or out-of-range value is an EnvError
 * naming the variable, the rejected text, and the accepted range —
 * never a silent fallback to the default or a silent truncation.
 * RunnerOptions::tryFromEnv (sim/runner) is built on these, and the
 * serve layer uses them for its BEAR_SERVE_* knobs.
 */

#ifndef BEAR_COMMON_ENV_HH
#define BEAR_COMMON_ENV_HH

#include <cstdint>
#include <string>

#include "common/expected.hh"

namespace bear
{

/**
 * A malformed environment override: which variable, what it held, and
 * why it was rejected.
 */
struct EnvError
{
    std::string variable;
    std::string value;
    std::string reason;

    /** `BEAR_SCALE="abc": not a number` — ready to print. */
    std::string message() const;
};

[[nodiscard]] Expected<bool, EnvError>
envU64InRange(const char *name, std::uint64_t &out, std::uint64_t lo,
              std::uint64_t hi);

[[nodiscard]] Expected<bool, EnvError>
envSecondsInRange(const char *name, double &out, double lo, double hi);

/**
 * A double override whose domain is not a closed range: @p check
 * returns why a parsed value is rejected, or nullptr to accept it.
 */
[[nodiscard]] Expected<bool, EnvError>
envDoubleChecked(const char *name, double &out,
                 const char *check(double));

/** String override; set-but-empty is a config error, not "unset". */
[[nodiscard]] Expected<bool, EnvError>
envNonEmptyString(const char *name, std::string &out);

} // namespace bear

#endif // BEAR_COMMON_ENV_HH
