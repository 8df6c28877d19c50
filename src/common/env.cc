#include "common/env.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/log.hh"

namespace bear
{

namespace
{

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

} // namespace

std::string
EnvError::message() const
{
    return variable + "=\"" + value + "\": " + reason;
}

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

} // namespace bear
