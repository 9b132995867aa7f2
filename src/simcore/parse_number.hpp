/**
 * @file
 * Strict numeric parsing for command-line flag values: the whole token
 * must be the number — no leading blanks, no trailing junk ("5x"), not
 * empty, in range. Nothing here prints or exits; each CLI reports a
 * rejected value with its own usage text and exits 2.
 */

#ifndef VPM_SIMCORE_PARSE_NUMBER_HPP
#define VPM_SIMCORE_PARSE_NUMBER_HPP

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <optional>

namespace vpm::sim {

/** Base-10 integer in [@p min, @p max]. */
inline std::optional<long long>
parseInteger(const char *text, long long min = LLONG_MIN,
             long long max = LLONG_MAX)
{
    if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v < min || v > max)
        return std::nullopt;
    return v;
}

/** Finite number (strtod syntax) no smaller than @p min. */
inline std::optional<double>
parseNumber(const char *text, double min = -HUGE_VAL)
{
    if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || errno == ERANGE || !std::isfinite(v) || !(v >= min))
        return std::nullopt;
    return v;
}

} // namespace vpm::sim

#endif // VPM_SIMCORE_PARSE_NUMBER_HPP
