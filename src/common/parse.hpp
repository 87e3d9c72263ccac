/**
 * @file
 * The one reader of unsigned decimal integers from text: command-line
 * flag values (parseUnsignedFlag), environment variables
 * (unsignedFromEnv) and JSON numbers all go through parseUnsigned(), so
 * they share one rule -- decimal digits only, no sign, no spaces, no
 * trailing bytes, and a value that does not fit in 64 bits is rejected
 * rather than wrapped.
 */

#ifndef DBSIM_COMMON_PARSE_HPP
#define DBSIM_COMMON_PARSE_HPP

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "common/errors.hpp"
#include "common/log.hpp"

namespace dbsim {

/** @p s as an unsigned decimal integer, or nullopt when it is not one. */
inline std::optional<std::uint64_t>
parseUnsigned(std::string_view s)
{
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    // from_chars takes no sign, whitespace or prefix for an unsigned
    // type, and reports overflow instead of wrapping.
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return v;
}

/**
 * The value of command-line flag @p flag (e.g. "--count") as an
 * unsigned integer in [@p min, @p max].  Anything else throws a
 * ConfigError for field "cli.<flag name>" that quotes the bad value.
 */
inline std::uint64_t
parseUnsignedFlag(
    std::string_view flag, std::string_view value, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::optional<std::uint64_t> v = parseUnsigned(value);
    if (!v || *v < min || *v > max) {
        const std::string name(flag.substr(flag.find_first_not_of('-')));
        throw ConfigError("cli." + name,
                          std::string(flag) + " wants an integer in [" +
                              std::to_string(min) + ", " +
                              std::to_string(max) + "], got \"" +
                              std::string(value) + "\"");
    }
    return *v;
}

/**
 * Environment variable @p name as an unsigned integer: nullopt when it
 * is unset or empty, and also -- after a warning that says @p expected
 * was wanted -- when it is not a decimal integer.  Environment knobs
 * warn and are ignored rather than stopping the run.
 */
inline std::optional<std::uint64_t>
unsignedFromEnv(const char *name, const char *expected)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return std::nullopt;
    const std::optional<std::uint64_t> v = parseUnsigned(s);
    if (!v)
        DBSIM_WARN(name, "=\"", s, "\" is not ", expected, "; ignoring it");
    return v;
}

} // namespace dbsim

#endif // DBSIM_COMMON_PARSE_HPP
