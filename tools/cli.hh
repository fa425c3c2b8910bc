/**
 * @file
 * Strict numeric flag values for the command-line tools. A value is
 * either entirely valid or the tool prints one line naming the flag
 * and exits 2 (the tools' usage-error status): no sign wrap-around,
 * no trailing junk, no silent zero from an unparsable string.
 */

#ifndef TERP_TOOLS_CLI_HH
#define TERP_TOOLS_CLI_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace terp {
namespace cli {

/**
 * @p text as a decimal count in [@p lo, @p hi]: digits only, so
 * "-1", "+3", "0x10", "" and "4k" are all rejected.
 */
inline std::uint64_t
count(const char *tool, const std::string &flag, const std::string &text,
      std::uint64_t lo, std::uint64_t hi)
{
    bool ok = !text.empty() &&
              text.find_first_not_of("0123456789") == std::string::npos;
    std::uint64_t v = 0;
    if (ok) {
        errno = 0;
        v = std::strtoull(text.c_str(), nullptr, 10);
        ok = errno == 0 && v >= lo && v <= hi;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "%s: %s expects a whole number in [%llu, %llu], "
                     "got '%s'\n",
                     tool, flag.c_str(),
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), text.c_str());
        std::exit(2);
    }
    return v;
}

/** @p text as a finite real number > 0. */
inline double
positive(const char *tool, const std::string &flag,
         const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || errno != 0 || !std::isfinite(v) ||
        !(v > 0)) {
        std::fprintf(stderr,
                     "%s: %s expects a finite number > 0, got '%s'\n",
                     tool, flag.c_str(), text.c_str());
        std::exit(2);
    }
    return v;
}

} // namespace cli
} // namespace terp

#endif // TERP_TOOLS_CLI_HH
