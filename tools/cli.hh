/**
 * @file
 * The command-line scaffold every tool's main() uses: one argv
 * walker, strict flag values, and one way to write an artifact and
 * to check a golden.
 *
 * Flags: `--f=V` and `--f V` are the same flag. A value is either
 * entirely valid or the tool prints one line naming the flag and
 * exits 2 (the tools' usage-error status): no sign wrap-around, no
 * trailing junk, no silent zero from an unparsable string. An
 * unknown flag, -h and --help print the tool's usage and exit 2.
 *
 * Goldens: a golden is the exact text a tool renders, compared byte
 * for byte. checkGolden() returns the tools' shared exit status: 0
 * on a match, 1 on drift, 2 when the golden cannot be read.
 */

#ifndef TERP_TOOLS_CLI_HH
#define TERP_TOOLS_CLI_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hh"

namespace terp {
namespace cli {

/** @p tags joined by single spaces, as the tools list them. */
inline std::string
joined(const std::vector<std::string> &tags)
{
    std::string out;
    for (const std::string &t : tags)
        out += (out.empty() ? "" : " ") + t;
    return out;
}

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

/** Walks argv once; see the file comment for the rules it enforces. */
class Args
{
  public:
    /** @p usage is printed verbatim on a usage error. */
    Args(const char *tool, int argc, char **argv, const char *usage)
        : mTool(tool), mArgc(argc), mArgv(argv), mUsage(usage)
    {
    }

    /** Step to the next token; false once argv is exhausted. */
    bool
    next()
    {
        if (mInline && !mTaken)
            fail(mFlag + " takes no value");
        if (++mI >= mArgc)
            return false;
        mFlag = mArgv[mI];
        mInline = false;
        mTaken = false;
        if (mFlag == "-h" || mFlag == "--help")
            usage();
        std::string::size_type eq = mFlag.find('=');
        if (mFlag.compare(0, 2, "--") == 0 && eq != std::string::npos) {
            mValue = mFlag.substr(eq + 1);
            mFlag.resize(eq);
            mInline = true;
        }
        return true;
    }

    /** The current token is @p flag, in either spelling. */
    bool is(const char *flag) const { return mFlag == flag; }

    /** The current token is not a flag: an operand like a workload. */
    bool positional() const { return mFlag.empty() || mFlag[0] != '-'; }

    /** The current token itself (for positionals). */
    const std::string &arg() const { return mFlag; }

    /** The current flag's value: after '=', else the next token. */
    std::string
    str()
    {
        if (mInline) {
            mTaken = true;
            return mValue;
        }
        if (mI + 1 >= mArgc)
            fail(mFlag + " needs a value");
        return mArgv[++mI];
    }

    /** The value as a decimal count in [@p lo, @p hi]. */
    std::uint64_t
    count(std::uint64_t lo, std::uint64_t hi)
    {
        return cli::count(mTool, mFlag, str(), lo, hi);
    }

    /** The value as a finite real number in [@p lo, @p hi]. */
    double
    real(double lo, double hi)
    {
        const std::string text = str();
        double v = 0;
        if (!parseReal(text, v) || v < lo || v > hi)
            bad(text, "a finite number in [" + fmt(lo) + ", " + fmt(hi) +
                          "]");
        return v;
    }

    /**
     * The value as a time in microseconds that usToCycles() takes to
     * whole cycles in [1, maxTimeCycles]: a shorter time would be a
     * zero target, and a longer one a cast the cycle type cannot hold.
     */
    double
    usTime()
    {
        const std::string text = str();
        double v = 0;
        const bool finite = parseReal(text, v);
        // usToCycles' own product, range-checked as a double before
        // it is cast.
        const double c = v * static_cast<double>(cyclesPerUs);
        if (!finite || !(c >= 1) || c > static_cast<double>(maxTimeCycles))
            bad(text, "a time in us of at least one cycle (" +
                          fmt(cyclesToUs(1)) + ") and at most " +
                          fmt(cyclesToUs(maxTimeCycles)));
        return v;
    }

    /** Longest time usTime() accepts: 2^53 cycles, exact in a double. */
    static constexpr Cycles maxTimeCycles = Cycles{1} << 53;

    /** The value as a finite real number > 0. */
    double
    positive()
    {
        const std::string text = str();
        double v = 0;
        if (!parseReal(text, v) || !(v > 0))
            bad(text, "a finite number > 0");
        return v;
    }

    /**
     * The value as a 64-bit seed: the whole string, no sign, base 0
     * (decimal, 0x hex, or octal after a leading 0).
     */
    std::uint64_t
    seed()
    {
        const std::string text = str();
        char *end = nullptr;
        errno = 0;
        std::uint64_t v = 0;
        if (!text.empty() &&
            std::isdigit(static_cast<unsigned char>(text[0])))
            v = std::strtoull(text.c_str(), &end, 0);
        if (!end || *end != '\0' || errno != 0)
            bad(text, "a seed (decimal, 0x hex or 0 octal)");
        return v;
    }

    /**
     * The value as the scheme tags a checking tool runs: every
     * checked scheme for "all", else the one tag. Unknown tags and
     * "unprotected", which has nothing to check, exit 2.
     */
    std::vector<std::string>
    checkedSchemes()
    {
        const std::string text = str();
        const std::vector<std::string> tags = core::checkedSchemeTags();
        if (text == "all")
            return tags;
        if (std::find(tags.begin(), tags.end(), text) != tags.end())
            return {text};
        const std::string known = "all or one of: " + joined(tags);
        bad(text, core::configForScheme(text)
                      ? "a scheme with something to check (" + known + ")"
                      : known);
    }

    /** Reject the current token as an unknown option. */
    [[noreturn]] void
    unknown() const
    {
        fail("unknown option '" + std::string(mArgv[mI]) + "'");
    }

    /** Print @p why, then the usage, and exit 2. */
    [[noreturn]] void
    fail(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n", mTool, why.c_str());
        usage();
    }

    /** Print the usage and exit 2. */
    [[noreturn]] void
    usage() const
    {
        std::fputs(mUsage, stderr);
        std::exit(2);
    }

  private:
    static bool
    parseReal(const std::string &text, double &v)
    {
        char *end = nullptr;
        errno = 0;
        v = std::strtod(text.c_str(), &end);
        return !text.empty() && *end == '\0' && errno == 0 &&
               std::isfinite(v);
    }

    static std::string
    fmt(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return buf;
    }

    [[noreturn]] void
    bad(const std::string &text, const std::string &want) const
    {
        std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", mTool,
                     mFlag.c_str(), want.c_str(), text.c_str());
        std::exit(2);
    }

    const char *mTool;
    int mArgc;
    char **mArgv;
    const char *mUsage;
    int mI = 0;
    std::string mFlag;  //!< current token, minus any "=value"
    std::string mValue; //!< the "=value" part
    bool mInline = false;
    bool mTaken = false;
};

/**
 * The configuration scheme tag @p tag names (core::configForScheme),
 * or print the known tags and exit 2.
 */
inline core::RuntimeConfig
scheme(const char *tool, const std::string &tag,
       Cycles ew = target::defaultEw, Cycles tew = target::defaultTew)
{
    std::optional<core::RuntimeConfig> cfg =
        core::configForScheme(tag, ew, tew);
    if (!cfg) {
        std::fprintf(stderr, "%s: unknown scheme '%s' (try: %s)\n", tool,
                     tag.c_str(), joined(core::schemeTags()).c_str());
        std::exit(2);
    }
    return *cfg;
}

/** printf into a string: how the tools render an artifact's text. */
__attribute__((format(printf, 1, 2))) inline std::string
format(const char *fmt, ...)
{
    std::va_list ap, ap2;
    va_start(ap, fmt);
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

/** Write @p text to @p path, or print why not and exit 2. */
inline void
writeText(const char *tool, const std::string &path,
          const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.close();
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
        std::exit(2);
    }
    std::fprintf(stderr, "%s: wrote %s\n", tool, path.c_str());
}

/**
 * Compare @p text byte for byte with the golden at @p path; on drift
 * print the first five differing lines. Returns 0 on a match, 1 on
 * drift, 2 if the golden cannot be read.
 */
inline int
checkGolden(const char *tool, const std::string &path,
            const std::string &text)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot read golden %s\n", tool,
                     path.c_str());
        return 2;
    }
    std::ostringstream want;
    want << in.rdbuf();
    if (want.str() == text) {
        std::fprintf(stderr, "%s: matches golden %s\n", tool,
                     path.c_str());
        return 0;
    }
    std::istringstream a(want.str()), b(text);
    std::string la, lb;
    unsigned lineNo = 0, shown = 0;
    for (;;) {
        bool ha = static_cast<bool>(std::getline(a, la));
        bool hb = static_cast<bool>(std::getline(b, lb));
        if (!ha && !hb)
            break;
        ++lineNo;
        if (ha && hb && la == lb)
            continue;
        std::fprintf(stderr,
                     "%s: DRIFT at line %u:\n  golden: %s\n"
                     "  actual: %s\n",
                     tool, lineNo, ha ? la.c_str() : "<eof>",
                     hb ? lb.c_str() : "<eof>");
        if (++shown >= 5) {
            std::fprintf(stderr, "%s: (more drift elided)\n", tool);
            break;
        }
    }
    if (shown == 0)
        std::fprintf(stderr, "%s: DRIFT at line %u: the final newline "
                             "differs\n",
                     tool, lineNo);
    return 1;
}

} // namespace cli
} // namespace terp

#endif // TERP_TOOLS_CLI_HH
