#include "history.hh"

#include <cmath>
#include <cstdio>

#include "metrics/json.hh"

namespace terp {
namespace bench {

std::string
gitRev()
{
    // One popen per process: tools append at most a handful of
    // records but may be invoked in tight CI loops, and the
    // revision cannot change under a running process anyway.
    static const std::string cached = [] {
        std::string rev = "unknown";
        if (FILE *p = popen("git rev-parse --short HEAD 2>/dev/null",
                            "r")) {
            char buf[64] = {};
            if (std::fgets(buf, sizeof(buf), p)) {
                rev = buf;
                while (!rev.empty() &&
                       (rev.back() == '\n' || rev.back() == '\r'))
                    rev.pop_back();
            }
            // Outside a git checkout the command prints nothing and
            // exits nonzero; fall back cleanly either way.
            if (pclose(p) != 0 || rev.empty())
                rev = "unknown";
        }
        return rev;
    }();
    return cached;
}

namespace {

/**
 * Fixed two-decimal rendering, locale-independent: printf("%.2f")
 * uses the process locale's decimal separator, and a comma-decimal
 * locale (de_DE, fr_FR, ...) would make the record invalid JSON.
 * Non-finite inputs render as 0.00 — zeros already mean "not
 * measured" in this schema.
 */
std::string
fixed2(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    long long cents = std::llround(v * 100.0);
    bool neg = cents < 0;
    if (neg)
        cents = -cents;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%lld.%02lld", neg ? "-" : "",
                  cents / 100, cents % 100);
    return buf;
}

} // namespace

bool
appendHistory(const std::string &path, const HistoryRecord &rec)
{
    FILE *f = std::fopen(path.c_str(), "a");
    if (!f)
        return false;
    int n = std::fprintf(
        f,
        "{\"v\": 2, \"git_rev\": %s, \"tool\": %s, \"metric\": %s, "
        "\"sims_per_s\": %s, \"p99_ew_cycles\": %llu, "
        "\"p99_latency_cycles\": %llu}\n",
        metrics::jsonQuoted(gitRev()).c_str(),
        metrics::jsonQuoted(rec.tool).c_str(),
        metrics::jsonQuoted(rec.metric).c_str(),
        fixed2(rec.simsPerS).c_str(),
        static_cast<unsigned long long>(rec.p99EwCycles),
        static_cast<unsigned long long>(rec.p99LatencyCycles));
    bool ok = n > 0;
    if (std::fclose(f) != 0)
        ok = false;
    return ok;
}

} // namespace bench
} // namespace terp
