/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses.
 */

#ifndef TERP_BENCH_BENCH_UTIL_HH
#define TERP_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include "workloads/whisper.hh"

namespace terp {
namespace bench {

/** Per-category overhead fractions of base time (stacked bars). */
struct Breakdown
{
    double attach, detach, rand, cond, other, total;
};

inline Breakdown
breakdown(const workloads::RunResult &r,
          const workloads::RunResult &base)
{
    // Components are charged across all threads, so normalize them
    // by the baseline's total CPU time (= wall clock for one
    // thread); the total stays wall-clock overhead.
    double b = static_cast<double>(
        base.report.work > 0 ? base.report.work : base.totalCycles);
    Breakdown d;
    d.attach = static_cast<double>(r.report.attach) / b;
    d.detach = static_cast<double>(r.report.detach) / b;
    d.rand = static_cast<double>(r.report.rand) / b;
    d.cond = static_cast<double>(r.report.cond) / b;
    // "Other" absorbs permission-matrix checks plus residual work
    // inflation (TLB refills after shootdowns etc.).
    d.total = workloads::overheadVsBase(r, base);
    double accounted = d.attach + d.detach + d.rand + d.cond;
    d.other = d.total > accounted ? d.total - accounted : 0.0;
    return d;
}

inline void
printBreakdownHeader(std::FILE *out, const char *first_col)
{
    std::fprintf(out, "%-10s %-12s %8s %8s %8s %8s %8s %9s\n",
                 first_col, "scheme", "Attach%", "Detach%", "Rand%",
                 "Cond%", "Other%", "Total%");
}

inline void
printBreakdownRow(std::FILE *out, const std::string &name,
                  const std::string &scheme, const Breakdown &d)
{
    std::fprintf(out,
                 "%-10s %-12s %8.1f %8.1f %8.1f %8.1f %8.1f %9.1f\n",
                 name.c_str(), scheme.c_str(), 100 * d.attach,
                 100 * d.detach, 100 * d.rand, 100 * d.cond,
                 100 * d.other, 100 * d.total);
}

} // namespace bench
} // namespace terp

#endif // TERP_BENCH_BENCH_UTIL_HH
