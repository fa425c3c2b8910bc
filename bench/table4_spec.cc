/**
 * @file
 * Table IV — SPEC surrogate results on a 40 us EW target (metrics
 * averaged over all PMOs): per-app PMO count, MERR (MM) exposure
 * windows and rate, TERP (TT) silent fraction, exposure window,
 * exposure rate, TEW and TER.
 *
 * Size: SPEC scale 1.0, 0.1 under --quick.
 */

#include <cstdio>

#include "bench_util.hh"
#include "harness.hh"
#include "workloads/spec.hh"

using namespace terp;
using namespace terp::workloads;
using namespace terp::bench;

void
terp::bench::table4(bool quick, unsigned jobs, std::FILE *out)
{
    SpecParams p;
    p.scale = quick ? 0.1 : 1.0;

    const std::vector<std::string> &names = specNames();
    std::vector<RunResult> mmRuns(names.size());
    std::vector<RunResult> ttRuns(names.size());
    ParallelRunner pool(jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.add([&, i] {
            mmRuns[i] =
                runSpecCounted(names[i], core::RuntimeConfig::mm(), p);
        });
        pool.add([&, i] {
            ttRuns[i] =
                runSpecCounted(names[i], core::RuntimeConfig::tt(), p);
        });
    }
    pool.run();

    std::fprintf(out, "=== Table IV: SPEC results on 40us EW "
                 "(avg over all PMOs) ===\n\n");
    std::fprintf(
        out, "%-8s %5s | %-16s %6s || %6s | %-14s %6s %6s %6s\n", "Prog.",
        "#PMO", "MM EW us avg/max", "ER%", "Silent", "TT EW avg us",
        "ER%", "TEW", "TER%");

    double s_pmo = 0, s_mm_ew = 0, s_mm_er = 0, s_sil = 0;
    double s_tt_ew = 0, s_tt_er = 0, s_tew = 0, s_ter = 0;
    unsigned n = 0;

    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const RunResult &mm = mmRuns[i];
        const RunResult &tt = ttRuns[i];
        char mmew[32];
        std::snprintf(mmew, sizeof(mmew), "%.1f/%.1f",
                      mm.exposure.ewAvgUs, mm.exposure.ewMaxUs);
        std::fprintf(out, "%-8s %5u | %-16s %6.1f || %6.1f | %-14.1f "
                     "%6.1f %6.2f %6.1f\n",
                     name.c_str(), specPmoCount(name), mmew,
                     100 * mm.exposure.er,
                     100 * tt.report.silentFraction,
                     tt.exposure.ewAvgUs, 100 * tt.exposure.er,
                     tt.exposure.tewAvgUs, 100 * tt.exposure.ter);
        s_pmo += specPmoCount(name);
        s_mm_ew += mm.exposure.ewAvgUs;
        s_mm_er += mm.exposure.er;
        s_sil += tt.report.silentFraction;
        s_tt_ew += tt.exposure.ewAvgUs;
        s_tt_er += tt.exposure.er;
        s_tew += tt.exposure.tewAvgUs;
        s_ter += tt.exposure.ter;
        ++n;
    }

    std::fprintf(out, "%-8s %5.1f | %13.1f avg %6.1f || %6.1f | %-14.1f "
                 "%6.1f %6.2f %6.1f\n",
                 "Avg.", s_pmo / n, s_mm_ew / n, 100 * s_mm_er / n,
                 100 * s_sil / n, s_tt_ew / n, 100 * s_tt_er / n,
                 s_tew / n, 100 * s_ter / n);

    std::fprintf(out, "\npaper Avg.: 3.6 PMOs | MM EW 4.4/25.4 ER 27.2%% | "
                 "silent 96.8%% | TT EW 39.7 ER 38.1%% TEW 1.02us TER "
                 "10.0%%\n");
    std::fprintf(out, "shape checks: ~97%% of calls silent; TT EW pinned "
                 "at the target; higher PMO count => lower ER (xz "
                 "lowest).\n");
}
