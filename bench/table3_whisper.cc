/**
 * @file
 * Table III — WHISPER results with a 40 us EW target and 2 us TEW
 * target: MERR (MM) exposure windows and exposure rate versus TERP
 * (TT) silent fraction, exposure window, exposure rate, thread
 * exposure window and thread exposure rate.
 *
 * Size: 400 sections per workload, 40 under --quick.
 */

#include <cstdio>

#include "arch/circular_buffer.hh"
#include "bench_util.hh"
#include "harness.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::workloads;
using namespace terp::bench;

void
terp::bench::table3(bool quick, unsigned jobs, std::FILE *out)
{
    WhisperParams p;
    p.sections = quick ? 40 : 400;

    const std::vector<std::string> &names = whisperNames();
    std::vector<RunResult> mmRuns(names.size());
    std::vector<RunResult> ttRuns(names.size());
    ParallelRunner pool(jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.add([&, i] {
            mmRuns[i] = runWhisperCounted(
                names[i], core::RuntimeConfig::mm(), p);
        });
        pool.add([&, i] {
            ttRuns[i] = runWhisperCounted(
                names[i], core::RuntimeConfig::tt(), p);
        });
    }
    pool.run();

    std::fprintf(out, "=== Table III: WHISPER results, target EW 40us, "
                 "TEW 2us ===\n");
    std::fprintf(out, "(hardware: 32-entry circular buffer, %u bytes "
                 "on-chip state)\n\n",
                 arch::CircularBuffer::storageBytes);
    std::fprintf(out, "%-8s | %-18s %6s || %6s | %-18s %6s %6s %6s\n",
                 "Prog.", "MERR(MM) EW us", "ER%", "Silent",
                 "TERP(TT) EW us", "ER%", "TEW", "TER%");
    std::fprintf(out, "%-8s | %-18s %6s || %6s | %-18s %6s %6s %6s\n", "",
                 "avg/max", "", "%", "avg/max", "", "(us)", "");

    double sum_mm_ew = 0, sum_mm_er = 0, max_mm_ew = 0;
    double sum_sil = 0, sum_tt_ew = 0, sum_tt_er = 0;
    double sum_tew = 0, sum_ter = 0, max_tt_ew = 0;
    unsigned n = 0;

    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const RunResult &mm = mmRuns[i];
        const RunResult &tt = ttRuns[i];
        char mmew[32], ttew[32];
        std::snprintf(mmew, sizeof(mmew), "%.1f/%.1f",
                      mm.exposure.ewAvgUs, mm.exposure.ewMaxUs);
        std::snprintf(ttew, sizeof(ttew), "%.1f/%.1f",
                      tt.exposure.ewAvgUs, tt.exposure.ewMaxUs);
        std::fprintf(
            out, "%-8s | %-18s %6.1f || %6.1f | %-18s %6.1f %6.2f %6.1f\n",
            name.c_str(), mmew, 100 * mm.exposure.er,
            100 * tt.report.silentFraction, ttew,
            100 * tt.exposure.er, tt.exposure.tewAvgUs,
            100 * tt.exposure.ter);

        sum_mm_ew += mm.exposure.ewAvgUs;
        max_mm_ew = std::max(max_mm_ew, mm.exposure.ewMaxUs);
        sum_mm_er += mm.exposure.er;
        sum_sil += tt.report.silentFraction;
        sum_tt_ew += tt.exposure.ewAvgUs;
        max_tt_ew = std::max(max_tt_ew, tt.exposure.ewMaxUs);
        sum_tt_er += tt.exposure.er;
        sum_tew += tt.exposure.tewAvgUs;
        sum_ter += tt.exposure.ter;
        ++n;
    }

    char mmavg[32], ttavg[32];
    std::snprintf(mmavg, sizeof(mmavg), "%.1f/%.1f", sum_mm_ew / n,
                  max_mm_ew);
    std::snprintf(ttavg, sizeof(ttavg), "%.1f/%.1f", sum_tt_ew / n,
                  max_tt_ew);
    std::fprintf(
        out, "%-8s | %-18s %6.1f || %6.1f | %-18s %6.1f %6.2f %6.1f\n",
        "Avg.", mmavg, 100 * sum_mm_er / n, 100 * sum_sil / n, ttavg,
        100 * sum_tt_er / n, sum_tew / n, 100 * sum_ter / n);

    std::fprintf(out, "\npaper Avg.: MM EW 14.5/34.3 ER 24.5%% | silent "
                 "88.8%% | TT EW 39.4/40.0 ER 53.2%% TEW 1.2us TER "
                 "3.4%%\n");
    std::fprintf(out, "shape checks: TT EW pinned at the target while MM "
                 "EW varies; TEW < 2us; TER << ER.\n");
}
