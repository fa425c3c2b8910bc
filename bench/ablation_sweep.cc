/**
 * @file
 * Ablation studies for TERP's design parameters, beyond the paper's
 * headline configurations:
 *
 *  1. EW-target sweep: the security/performance trade-off curve —
 *     per-window attack success probability (Table V model) against
 *     TT overhead, for EW targets from 10us to 320us.
 *  2. Sweep-granularity sensitivity: how the hardware timer period
 *     affects how far windows overshoot the EW target.
 *  3. TEW-insertion-granularity ablation: the compiler's TEW
 *     threshold vs the measured thread exposure and cond overhead.
 *
 * Size: 250 WHISPER sections, 40 under --quick.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "harness.hh"
#include "security/attack_model.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::workloads;
using namespace terp::bench;

void
terp::bench::ablation(bool quick, unsigned jobs, std::FILE *out)
{
    WhisperParams p;
    p.sections = quick ? 40 : 250;

    const double ewTargets[] = {10.0, 20.0, 40.0, 80.0, 160.0, 320.0};
    const double sweepPeriods[] = {0.5, 1.0, 2.0, 4.0, 8.0};
    const double tewTargets[] = {0.5, 1.0, 2.0, 4.0, 8.0};

    // Compute phase: three bases and every sweep point.
    RunResult base, hbase, tbase;
    std::vector<RunResult> ewRuns(std::size(ewTargets));
    std::vector<RunResult> perRuns(std::size(sweepPeriods));
    std::vector<RunResult> tewRuns(std::size(tewTargets));
    ParallelRunner pool(jobs);
    pool.add([&] {
        base = runWhisperCounted(
            "ycsb", core::RuntimeConfig::unprotected(), p);
    });
    for (std::size_t i = 0; i < std::size(ewTargets); ++i) {
        pool.add([&, i] {
            ewRuns[i] = runWhisperCounted(
                "ycsb",
                core::RuntimeConfig::tt(usToCycles(ewTargets[i])), p);
        });
    }
    pool.add([&] {
        hbase = runWhisperCounted(
            "hashmap", core::RuntimeConfig::unprotected(), p);
    });
    for (std::size_t i = 0; i < std::size(sweepPeriods); ++i) {
        pool.add([&, i] {
            WhisperParams sp = p;
            sp.sweepPeriod = usToCycles(sweepPeriods[i]);
            perRuns[i] = runWhisperCounted(
                "hashmap", core::RuntimeConfig::tt(), sp);
        });
    }
    pool.add([&] {
        tbase = runWhisperCounted(
            "tpcc", core::RuntimeConfig::unprotected(), p);
    });
    for (std::size_t i = 0; i < std::size(tewTargets); ++i) {
        pool.add([&, i] {
            tewRuns[i] = runWhisperCounted(
                "tpcc",
                core::RuntimeConfig::tt(usToCycles(40),
                                        usToCycles(tewTargets[i])),
                p);
        });
    }
    pool.run();

    // ---- 1. EW target sweep ----------------------------------------
    std::fprintf(out, "=== Ablation 1: EW target sweep (ycsb) — security "
                 "vs overhead ===\n");
    std::fprintf(out, "%-8s %10s %10s %12s %16s\n", "EW(us)", "overhead",
                 "EWavg(us)", "ER%", "P(success)/win");
    for (std::size_t i = 0; i < std::size(ewTargets); ++i) {
        const double ew = ewTargets[i];
        const RunResult &r = ewRuns[i];
        security::AttackScenario s;
        s.ewUs = ew;
        s.accessibleFraction = r.exposure.ter;
        std::fprintf(out, "%-8.0f %9.1f%% %10.1f %11.1f%% %15.5f%%\n", ew,
                     100 * overheadVsBase(r, base), r.exposure.ewAvgUs,
                     100 * r.exposure.er,
                     security::successProbabilityPercent(s));
    }
    std::fprintf(out, "=> larger windows cost less but linearly enlarge "
                 "the probe budget per placement.\n\n");

    // ---- 2. sweep period sensitivity ---------------------------------
    std::fprintf(out, "=== Ablation 2: hardware sweep period vs window "
                 "overshoot (hashmap, 40us EW) ===\n");
    std::fprintf(out, "%-12s %12s %12s %10s\n", "period(us)", "EWavg(us)",
                 "EWmax(us)", "overhead");
    for (std::size_t i = 0; i < std::size(sweepPeriods); ++i) {
        const RunResult &r = perRuns[i];
        std::fprintf(out, "%-12.1f %12.1f %12.1f %9.1f%%\n",
                     sweepPeriods[i], r.exposure.ewAvgUs,
                     r.exposure.ewMaxUs,
                     100 * overheadVsBase(r, hbase));
    }
    std::fprintf(out, "=> windows close at most ~1 sweep period + one "
                 "region past the 40us deadline; a coarser timer "
                 "trades overshoot for fewer sweeps.\n\n");

    // ---- 3. TEW threshold ablation -----------------------------------
    std::fprintf(out, "=== Ablation 3: TEW target vs thread exposure "
                 "(tpcc, 40us EW) ===\n");
    std::fprintf(out, "%-10s %10s %10s %10s\n", "TEW(us)", "TEWavg",
                 "TER%", "overhead");
    for (std::size_t i = 0; i < std::size(tewTargets); ++i) {
        const RunResult &r = tewRuns[i];
        std::fprintf(out, "%-10.1f %10.2f %9.1f%% %9.1f%%\n", tewTargets[i],
                     r.exposure.tewAvgUs, 100 * r.exposure.ter,
                     100 * overheadVsBase(r, tbase));
    }
    std::fprintf(out, "=> the TEW target does not change the runtime cost "
                 "structure (the permission toggles are 27-cycle\n"
                 "   instructions either way); it bounds how long a "
                 "compromised thread can act, cf. Fig 8's 2us pick.\n");
}
