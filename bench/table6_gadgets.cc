/**
 * @file
 * Table VI — data-only gadget analysis across attack scenarios:
 * how many read/write gadgets TERP disarms versus MERR, both as a
 * static census over the instrumented SPEC kernels and as the
 * time-weighted rates derived from measured exposure (TERP disarms
 * 1-TER of gadget time; MERR leaves ER exposed), plus the Fig 12
 * data-only attack outcome per scheme.
 *
 * Size: 200 WHISPER sections and SPEC scale 0.5; 40 sections and
 * scale 0.1 under --quick.
 */

#include <cstdio>

#include "bench_util.hh"
#include "harness.hh"
#include "security/dop.hh"
#include "security/gadget.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::security;

void
terp::bench::table6(bool quick, unsigned jobs, std::FILE *out)
{
    workloads::WhisperParams wp;
    wp.sections = quick ? 40 : 200;
    workloads::SpecParams sp;
    sp.scale = quick ? 0.1 : 0.5;

    const std::vector<std::string> &wNames =
        workloads::whisperNames();
    const std::vector<std::string> &sNames = workloads::specNames();

    // Compute phase: the static census, the 2x11 measured runs and
    // the three DOP attack runs are all independent.
    std::vector<GadgetCensus> census(sNames.size());
    std::vector<workloads::RunResult> wTt(wNames.size());
    std::vector<workloads::RunResult> wMm(wNames.size());
    std::vector<workloads::RunResult> sTt(sNames.size());
    std::vector<workloads::RunResult> sMm(sNames.size());
    const core::RuntimeConfig dopCfgs[] = {
        core::RuntimeConfig::unprotected(), core::RuntimeConfig::mm(),
        core::RuntimeConfig::tt()};
    DopResult dop[3];

    ParallelRunner pool(jobs);
    for (std::size_t i = 0; i < sNames.size(); ++i) {
        pool.add([&, i] {
            pm::PmoManager pmos(7);
            auto prog = workloads::buildSpec(
                sNames[i], pmos, compiler::PassConfig{}, sp);
            census[i] = analyzeGadgets(prog.module);
        });
        pool.add([&, i] {
            sTt[i] = bench::runSpecCounted(
                sNames[i], core::RuntimeConfig::tt(), sp);
        });
        pool.add([&, i] {
            sMm[i] = bench::runSpecCounted(
                sNames[i], core::RuntimeConfig::mm(), sp);
        });
    }
    for (std::size_t i = 0; i < wNames.size(); ++i) {
        pool.add([&, i] {
            wTt[i] = bench::runWhisperCounted(
                wNames[i], core::RuntimeConfig::tt(), wp);
        });
        pool.add([&, i] {
            wMm[i] = bench::runWhisperCounted(
                wNames[i], core::RuntimeConfig::mm(), wp);
        });
    }
    for (std::size_t k = 0; k < 3; ++k)
        pool.add([&, k] { dop[k] = runFtpAttack(dopCfgs[k]); });
    pool.run();

    std::fprintf(out, "=== Table VI: gadget disarm analysis ===\n\n");

    // ---- static census over instrumented SPEC kernels ------------
    // The kernels are access-dominated, so most static gadget SITES
    // sit inside a pair; the security claim is temporal (the pair is
    // open only a sliver of the time), which the time-weighted rates
    // below capture -- they are what the paper's 96.6%/89.98% mean.
    std::fprintf(out, "--- static census (instrumented SPEC kernels) ---\n");
    std::fprintf(out, "%-8s %8s %12s %12s\n", "prog", "gadgets",
                 "TERP-disarm%", "MERR-disarm%");
    for (std::size_t i = 0; i < sNames.size(); ++i) {
        const GadgetCensus &c = census[i];
        std::fprintf(out, "%-8s %8llu %11.1f%% %11.1f%%\n",
                     sNames[i].c_str(),
                     (unsigned long long)c.totalGadgets,
                     100 * c.terpDisarmRate(),
                     100 * c.merrDisarmRate());
    }

    // ---- time-weighted rates from measured exposure ---------------
    std::fprintf(out, "\n--- time-weighted disarm rates (measured) ---\n");
    double w_ter = 0, w_er = 0;
    for (std::size_t i = 0; i < wNames.size(); ++i) {
        w_ter += wTt[i].exposure.ter;
        w_er += wMm[i].exposure.er;
    }
    w_ter /= static_cast<double>(wNames.size());
    w_er /= static_cast<double>(wNames.size());
    std::fprintf(out, "WHISPER: TERP disarms %.1f%% of gadget time "
                 "(paper 96.6%%); MERR keeps %.1f%% exposed "
                 "(paper 24.5%%)\n",
                 100 * terpTimeWeightedDisarmRate(w_ter),
                 100 * merrTimeWeightedKeptRate(w_er));

    double s_ter = 0, s_er = 0;
    for (std::size_t i = 0; i < sNames.size(); ++i) {
        s_ter += sTt[i].exposure.ter;
        s_er += sMm[i].exposure.er;
    }
    s_ter /= static_cast<double>(sNames.size());
    s_er /= static_cast<double>(sNames.size());
    std::fprintf(out, "SPEC   : TERP disarms %.1f%% of gadget time "
                 "(paper 89.98%%); MERR keeps %.1f%% exposed "
                 "(paper 27.2%%)\n",
                 100 * terpTimeWeightedDisarmRate(s_ter),
                 100 * merrTimeWeightedKeptRate(s_er));

    // ---- the Fig 12 attack as the "gadgets within a pair" case ----
    std::fprintf(out, "\n--- Fig 12 data-only attack outcome ---\n");
    std::fprintf(out, "%-14s %12s %10s %8s\n", "scheme", "corrupted",
                 "faults", "rand");
    for (std::size_t k = 0; k < 3; ++k) {
        const DopResult &r = dop[k];
        std::fprintf(out, "%-14s %6llu/%-5llu %10llu %8llu\n",
                     core::schemeName(dopCfgs[k].scheme),
                     (unsigned long long)r.nodesCorrupted,
                     (unsigned long long)r.listLength,
                     (unsigned long long)r.accessFaults,
                     (unsigned long long)r.randomizations);
    }
    std::fprintf(out, "\ninteractive data-only attacks are impossible "
                 "within an EW (network RTT >> 40us); non-interactive "
                 "probing finds the PMO with ~0.01%% probability per "
                 "window.\n");
}
