/**
 * @file
 * Fig 11 — 4-thread SPEC results across EW targets, with the
 * benefits breakdown: Basic semantics (threads serialize on a
 * process-wide attach), TM (every conditional op a system call),
 * "+Cond" (conditional instructions without the circular buffer) and
 * "+CB" (full TT with window combining).
 *
 * Size: SPEC scale 0.5 at 4 threads, scale 0.1 under --quick.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "harness.hh"
#include "workloads/spec.hh"

using namespace terp;
using namespace terp::workloads;
using namespace terp::bench;

void
terp::bench::fig11(bool quick, unsigned jobs, std::FILE *out)
{
    SpecParams p;
    p.scale = quick ? 0.1 : 0.5;
    p.threads = 4;

    std::fprintf(out, "=== Fig 11: %u-thread SPEC overheads vs "
                 "unprotected ===\n\n",
                 p.threads);

    struct SchemeDef
    {
        const char *name;
        core::RuntimeConfig cfg;
    };
    const SchemeDef schemes[] = {
        {"Basic", core::RuntimeConfig::basicSemantics()},
        {"TM(2us)", core::RuntimeConfig::tm()},
        {"+Cond", core::RuntimeConfig::ttNoCombining()},
        {"+CB(40us)", core::RuntimeConfig::tt(usToCycles(40))},
        {"+CB(80us)", core::RuntimeConfig::tt(usToCycles(80))},
        {"+CB(160us)", core::RuntimeConfig::tt(usToCycles(160))},
    };
    const std::size_t ns = std::size(schemes);
    const std::vector<std::string> &names = specNames();

    // Compute phase: every cell is an independent simulation.
    std::vector<RunResult> base(names.size());
    std::vector<RunResult> cells(names.size() * ns);
    ParallelRunner pool(jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.add([&, i] {
            base[i] = runSpecCounted(
                names[i], core::RuntimeConfig::unprotected(), p);
        });
        for (std::size_t j = 0; j < ns; ++j) {
            pool.add([&, i, j] {
                cells[i * ns + j] =
                    runSpecCounted(names[i], schemes[j].cfg, p);
            });
        }
    }
    pool.run();

    // Print phase: the original serial loops, reading the slots.
    printBreakdownHeader(out, "prog");
    std::vector<double> avg_total(ns, 0.0);
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = 0; j < ns; ++j) {
            Breakdown d = breakdown(cells[i * ns + j], base[i]);
            printBreakdownRow(out, names[i], schemes[j].name, d);
            avg_total[j] += d.total;
        }
        std::fprintf(out, "\n");
    }

    std::fprintf(out, "--- averages over the five kernels ---\n");
    for (std::size_t j = 0; j < ns; ++j) {
        std::fprintf(out, "%-11s avg total overhead: %7.1f%%\n",
                     schemes[j].name,
                     100.0 * avg_total[j] /
                         static_cast<double>(names.size()));
    }
    std::fprintf(out, "\npaper: Basic semantics ~800-1000%% (one thread "
                 "attaches at a time), +Cond and TM in the hundreds "
                 "of percent, +CB (full TERP) at or below ~15%%, "
                 "falling with larger EW targets.\n");
}
