/**
 * @file
 * Fig 10 — single-thread multi-PMO SPEC execution-time overheads:
 * MM(40us), TM(2us TEW, all system calls) and TT at 40/80/160us EW
 * targets, with the Attach/Detach/Rand/Cond/Other breakdown.
 *
 * Size: SPEC scale 1.0, 0.1 under --quick.
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
terp::bench::fig10(bool quick, unsigned jobs, std::FILE *out)
{
    SpecParams p;
    p.scale = quick ? 0.1 : 1.0;

    std::fprintf(out, "=== Fig 10: SPEC single-thread overheads vs "
                 "unprotected ===\n\n");
    printBreakdownHeader(out, "prog");

    struct SchemeDef
    {
        const char *name;
        core::RuntimeConfig cfg;
    };
    const SchemeDef schemes[] = {
        {"MM(40us)", core::RuntimeConfig::mm(usToCycles(40))},
        {"TM(2us)", core::RuntimeConfig::tm(usToCycles(40))},
        {"TT(40us)", core::RuntimeConfig::tt(usToCycles(40))},
        {"TT(80us)", core::RuntimeConfig::tt(usToCycles(80))},
        {"TT(160us)", core::RuntimeConfig::tt(usToCycles(160))},
    };
    const std::size_t ns = std::size(schemes);
    const std::vector<std::string> &names = specNames();

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
        std::fprintf(out, "%-10s avg total overhead: %6.1f%%\n",
                     schemes[j].name,
                     100.0 * avg_total[j] /
                         static_cast<double>(names.size()));
    }
    std::fprintf(out, "\npaper: MM ~156%%, TM >300%%, TT 14.8%% at 40us "
                 "falling to 7.6%% at 160us; lbm highest among TT "
                 "(two PMOs active throughout).\n");
}
