/**
 * @file
 * Fig 9 — WHISPER execution-time overheads over unprotected runs:
 * MM(40us), TM(40us) and TT at 40/80/160us EW targets (TEW 2us),
 * broken into Attach / Detach / Rand / Cond / Other components.
 *
 * Size: 400 sections per workload, 40 under --quick. For a Perfetto
 * trace of one cell, run `terp-trace <prog> <scheme> --ew N`.
 */

#include <cstdio>
#include <iterator>

#include "bench_util.hh"
#include "harness.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::workloads;
using namespace terp::bench;

void
terp::bench::fig09(bool quick, unsigned jobs, std::FILE *out)
{
    WhisperParams p;
    p.sections = quick ? 40 : 400;

    std::fprintf(out, "=== Fig 9: WHISPER overheads vs unprotected "
                 "(TEW 2us) ===\n\n");
    printBreakdownHeader(out, "prog");

    struct SchemeDef
    {
        const char *name;
        core::RuntimeConfig cfg;
    };
    const SchemeDef schemes[] = {
        {"MM(40us)", core::RuntimeConfig::mm(usToCycles(40))},
        {"TM(40us)", core::RuntimeConfig::tm(usToCycles(40))},
        {"TT(40us)", core::RuntimeConfig::tt(usToCycles(40))},
        {"TT(80us)", core::RuntimeConfig::tt(usToCycles(80))},
        {"TT(160us)", core::RuntimeConfig::tt(usToCycles(160))},
    };
    const std::size_t ns = std::size(schemes);
    const std::vector<std::string> &names = whisperNames();

    std::vector<RunResult> base(names.size());
    std::vector<RunResult> cells(names.size() * ns);
    ParallelRunner pool(jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.add([&, i] {
            base[i] = runWhisperCounted(
                names[i], core::RuntimeConfig::unprotected(), p);
        });
        for (std::size_t j = 0; j < ns; ++j) {
            pool.add([&, i, j] {
                cells[i * ns + j] =
                    runWhisperCounted(names[i], schemes[j].cfg, p);
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

    std::fprintf(out, "--- averages over the six workloads ---\n");
    for (std::size_t j = 0; j < ns; ++j) {
        std::fprintf(out, "%-10s avg total overhead: %5.1f%%\n",
                     schemes[j].name,
                     100.0 * avg_total[j] /
                         static_cast<double>(names.size()));
    }
    std::fprintf(out, "\npaper: MM(40us) ~20%%, TM(40us) ~30%% (1.5x MM), "
                 "TT(40us) ~6%%, decreasing with larger EW targets.\n");
}
