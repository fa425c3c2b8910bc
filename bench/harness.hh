/**
 * @file
 * The paper's figure/table suite (kFigures) and the simulation tally
 * its figures share.
 *
 * Every cell of a figure (one workload under one scheme) is an
 * independent Machine + Runtime simulation with no shared mutable
 * state, so the harnesses split into two phases:
 *
 *  1. compute — every simulation is enqueued on a ParallelRunner
 *     (common/parallel.hh) and writes its RunResult into a
 *     pre-indexed slot; a --jobs=N pool drains the queue in
 *     arbitrary order;
 *  2. print — serial loops read the slots and write the table.
 *
 * Because each simulation is internally seeded and deterministic and
 * the print phase is serial, every table is byte-identical for every
 * value of N (tests/test_bench_harness.cc compares fig11 at 1 and 8
 * jobs; the Tables.terp-bench ctest pins the quick suite's text).
 *
 * The counted wrappers additionally feed a process-wide tally of
 * simulations and simulated cycles, which tools/terp-bench reads to
 * compute sims/sec and to detect simulated-cycle drift against the
 * checked-in golden summaries.
 */

#ifndef TERP_BENCH_HARNESS_HH
#define TERP_BENCH_HARNESS_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/parallel.hh"
#include "metrics/registry.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

namespace terp {
namespace bench {

/**
 * One figure or table of the paper's evaluation: runs its
 * simulations on a @p jobs-thread ParallelRunner and writes the
 * table to @p out. @p quick selects the reduced CI size; each
 * figure's full and quick sizes are constants in its own .cc.
 */
void fig08(bool quick, unsigned jobs, std::FILE *out);
void fig09(bool quick, unsigned jobs, std::FILE *out);
void fig10(bool quick, unsigned jobs, std::FILE *out);
void fig11(bool quick, unsigned jobs, std::FILE *out);
void table3(bool quick, unsigned jobs, std::FILE *out);
void table4(bool quick, unsigned jobs, std::FILE *out);
void table5(bool quick, unsigned jobs, std::FILE *out);
void table6(bool quick, unsigned jobs, std::FILE *out);
void ablation(bool quick, unsigned jobs, std::FILE *out);

struct Figure
{
    const char *name;
    void (*fn)(bool quick, unsigned jobs, std::FILE *out);
};

/** The suite, in the order tools/terp-bench runs and prints it. */
inline constexpr Figure kFigures[] = {
    {"fig08", fig08},   {"fig09", fig09},   {"fig10", fig10},
    {"fig11", fig11},   {"table3", table3}, {"table4", table4},
    {"table5", table5}, {"table6", table6}, {"ablation", ablation},
};

/** Snapshot of the process-wide simulation tally. */
struct SimTally
{
    std::uint64_t sims = 0;      //!< simulations completed
    std::uint64_t simCycles = 0; //!< simulated cycles, summed
};

/** Read the current tally (monotonic; never reset). */
SimTally tallySnapshot();

/** Record one completed simulation of @p cycles simulated cycles. */
void noteSim(std::uint64_t cycles);

/**
 * The process-wide metrics aggregate: every counted run's registry
 * is merged in (commutatively, under a lock) with the `scheme` label
 * baked into each name so runs of different schemes stay distinct.
 * Per-PMO exposure histograms are dropped at the merge — PMO ids are
 * only meaningful within one run — keeping the pmo="all" rollups.
 * Empty when the counted runs disabled metrics
 * (RuntimeConfig::withoutMetrics()).
 */
metrics::Registry &globalMetrics();

/** Merge one run's registry into globalMetrics(). */
void noteRunMetrics(const workloads::RunResult &r);

/** runWhisper, recorded in the tally. */
workloads::RunResult
runWhisperCounted(const std::string &name,
                  const core::RuntimeConfig &cfg,
                  const workloads::WhisperParams &params);

/** runSpec, recorded in the tally. */
workloads::RunResult
runSpecCounted(const std::string &name,
               const core::RuntimeConfig &cfg,
               const workloads::SpecParams &params);

} // namespace bench
} // namespace terp

#endif // TERP_BENCH_HARNESS_HH
