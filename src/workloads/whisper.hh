/**
 * @file
 * WHISPER benchmark surrogates (Section VI of the paper): six
 * persistent-memory applications — echo, ycsb, tpcc, ctree, hashmap,
 * redis — each running transactions over a single 1 GB PMO with a
 * single thread, as the paper's WHISPER evaluation does.
 *
 * Each workload implements its real data structure (log + index,
 * record store, TPC-C-style tables, binary tree, chained hash map,
 * dict + lists) over the PMO allocator and memory image, and marks
 * two granularities of protection points:
 *   - manual bookends around each transaction/batch (what a MERR
 *     programmer writes; honored by the MM scheme), and
 *   - region markers around each data-structure operation (where the
 *     TERP compiler would insert CONDAT/CONDDT; honored by TM/TT).
 */

#ifndef TERP_WORKLOADS_WHISPER_HH
#define TERP_WORKLOADS_WHISPER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/runtime.hh"
#include "pm/mem_image.hh"
#include "pm/pmo_manager.hh"
#include "semantics/ew_tracker.hh"
#include "sim/machine.hh"
#include "trace/audit.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace workloads {

/** Shared run parameters. */
struct WhisperParams
{
    std::uint64_t sections = 400; //!< transactions / batches to run
    std::uint64_t seed = 1234;
    std::uint64_t pmoSize = 1 * GiB;
    Cycles sweepPeriod = cyclesPerUs; //!< hardware sweep timer period
};

/** Result of one protected run. */
struct RunResult
{
    std::string name;
    core::OverheadReport report;
    semantics::ExposureMetrics exposure;
    Cycles totalCycles = 0;
    std::uint64_t pmoCount = 1;

    /**
     * Set only when cfg.traceEnabled: the full event trace and the
     * timeline auditor's differential verdict against the runtime's
     * EwTracker.
     */
    std::shared_ptr<trace::TraceSink> trace;
    std::shared_ptr<trace::AuditReport> traceAudit;

    /**
     * The run's metrics registry (null when metrics are disabled),
     * labeled with the scheme tag and workload name. Single-run
     * consumers read it directly; the parallel harness merges it
     * into bench::globalMetrics().
     */
    std::shared_ptr<metrics::Registry> metrics;
};

/** The six WHISPER workload names. */
const std::vector<std::string> &whisperNames();

/** Run one WHISPER workload under the given scheme. */
RunResult runWhisper(const std::string &name,
                     const core::RuntimeConfig &cfg,
                     const WhisperParams &params = {});

/**
 * The binary search tree that inserting @p keys one at a time into an
 * empty tree builds, a repeated key being skipped: ctree's prefill.
 * It is the Cartesian tree on (key, first insertion index), so one
 * sort and one stack pass build it, with no root-to-leaf walk per key.
 */
struct InsertionBst
{
    static constexpr std::uint32_t none = ~0u;
    /** Distinct keys in first-insertion order; node i holds keys[i]. */
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> left, right; //!< child node, or none
    std::uint32_t root = none;
};

InsertionBst buildInsertionBst(const std::vector<std::uint64_t> &keys);

/**
 * Overhead of a protected run relative to an unprotected run of the
 * same workload/params: (protected - base) / base.
 */
double overheadVsBase(const RunResult &protected_run,
                      const RunResult &base_run);

} // namespace workloads
} // namespace terp

#endif // TERP_WORKLOADS_WHISPER_HH
