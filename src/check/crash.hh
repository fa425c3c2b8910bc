/**
 * @file
 * Crash-point enumeration: fault-injection + recovery validation for
 * the persistence substrate (the crash-consistency property the PMO
 * abstraction promises, Section II).
 *
 * A baseline run of a workload counts its persist-boundary events
 * (B = every store / clwb / sfence / log-header update). The driver
 * then re-runs the workload B times, arming the controller's fault
 * plan to crash before boundary n for every n in 1..B — covering
 * every distinguishable crash window exactly once — and after each
 * modeled power failure performs Runtime::crash + Runtime::recover
 * and asserts the recovery oracle:
 *
 *   - atomicity: the durable image equals the image after exactly
 *     the transactions whose commit completed (each transaction is
 *     all-or-nothing; an in-flight one is rolled back fully);
 *   - liveness: a probe transaction commits durably after recovery;
 *   - exposure hygiene: recovery attaches are closed by the scheme's
 *     normal idle path (the sweeper) within the window target, no
 *     PMO stays mapped, and the trace audit balances.
 *
 * Enumeration ascends, so the first violation reported is already
 * the earliest failing crash point (the shrunken reproducer).
 */

#ifndef TERP_CHECK_CRASH_HH
#define TERP_CHECK_CRASH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "pm/persist.hh"

namespace terp {
namespace check {

struct CrashOptions
{
    std::string scheme = "mm"; //!< one of core::checkedSchemeTags()
    /**
     * bank:     single-PMO transfer ledger with a sum invariant;
     * hashmap:  WHISPER-style chained-bucket inserts (record fields
     *           plus the bucket-head pointer in one transaction);
     * txnest:   nested TxManager transactions transferring across
     *           two PMOs under one flattened lock set, mixed
     *           undo/redo kinds, ~20% inner aborts;
     * txpair:   two threads, disjoint-PMO transactions with
     *           interleaved writes and staggered commits;
     * schedule: a generated fuzz schedule (persistOps on) run on the
     *           one schedule executor (check/differ.hh). Its skip
     *           rules are the spec oracle's, and the spec and
     *           TxManager oracles check every crash point's replayed
     *           prefix ("replay: " violations).
     *
     * crashWorkloads() lists the names.
     */
    std::string workload = "bank";
    std::uint64_t seed = 0; //!< schedule seed / transfer rng seed
    unsigned txns = 12;     //!< bank transfers / hashmap inserts
    unsigned events = 40;   //!< schedule workload length
    Cycles ewTarget = 5 * cyclesPerUs;
};

struct CrashViolation
{
    std::uint64_t point = 0; //!< 1-based boundary; 0 = baseline run
    pm::PersistBoundary kind = pm::PersistBoundary::Store;
    std::string detail;
};

struct CrashResult
{
    std::uint64_t boundaries = 0; //!< B of the uninterrupted run
    std::uint64_t pointsRun = 0;
    std::vector<CrashViolation> violations;

    bool ok() const { return violations.empty(); }
};

/** The workload names CrashOptions::workload accepts. */
std::vector<std::string> crashWorkloads();

/**
 * Crash at every persist boundary of the workload and validate.
 * Throws std::invalid_argument on an unknown workload or scheme.
 */
CrashResult enumerateCrashPoints(const CrashOptions &opt);

/** One-object JSON summary of a finished enumeration. */
std::string crashResultJson(const CrashOptions &opt,
                            const CrashResult &r);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_CRASH_HH
