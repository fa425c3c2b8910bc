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
 * The B crash worlds are independent, so they run on every CPU the
 * process may use (common/parallel.hh); each writes its verdict into
 * its own slot, and the slots are recorded in point order. The
 * violations therefore ascend by point whatever the worker count, and
 * the first one reported is the earliest failing crash point (the
 * shrunken reproducer).
 */

#ifndef TERP_CHECK_CRASH_HH
#define TERP_CHECK_CRASH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/recovery_oracle.hh"
#include "common/units.hh"
#include "pm/persist.hh"

namespace terp {

class Rng;

namespace check {

struct CrashOptions
{
    std::string scheme = "mm"; //!< one of core::checkedSchemeTags()
    /**
     * bank:     single-PMO transfer ledger with a sum invariant
     *           (bankTxn: one init, then `txns` transfers);
     * hashmap:  WHISPER-style chained-bucket inserts (record fields
     *           plus the bucket-head pointer in one transaction);
     * txnest:   nested TxManager transactions transferring across
     *           two PMOs under one flattened lock set, mixed
     *           undo/redo kinds, ~20% inner aborts (txnestTxn:
     *           `txns` transactions, the first the init);
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

// ------------------------------------------------------------------
// The bank and txnest transactions, one step each. The enumerator
// loops over them; the energy-harvesting harness (src/energy) runs
// them across power cycles. Both write the sequence word (PMO 1,
// offset 0x800) as its current value + 1, so no two committed images
// are ever equal — the atomicity oracle stays sharp even for a
// transfer of an amount that round-trips. A caller owns the Rng, so
// each driver keeps its own random stream.

/**
 * One bank transaction on PMO 1 through the undo log: with @p init,
 * 8 accounts set to 1000 and the sequence word to 1; else a transfer
 * of 1..200 between two distinct random accounts.
 */
void bankTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
             Rng &rng, bool init);

/** bank's invariant on the recovered durable image: the sum is kept. */
void checkBankInvariant(CrashWorld &w, std::vector<std::string> &out);

/**
 * One txnest transaction (thread 0's TxManager slot): a nested
 * transfer between two accounts that live in *different* PMOs — one
 * flattened transaction under two ordered locks, with the anchor
 * PMO's log recording the cross-PMO write-set. The outer level
 * debits, a nested level credits and bumps the sequence word. Past
 * @p init (both accounts set to 1000), transactions alternate seeded
 * between the undo and redo variants, so crash points land in both
 * protocols' commit sequences (including the redo ambiguity window),
 * and ~20% abort at the inner level, poisoning the outer commit,
 * which must then leave no trace. The oracle flight stays armed if a
 * power failure unwinds the transaction (resolveFlights settles it).
 * Returns whether the outermost commit committed.
 */
bool txnestTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
               Rng &rng, bool init);

/** txnest's invariant: the cross-PMO balance sum is conserved. */
void checkTxnestInvariant(CrashWorld &w, std::vector<std::string> &out);

/** The workload names CrashOptions::workload accepts. */
std::vector<std::string> crashWorkloads();

/**
 * Crash at every persist boundary of the workload and validate.
 * Throws std::invalid_argument on an unknown workload or scheme. An
 * exception that escapes a crash point is rethrown for the lowest
 * such point, after every point has run.
 */
CrashResult enumerateCrashPoints(const CrashOptions &opt);

/** One-object JSON summary of a finished enumeration. */
std::string crashResultJson(const CrashOptions &opt,
                            const CrashResult &r);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_CRASH_HH
