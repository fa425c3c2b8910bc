/**
 * @file
 * Crash-point enumeration: fault-injection + recovery validation for
 * the persistence substrate (the crash-consistency property the PMO
 * abstraction promises, Section II).
 *
 * A baseline run of a workload counts its persist-boundary events
 * (B = every store / clwb / sfence / log-header update). The driver
 * then crashes before boundary n for every n in 1..B — covering every
 * distinguishable crash window exactly once — without running the
 * workload again per point: a driver world runs the workload once,
 * and its controller's fault plan taps each boundary n, where the
 * world is copied (assigned into the driver's one scratch world) and
 * the copy crashes while the driver carries on.
 * After each modeled power failure the copy performs Runtime::crash +
 * Runtime::recover and asserts the recovery oracle:
 *
 *   - atomicity: the durable image equals the image after exactly
 *     the transactions whose commit completed (each transaction is
 *     all-or-nothing; an in-flight one is rolled back fully);
 *   - liveness: a probe transaction commits durably after recovery;
 *   - exposure hygiene: recovery attaches are closed by the scheme's
 *     normal idle path (the sweeper) within the window target, no
 *     PMO stays mapped, and the trace audit balances.
 *
 * The copy holds what a world replayed to boundary n and crashed
 * there holds: nothing unwinds between the crash and the recovery
 * (no destructor or handler on the workload's stack touches the
 * world), so an unwound stack and a tapped one leave the same state.
 *
 * The work runs on every CPU the process may use
 * (common/parallel.hh): each CPU runs a driver world, and the first
 * driver to reach a point claims it. Each point writes its verdict
 * into its own slot, and the slots are recorded in point order. The violations
 * therefore ascend by point whatever the worker count, and the first
 * one reported is the earliest failing crash point (the shrunken
 * reproducer).
 */

#ifndef TERP_CHECK_CRASH_HH
#define TERP_CHECK_CRASH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/recovery_oracle.hh"
#include "check/schedule.hh"
#include "common/units.hh"
#include "pm/persist.hh"
#include "pm/pmo_manager.hh"

namespace terp {

class Rng;

namespace check {

/** hashmap's record heap: insert t's 64-byte record is at + 64 t. */
constexpr std::uint64_t hashmapHeapOff = 8192;

/**
 * Most transactions a run takes (CrashOptions::txns): hashmap's PMO
 * for that many inserts is the largest the PMO manager maps, a
 * quarter of its arena.
 */
constexpr unsigned maxCrashTxns = static_cast<unsigned>(
    (pm::PmoManager::arenaSize / 4 - hashmapHeapOff) / 64);

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

struct CrashWorkload;

/**
 * One enumeration cell: a crash workload under one checked scheme,
 * with, for the schedule workload, the schedule generated for the
 * seed. Every world of a cell starts alike and runs the same work.
 */
class CrashCell
{
  public:
    /** Throws std::invalid_argument on an unknown workload or scheme. */
    explicit CrashCell(const CrashOptions &opt);

    const CrashOptions &options() const { return opt; }
    const Schedule &schedule() const { return sched; }

    /** A fresh world of the workload's shape at the cell's config. */
    CrashWorld world() const;

    /**
     * Run the workload on @p w from its start, entering its
     * transactions in @p led; the schedule executor's complaints go
     * to @p replay.
     */
    void run(CrashWorld &w, Ledger &led,
             std::vector<std::string> &replay) const;

    /** Atomicity and the workload's invariant on @p w's durable image. */
    void checkImage(CrashWorld &w, const Ledger &led,
                    std::vector<std::string> &out) const;

    /**
     * The crash path of a world whose controller has just crashed:
     * Runtime::crash at the latest thread clock, recovery on thread
     * 0, checkImage, then liveness and exposure hygiene
     * (probeAndDrain, its trace audit resumed from @p prefix into
     * @p audit when set). An exception on the way is reported as
     * "recovery died: ...".
     */
    void recoverAndCheck(CrashWorld &w, Ledger &led,
                         std::vector<std::string> &out,
                         const trace::TimelineReplay &prefix = {},
                         trace::TimelineReplay *audit = nullptr) const;

  private:
    CrashOptions opt;
    const CrashWorkload *wl;
    core::RuntimeConfig cfg;
    Schedule sched;
};

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
