/**
 * @file
 * The reusable half of the crash-point machinery: the oracle's
 * context over one simulated process, the committed-image ledger,
 * and the recovery invariants —
 *
 *   - atomicity: the durable image equals the image after exactly
 *     the transactions whose commit completed;
 *   - liveness: a probe transaction commits durably after recovery;
 *   - exposure hygiene: recovery attaches are closed by the scheme's
 *     normal idle path within the window target and no PMO stays
 *     mapped.
 *
 * Three drivers share them: check/crash.cc's crash-point enumerator
 * (one modeled crash per world), the schedule executor in
 * check/differ.cc (every schedule replays on a CrashWorld), and the
 * energy-harvesting harness (src/energy), which re-runs them at
 * every cycle of a thousands-of-power-cycles run.
 */

#ifndef TERP_CHECK_RECOVERY_ORACLE_HH
#define TERP_CHECK_RECOVERY_ORACLE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hh"
#include "core/domain.hh"
#include "trace/audit.hh"

namespace terp {
namespace check {

/**
 * The oracle's context over one simulated process: a
 * core::ShardDomain with persistence, plus the shape the checks need
 * (scheme config, PMO count and size) and the sweep gate the driver
 * models execution under. The domain owns the process and the only
 * sweep cursor.
 */
struct CrashWorld : core::ShardDomain
{
    core::RuntimeConfig cfg;
    unsigned nPmos;
    std::uint64_t pmoBytes;

    /**
     * Gate for the modeled execution's sweeps (advanceSweeps()). The
     * energy harness uses it for sweeper energy budgeting; unset,
     * every tick fires, as the single-crash driver expects.
     * drainIdleWindows() deliberately bypasses it: the drain is the
     * oracle's verification instrument, not part of the modeled
     * execution.
     */
    SweepGate sweepGate;

    /**
     * Create @p pmoCount PMOs of @p pmo_bytes each (named
     * "crash-p<i>"), open an undo log at @p log_off per PMO, and
     * spawn @p threads threads.
     */
    CrashWorld(const core::RuntimeConfig &config, unsigned pmoCount,
               unsigned threads, std::uint64_t pmo_bytes,
               std::uint64_t log_off);

    /**
     * A copy, or an assignment into this world's own storage (see
     * ShardDomain's). A world with a sweep gate is not copied: the
     * gate belongs to its driver, and this world keeps its own.
     */
    CrashWorld(const CrashWorld &o);
    CrashWorld &operator=(const CrashWorld &o);

    /** Fire the free-running sweeper up to time @p t, gated. */
    void advanceSweeps(Cycles t) { sweepTo(t, sweepGate); }
};

/**
 * One open TxManager transaction's expected post-recovery outcome.
 *
 * Undo transactions must recover to all-old at every crash point:
 * recovery rolls the logged old values back. Redo transactions are
 * *ambiguous* while their outermost commit is the next thing the
 * workload does: the durable commit record is written mid-commit, so
 * a crash inside commit recovers to all-old (record not yet durable)
 * or all-new (record durable, recovery rolls forward) — but never a
 * mix. An aborted transaction of either kind never reaches its
 * durable point, so it pins `ambiguous` false (all-old only).
 */
struct TxFlight
{
    bool ambiguous = false;
    std::vector<std::uint64_t> keys;              //!< raw Oids
    std::map<std::uint64_t, std::uint64_t> newv;  //!< raw -> new val
};

/**
 * The recovery oracle's committed-image ledger: what the durable
 * image must look like after the transactions whose commit returned,
 * plus the write-set of the (at most one per thread) in-flight
 * transaction. Commit durability coincides with commit() returning:
 * the last persist boundary inside commit is the fence that makes
 * the header update durable, so a crash can never land after the
 * transaction is durable but before the host-side ledger update.
 */
struct Ledger
{
    std::map<std::uint64_t, std::uint64_t> image; //!< raw Oid -> val
    std::vector<std::uint64_t> inFlight;          //!< current txn keys
    std::map<unsigned, TxFlight> flight;          //!< per-tid TxManager txn
    unsigned done = 0;                            //!< commits returned
};

/**
 * One transaction: scheme-appropriate protection bookends around
 * begin / write* / commit. Explicit bookends only — a PowerFailure
 * unwinding through a RegionGuard destructor would lower a region
 * end on a dead machine.
 */
void runTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
            pm::PmoId pmo,
            const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes);

/**
 * The atomicity oracle: every committed transaction's effects are
 * durable, and the in-flight one (if any) left no partial effects —
 * the durable image is exactly the image after `led.done` commits.
 */
void checkDurable(CrashWorld &w, const Ledger &led,
                  std::vector<std::string> &out);

/** Register tid's open transaction with the atomicity oracle. */
void armFlight(Ledger &led, unsigned tid, bool ambiguous,
               const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes);

/** Commit returned: settle tid's flight into the committed image. */
void settleFlight(Ledger &led, unsigned tid, bool committed);

/**
 * After a recovery, for a driver that keeps its ledger across power
 * cycles: settle every flight a power failure left open. A flight
 * whose keys all read their new value in the durable image landed
 * past its durable point and joins the committed image; any other
 * is dropped, so checkDurable() then holds its keys to their old
 * values. Also forgets runTxn's in-flight keys.
 */
void resolveFlights(CrashWorld &w, Ledger &led);

/** Scheme-appropriate protection bookends for TxManager workloads. */
void protOpen(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo);
void protClose(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo);

/**
 * Exposure hygiene: drive the idle sweeper a full window target
 * (plus delayed-detach grace) past every thread clock and report any
 * PMO still mapped. @p when labels the violation message.
 */
void drainIdleWindows(CrashWorld &w, const char *when,
                      std::vector<std::string> &out);

/**
 * Recovery must leave no durable in-flight undo record or
 * committed-but-unapplied redo record behind.
 */
void checkLogsRetired(CrashWorld &w, std::vector<std::string> &out);

/**
 * Liveness: the recovered image must accept a new transaction. Syncs
 * thread 0 past the fired hooks, writes @p value to PMO 1's last
 * word in one transaction, re-checks atomicity, and drains the
 * probe's own window.
 */
void probeTxn(CrashWorld &w, Ledger &led, std::uint64_t value,
              std::vector<std::string> &out);

/**
 * Post-recovery liveness + exposure-hygiene checks: drain, the probe
 * transaction, then close the exposure windows and audit the trace,
 * resuming from @p prefix, a replay of the world's trace up to some
 * point (auditTimelineFrom, into @p audit when set, so a caller that
 * keeps one reuses its storage). Nothing is published into the registry:
 * the world's run ends here, and the audit reads only the tracker
 * and its exposure histograms. Single-crash drivers call this once at
 * the end of a run; multi-cycle drivers compose the pieces above
 * instead (finalize/audit only once per world).
 */
void probeAndDrain(CrashWorld &w, Ledger &led,
                   std::vector<std::string> &out,
                   const trace::TimelineReplay &prefix,
                   trace::TimelineReplay *audit = nullptr);

/**
 * Recompute the world's exposure windows up to @p tEnd from its trace
 * and report every disagreement with the EwTracker as "trace audit:
 * ..." (a no-op when tracing is off).
 */
void auditTrace(CrashWorld &w, Cycles tEnd,
                std::vector<std::string> &out);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_RECOVERY_ORACLE_HH
