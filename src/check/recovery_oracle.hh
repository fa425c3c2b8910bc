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
#include "pm/tx_manager.hh"
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
 * One open transaction as the atomicity oracle sees it: its kind,
 * its write-set, and whether its outermost commit() has been called
 * (`committing`, set on the host side just before that call, never
 * for an aborted transaction). What a crash may leave of it is
 * decided in one place, mayLandNew() in recovery_oracle.cc: all-old
 * always; all-new only for a committing redo transaction, whose
 * commit record becomes durable mid-commit, so recovery may roll it
 * forward; never a mix. An undo transaction must recover all-old:
 * the fence that makes its header clear durable is the last boundary
 * of commit(), and a crash lands before the boundary it fires at.
 */
struct TxFlight
{
    pm::TxKind kind = pm::TxKind::Undo;
    bool committing = false;
    /** (key, new value), one per key; empty when none is open. */
    std::vector<std::pair<pm::Oid, std::uint64_t>> writes;
};

/**
 * The recovery oracle's committed-image ledger: what the durable
 * image must look like after the transactions that settled as
 * committed, plus one flight slot per thread for its open
 * transaction. A slot is assigned in place, so a ledger assigned
 * into another reuses its storage.
 */
struct Ledger
{
    std::map<std::uint64_t, std::uint64_t> image; //!< raw Oid -> val
    std::vector<TxFlight> flights;                //!< by tid
    unsigned done = 0;                            //!< commits settled
};

/** Open tid's flight: a @p kind transaction writing @p writes. */
void armFlight(Ledger &led, unsigned tid, pm::TxKind kind,
               const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes);

/** tid's outermost commit() is the next thing it calls. */
void markCommitting(Ledger &led, unsigned tid);

/**
 * tid's commit() returned: a @p committed flight joins the committed
 * image, and the slot closes either way.
 */
void settleFlight(Ledger &led, unsigned tid, bool committed);

/**
 * One undo-log transaction on @p pmo, in tc's flight slot:
 * scheme-appropriate protection bookends around begin / write* /
 * commit. Explicit bookends only — a PowerFailure unwinding through
 * a RegionGuard destructor would lower a region end on a dead
 * machine.
 */
void runTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
            pm::PmoId pmo,
            const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes);

/**
 * The one settle step after a recovery, atomicity check first: the
 * durable image must hold every committed value, except where an
 * open flight writes, and each open flight must have landed whole as
 * its rule allows. Then each flight settles: one that landed all-new
 * joins the committed image, and every slot closes.
 */
void resolveFlights(CrashWorld &w, Ledger &led,
                    std::vector<std::string> &out);

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
 * Catch @p audited, a replay of the world's trace, up to the trace's
 * end, audit it with every window closed at @p tEnd and report every
 * disagreement with the EwTracker as "trace audit: ..." (a no-op when
 * tracing is off). A caller that audits the same
 * world again keeps @p audited, so each audit reads only the events
 * emitted since the last.
 */
void auditTrace(CrashWorld &w, Cycles tEnd, trace::TimelineReplay &audited,
                std::vector<std::string> &out);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_RECOVERY_ORACLE_HH
