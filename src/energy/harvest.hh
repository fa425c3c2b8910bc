/**
 * @file
 * The race-to-expiry harvest harness: run a persistent workload off
 * a capacitor, power-failing at the boundary the energy runs out at,
 * recharging dark, recovering, and repeating — for thousands of
 * consecutive power cycles — with the crash-enumeration oracle's
 * invariants (atomicity ledger, probe-transaction liveness, exposure
 * hygiene, trace audit) checked at every cycle, not just the first.
 *
 * This is the regime TERP's bounded exposure windows are most
 * stressed by: every recovery re-opens a window per replayed PMO,
 * the sweeper that must close them competes with checkpointing for
 * the same joules, and any state that survives a crash()/recover()
 * pair incorrectly compounds over the run instead of hiding behind
 * a single modeled crash.
 */

#ifndef TERP_ENERGY_HARVEST_HH
#define TERP_ENERGY_HARVEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "energy/capacitor.hh"
#include "semantics/ew_tracker.hh"

namespace terp {
namespace energy {

struct HarvestOptions
{
    std::string scheme = "tt"; //!< one of core::checkedSchemeTags()
    /**
     * The crash enumerator's transactions (check/crash.hh), run
     * across power cycles: "bank", single-PMO undo-log transfers
     * (check::bankTxn), or "txnest", nested TxManager transfers
     * across two PMOs with undo/redo kinds and inner aborts mixed
     * (check::txnestTxn) — power failures land inside commit
     * sequences, including the redo ambiguity window. Either runs
     * beside an unfenced scratch counter the checkpoint watermark
     * protects.
     */
    std::string workload = "bank";
    std::uint64_t seed = 0;
    unsigned powerCycles = 1000; //!< fail/recover cycles to run
    Cycles ewTarget = usToCycles(5);
    CapacitorConfig cap;
    /**
     * Trace-audit stride: audit the timeline every N power cycles
     * (and at the end), resuming one replay, so each audit reads
     * only the events since the last. The ring must hold a stride's
     * events: a wider one reports the trace incomplete. 0 disables
     * the audit.
     */
    unsigned auditEvery = 0;
    /**
     * Trace capacity, in events per emitting thread. 0 sizes the ring
     * to a stride's events: max(auditEvery, 1) power cycles at twice
     * the rate measured for bank and txnest under every scheme (about
     * 0.12 events per capacitor unit per power cycle for each emitting
     * thread), at most 2^20. A capacitor too large for that cap
     * reports the trace incomplete.
     */
    std::size_t traceCapacity = 0;
};

struct HarvestResult
{
    unsigned powerCycles = 0;        //!< completed fail/recover cycles
    std::uint64_t committed = 0;     //!< durable transaction commits
    std::uint64_t interrupted = 0;   //!< transactions killed mid-flight
    std::uint64_t aborted = 0;       //!< txnest voluntary aborts
    std::uint64_t checkpoints = 0;   //!< watermark-triggered flushes
    std::uint64_t sweepsRun = 0;     //!< sweeper ticks that fit the budget
    std::uint64_t sweepsSkipped = 0; //!< ticks gated by the reserve
    std::uint64_t recoveredLogs = 0; //!< per-PMO log replays
    Cycles simCycles = 0;            //!< final machine clock
    Cycles offCycles = 0;            //!< total dark recharge time
    std::uint64_t droppedEvents = 0; //!< trace.dropped_events: ring wrap
    semantics::ExposureMetrics exposure; //!< full-run EW/TEW metrics
    /** Full-run blame totals per cause, across every PMO. */
    Cycles blame[semantics::numBlameCauses] = {};
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

/** Run one harvest configuration to completion. */
HarvestResult runHarvest(const HarvestOptions &opt);

} // namespace energy
} // namespace terp

#endif // TERP_ENERGY_HARVEST_HH
