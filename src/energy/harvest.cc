#include "energy/harvest.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "check/crash.hh"
#include "check/recovery_oracle.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/registry.hh"
#include "pm/tx_manager.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace energy {

namespace {

constexpr std::uint64_t pmoBytes = 64 * KiB;
/** Violations collected before the rest are suppressed. */
constexpr std::size_t maxViolations = 8;

/** @p o's ring, in events per emitting thread (HarvestOptions). */
std::size_t
ringCapacity(const HarvestOptions &o)
{
    if (o.traceCapacity)
        return o.traceCapacity;
    const std::uint64_t perCycle = o.cap.capacityUnits / 4 + 256;
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        std::max(o.auditEvery, 1u) * perCycle, 1u << 20));
}

/**
 * One harvest run. Owns the world, the capacitor, and the oracle
 * ledger for the whole multi-cycle lifetime — unlike the crash-point
 * enumerator, nothing here is rebuilt between crashes, which is the
 * point: state that survives a crash()/recover() pair incorrectly
 * compounds instead of hiding behind a fresh world.
 */
struct Harness
{
    const HarvestOptions &opt;
    HarvestResult res;
    check::CrashWorld w;
    Capacitor cap;
    check::Ledger led;
    /** The world's trace, replayed up to the last audit. */
    trace::TimelineReplay audited;
    Rng rng;
    bool txnest;

    /** Machine time already charged to the capacitor. */
    Cycles energyClock = 0;
    /** Last completed transaction's cost, for race-to-expiry arming. */
    Cycles estCycles = 0;
    std::uint64_t estBoundaries = 0;

    bool inited = false;
    std::uint64_t attempts = 0; //!< txn attempts; the scratch value
    std::uint64_t lastDurableScratch = 0;
    bool scratchPending = false;
    const pm::Oid scratchOid{1, 0x600};

    std::shared_ptr<metrics::Registry> reg;
    metrics::Counter *cPowerCycles = nullptr;
    metrics::Counter *cCheckpoints = nullptr;
    metrics::Counter *cInterrupted = nullptr;
    metrics::Gauge *gStored = nullptr;
    metrics::LogHistogram *hOff = nullptr;
    metrics::LogHistogram *hRecoveryEw = nullptr;

    explicit Harness(const HarvestOptions &o)
        : opt(o),
          w(core::configForScheme(o.scheme, o.ewTarget)
                .value()
                .withTrace(ringCapacity(o)),
            o.workload == "txnest" ? 2u : 1u, /*threads=*/1u, pmoBytes,
            pm::TxManager::undoLogOff),
          cap(o.cap), rng(0x9e3779b97f4a7c15ULL ^ o.seed),
          txnest(o.workload == "txnest")
    {
        TERP_ASSERT(o.workload == "bank" || txnest,
                    "harvest: unknown workload ", o.workload);
        // Sweeper energy budgeting: a tick the backup reserve cannot
        // afford is skipped — the hook grid advances, windows stay
        // open, and the exposure cost shows up in the EW metrics.
        // Blame attribution rides the gate: while ticks are being
        // skipped for energy the sweeper *couldn't* act, so idle
        // exposure is EnergyDark, not SweeperLag. setEnergyDark
        // dedupes repeated states, so toggling per tick is free.
        w.sweepGate = [this](Cycles t) {
            if (cap.belowSweepReserve()) {
                ++res.sweepsSkipped;
                w.runtime().exposureMut().setEnergyDark(true, t);
                return false;
            }
            ++res.sweepsRun;
            w.runtime().exposureMut().setEnergyDark(false, t);
            return true;
        };
        reg = w.runtime().metricsRegistry();
        if (reg) {
            cPowerCycles = &reg->counter("energy.power_cycles");
            cCheckpoints = &reg->counter("energy.checkpoints");
            cInterrupted = &reg->counter("energy.txns_interrupted");
            gStored = &reg->gauge("energy.stored_units");
            hOff = &reg->histogram("energy.off_cycles");
            hRecoveryEw =
                &reg->histogram("energy.recovery_ew_cycles");
        }
    }

    /** Charge the capacitor for machine time not yet accounted. */
    void
    settleEnergy()
    {
        Cycles now = w.machine().maxClock();
        if (now > energyClock) {
            cap.drain(now - energyClock);
            energyClock = now;
        }
    }

    void
    addViolation(const std::string &msg)
    {
        if (res.violations.size() < maxViolations) {
            std::ostringstream os;
            os << "cycle " << res.powerCycles << ": " << msg;
            res.violations.push_back(os.str());
        } else if (res.violations.size() == maxViolations) {
            res.violations.push_back("... further violations "
                                     "suppressed");
        }
    }

    /**
     * One transaction under the energy regime: checkpoint below the
     * watermark, arm the race-to-expiry fault when the runway no
     * longer covers a transaction, run it, and charge the capacitor.
     * Returns false when the power failed mid-transaction.
     */
    bool
    runOneTxn(sim::ThreadContext &tc)
    {
        pm::PersistController &ctl = w.persistence()->controller();

        bool armed = false;
        try {
            // Checkpoint policy: below the watermark, fence pending
            // write-backs (the unfenced scratch update) while the
            // energy still covers the flush.
            if (scratchPending && cap.belowWatermark()) {
                ctl.sfence(tc);
                scratchPending = false;
                ++res.checkpoints;
                if (cCheckpoints)
                    cCheckpoints->inc();
            }

            // Race to expiry: when the runway no longer covers a
            // transaction (cost estimated from the last completed
            // one), the power will fail mid-transaction — plant the
            // modeled failure at the boundary the energy runs out
            // at, scaled by the boundary density of a transaction.
            if (estCycles > 0 && estBoundaries > 0) {
                Cycles runway = cap.runway();
                if (runway < estCycles) {
                    std::uint64_t frac =
                        (estBoundaries * runway) / estCycles;
                    std::uint64_t off =
                        std::min(frac, estBoundaries - 1);
                    ctl.armFault(ctl.boundaryCount() + 1 + off);
                    armed = true;
                }
            }

            Cycles c0 = w.machine().maxClock();
            std::uint64_t b0 = ctl.boundaryCount();
            ++attempts;
            bool committed = true;
            if (txnest)
                committed = check::txnestTxn(w, led, tc, rng, !inited);
            else
                check::bankTxn(w, led, tc, rng, !inited);
            if (committed) {
                inited = true;
                ++res.committed;
            } else {
                ++res.aborted;
            }
            // Unfenced scratch update: store + clwb but no fence —
            // durable at the next fence, wherever that lands. The
            // checkpoint watermark exists to bound how much of this
            // a power failure can lose.
            ctl.persistentStore(tc, scratchOid, attempts);
            scratchPending = true;

            settleEnergy();
            estCycles = w.machine().maxClock() - c0;
            estBoundaries = ctl.boundaryCount() - b0;
        } catch (const pm::PowerFailure &) {
            ++res.interrupted;
            if (cInterrupted)
                cInterrupted->inc();
            settleEnergy();
            return false;
        }
        if (armed) {
            // The estimate overshot — the transaction fit after all.
            // A stale plan must never survive into the crash or the
            // recovery path.
            ctl.disarmFault();
        }
        return true;
    }

    /**
     * The unfenced scratch counter may lose its tail to a power
     * failure, but its durable value can never regress (writes only
     * increase it and no log ever rolls it back) nor run ahead of
     * the attempts that wrote it.
     */
    void
    checkScratch(std::vector<std::string> &v)
    {
        std::uint64_t cur =
            w.persistence()->controller().persistedLoad(scratchOid);
        if (cur < lastDurableScratch) {
            std::ostringstream os;
            os << "scratch: durable counter regressed "
               << lastDurableScratch << " -> " << cur;
            v.push_back(os.str());
        }
        if (cur > attempts) {
            std::ostringstream os;
            os << "scratch: durable counter " << cur
               << " ahead of " << attempts << " attempts";
            v.push_back(os.str());
        }
        lastDurableScratch = cur;
    }

    /**
     * The power-fail / recharge / recover sequence, plus the
     * per-cycle oracle. Verification work (the idle drain, the probe
     * transaction, the audit) is the oracle's instrument, not
     * modeled execution: its cycles are excluded from the energy
     * account by re-anchoring the energy clock afterwards.
     */
    void
    powerFail()
    {
        pm::PersistController &ctl = w.persistence()->controller();
        // A fault plan armed for the execution that just died must
        // not fire inside recovery.
        if (ctl.faultArmed())
            ctl.disarmFault();

        Cycles at = w.machine().maxClock();
        for (unsigned i = 0; i < w.machine().threadCount(); ++i) {
            sim::ThreadContext &t = w.machine().thread(i);
            if (!t.done && !t.blocked() && t.now() < at)
                t.syncTo(at, sim::Charge::Other);
        }
        auto sink = w.runtime().traceSink();
        if (sink) {
            sink->emit(trace::TraceSink::kernelTid,
                       trace::EventKind::PowerFail, at, trace::noPmo,
                       cap.storedUnits());
        }
        w.crash(at);
        if (gStored)
            gStored->set(static_cast<double>(cap.storedUnits()));

        Cycles off = cap.rechargeCycles();
        cap.recharge();
        Cycles resume = at + off;
        res.offCycles += off;
        if (hOff)
            hOff->record(off);
        if (sink) {
            sink->emit(trace::TraceSink::kernelTid,
                       trace::EventKind::Recharge, resume,
                       trace::noPmo, off);
        }

        energyClock = resume;
        // The capacitor is recharged: recovery-reopened windows are
        // the sweeper's to close again, not energy-dark. All windows
        // are closed here, so the flush inside is a no-op.
        w.runtime().exposureMut().setEnergyDark(false, resume);
        // The machine was dark: recover() moves the sweep cursor past
        // the gap without firing, then replays the logs at resume.
        unsigned n = w.recover(w.machine().thread(0), resume);
        res.recoveredLogs += n;
        settleEnergy(); // recovery dips into the fresh charge

        std::vector<std::string> v;
        check::drainIdleWindows(w, "recovery", v);
        if (hRecoveryEw) {
            // Recovery-reopened exposure: attach at resume, closed by
            // the idle drain — one sample per replayed PMO.
            Cycles closed = w.machine().maxClock();
            for (unsigned i = 0; i < n; ++i)
                hRecoveryEw->record(closed - resume);
        }
        check::checkLogsRetired(w, v);
        check::resolveFlights(w, led, v);
        if (txnest)
            check::checkTxnestInvariant(w, v);
        else
            check::checkBankInvariant(w, v);
        checkScratch(v);
        check::probeTxn(w, led, 0x900d0000ULL + res.powerCycles, v);
        ++res.powerCycles;
        if (cPowerCycles)
            cPowerCycles->inc();
        if (opt.auditEvery && res.powerCycles % opt.auditEvery == 0 &&
            audited.complete())
            check::auditTrace(w, w.machine().maxClock(), audited, v);
        for (const std::string &m : v)
            addViolation(m);
        // Verification cycles are free.
        energyClock = w.machine().maxClock();
    }

    HarvestResult
    run()
    {
        sim::ThreadContext &tc = w.machine().thread(0);
        while (res.powerCycles < opt.powerCycles &&
               res.violations.size() <= maxViolations) {
            if (cap.failed() || cap.runway() == 0) {
                powerFail();
                continue;
            }
            if (!runOneTxn(tc)) {
                powerFail();
                continue;
            }
            if (cap.failed())
                powerFail();
        }

        w.runtime().finalize();
        // An incomplete replay stays so: it was reported once.
        if (opt.auditEvery && audited.complete()) {
            std::vector<std::string> v;
            check::auditTrace(w, w.machine().maxClock(), audited, v);
            for (const std::string &m : v)
                addViolation(m);
        }
        res.simCycles = w.machine().maxClock();
        if (const metrics::Counter *c =
                reg ? reg->findCounter("trace.dropped_events") : nullptr)
            res.droppedEvents = c->value();
        res.exposure = w.runtime().exposure().metricsAll(
            res.simCycles, w.machine().threadCount());
        for (unsigned c = 0; c < semantics::numBlameCauses; ++c)
            res.blame[c] = w.runtime().exposure().blameTotalAll(
                static_cast<semantics::BlameCause>(c));
        if (gStored)
            gStored->set(static_cast<double>(cap.storedUnits()));
        return std::move(res);
    }
};

} // namespace

HarvestResult
runHarvest(const HarvestOptions &opt)
{
    Harness h(opt);
    return h.run();
}

} // namespace energy
} // namespace terp
