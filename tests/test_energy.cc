/**
 * @file
 * Energy-harvesting regime tests: the capacitor model, the harvest
 * harness's per-cycle oracle across every protected scheme, and the
 * repeated-cycle crash/recover edges the single-crash enumerator
 * never reaches — TxManager transactions power-failed on every
 * commit boundary of a long-lived world, brown-outs during recovery,
 * double crashes without an intervening recover, and crashes that
 * land on blocked waiters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/circular_buffer.hh"
#include "core/domain.hh"
#include "check/recovery_oracle.hh"
#include "energy/capacitor.hh"
#include "energy/harvest.hh"
#include "metrics/registry.hh"
#include "pm/persist.hh"
#include "pm/tx_manager.hh"
#include "trace/event.hh"

using namespace terp;

namespace {

constexpr std::uint64_t kLogOff = 1ULL << 32;
constexpr std::uint64_t kPmoBytes = 64 * KiB;

check::CrashWorld
makeWorld(const std::string &scheme, unsigned pmos, unsigned threads)
{
    return check::CrashWorld(
        core::configForScheme(scheme, usToCycles(5))->withTrace(1u << 22),
        pmos, threads, kPmoBytes, kLogOff);
}

/** Post-crash recovery plus the full invariants + liveness probe. */
void
recoverAndCheck(check::CrashWorld &w, check::Ledger &led,
                std::uint64_t probeTag)
{
    sim::ThreadContext &tc = w.machine().thread(0);
    w.runtime().recover(tc);
    std::vector<std::string> v;
    check::checkLogsRetired(w, v);
    check::drainIdleWindows(w, "recovery", v);
    check::resolveFlights(w, led, v);
    check::probeTxn(w, led, 0xabc00000 + probeTag, v);
    for (const std::string &m : v)
        ADD_FAILURE() << m;
}

} // namespace

// ------------------------------------------------------- capacitor

TEST(Capacitor, RunwayMatchesDrainToFailure)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 500;
    cfg.harvestPerKcycle = 2;
    cfg.drainPerKcycle = 10;
    cfg.failThresholdUnits = 100;
    energy::Capacitor cap(cfg);

    Cycles runway = cap.runway();
    ASSERT_GT(runway, Cycles(0));
    // The full runway is powered; one more cycle crosses the
    // threshold.
    EXPECT_EQ(cap.drain(runway), runway);
    EXPECT_FALSE(cap.failed());
    EXPECT_EQ(cap.runway(), Cycles(0));
    EXPECT_LT(cap.drain(1), Cycles(2));
    EXPECT_TRUE(cap.failed());
    EXPECT_LE(cap.storedUnits(), cfg.failThresholdUnits);

    Cycles off = cap.rechargeCycles();
    EXPECT_GT(off, Cycles(0));
    cap.recharge();
    EXPECT_FALSE(cap.failed());
    EXPECT_EQ(cap.storedUnits(), cfg.capacityUnits);
}

TEST(Capacitor, PoweredPrefixOnOverdrain)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 200;
    cfg.harvestPerKcycle = 0;
    cfg.harvestPerKcycle = 1;
    cfg.drainPerKcycle = 11;
    cfg.failThresholdUnits = 100;
    energy::Capacitor cap(cfg);
    Cycles runway = cap.runway();
    Cycles powered = cap.drain(runway + 5000);
    EXPECT_TRUE(cap.failed());
    EXPECT_GT(powered, runway);        // partial last step still runs
    EXPECT_LT(powered, runway + 5000); // but not the whole interval
}

TEST(Capacitor, HarvesterKeepingUpNeverFails)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 300;
    cfg.harvestPerKcycle = 10;
    cfg.drainPerKcycle = 10;
    energy::Capacitor cap(cfg);
    EXPECT_EQ(cap.runway(), ~Cycles(0));
    EXPECT_EQ(cap.drain(1000000), Cycles(1000000));
    EXPECT_FALSE(cap.failed());
}

TEST(Capacitor, PolicyThresholds)
{
    energy::CapacitorConfig cfg;
    cfg.capacityUnits = 1000;
    cfg.harvestPerKcycle = 0;
    cfg.harvestPerKcycle = 2;
    cfg.drainPerKcycle = 12;
    cfg.failThresholdUnits = 100;
    cfg.watermarkUnits = 400;
    cfg.sweepReserveUnits = 300;
    energy::Capacitor cap(cfg);
    EXPECT_FALSE(cap.belowWatermark());
    EXPECT_FALSE(cap.belowSweepReserve());
    // Drain to just under the watermark but above the reserve.
    while (!cap.belowWatermark())
        cap.drain(1000);
    EXPECT_TRUE(cap.belowWatermark());
    EXPECT_FALSE(cap.failed());
    while (!cap.belowSweepReserve())
        cap.drain(1000);
    EXPECT_TRUE(cap.belowSweepReserve());
}

// ------------------------------------------------- harvest harness

TEST(Harvest, ThousandCycleOracleEveryScheme)
{
    // The tentpole acceptance run: 1000 consecutive power cycles per
    // scheme with the crash-enumeration invariants (atomicity ledger,
    // probe-transaction liveness, exposure hygiene) checked at every
    // cycle and the full-timeline trace audit at a stride.
    for (const std::string &scheme : core::checkedSchemeTags()) {
        energy::HarvestOptions opt;
        opt.scheme = scheme;
        opt.workload = "bank";
        opt.powerCycles = 1000;
        opt.cap.capacityUnits = 800;
        opt.auditEvery = 200;
        opt.traceCapacity = 1u << 22;
        energy::HarvestResult res = energy::runHarvest(opt);
        EXPECT_EQ(res.powerCycles, 1000u) << scheme;
        EXPECT_GT(res.committed, 0u) << scheme;
        for (const std::string &v : res.violations)
            ADD_FAILURE() << scheme << ": " << v;
    }
}

TEST(Harvest, TxnestOracleUnderPowerFail)
{
    // Nested TxManager transactions across two PMOs with power
    // failures landing inside commit sequences (undo and redo kinds,
    // voluntary aborts mixed in), repeated for hundreds of cycles in
    // one world.
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.workload = "txnest";
    opt.powerCycles = 300;
    opt.cap.capacityUnits = 700;
    opt.auditEvery = 100;
    opt.traceCapacity = 1u << 22;
    energy::HarvestResult res = energy::runHarvest(opt);
    EXPECT_EQ(res.powerCycles, 300u);
    EXPECT_GT(res.committed, 0u);
    EXPECT_GT(res.interrupted, 0u);
    for (const std::string &v : res.violations)
        ADD_FAILURE() << v;
}

/**
 * The audit resumes one replay across strides, so a ring far smaller
 * than the run's trace still audits clean as long as it holds a
 * stride's events: it wraps many times here and loses nothing the
 * replay had not read. A stride wider than the ring holds must be
 * reported incomplete, not audited on what is left.
 */
TEST(Harvest, ResumedAuditReadsAcrossRingWraps)
{
    for (const char *workload : {"bank", "txnest"}) {
        energy::HarvestOptions opt;
        opt.scheme = "tt";
        opt.workload = workload;
        opt.powerCycles = 300;
        opt.cap.capacityUnits = 800;
        opt.auditEvery = 2;
        opt.traceCapacity = 256;
        energy::HarvestResult res = energy::runHarvest(opt);
        EXPECT_EQ(res.powerCycles, 300u) << workload;
        EXPECT_GT(res.droppedEvents, 10 * 3 * opt.traceCapacity)
            << workload;
        for (const std::string &v : res.violations)
            ADD_FAILURE() << workload << ": " << v;

        opt.auditEvery = 100;
        energy::HarvestResult wide = energy::runHarvest(opt);
        EXPECT_TRUE(std::any_of(
            wide.violations.begin(), wide.violations.end(),
            [](const std::string &v) {
                return v.find("trace audit: trace incomplete") !=
                       std::string::npos;
            }))
            << workload;
    }
}

/**
 * A replay that lost events reads no more of them and is reported
 * once: a stride wider than the ring yields the one "trace
 * incomplete" verdict, not the replay noise of a stream with a hole
 * in it, nor the same verdict again at each later stride.
 */
TEST(Harvest, WrappedAuditReportsOnlyIncomplete)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.workload = "bank";
    opt.powerCycles = 300;
    opt.cap.capacityUnits = 800;
    opt.auditEvery = 100;
    opt.traceCapacity = 256;
    energy::HarvestResult res = energy::runHarvest(opt);
    EXPECT_EQ(res.powerCycles, 300u);
    ASSERT_EQ(res.violations.size(), 1u);
    EXPECT_NE(res.violations[0].find("trace audit: trace incomplete"),
              std::string::npos)
        << res.violations[0];
}

TEST(Harvest, Deterministic)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.powerCycles = 50;
    opt.cap.capacityUnits = 600;
    energy::HarvestResult a = energy::runHarvest(opt);
    energy::HarvestResult b = energy::runHarvest(opt);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.simCycles, b.simCycles);
    EXPECT_EQ(a.offCycles, b.offCycles);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.sweepsSkipped, b.sweepsSkipped);
}

TEST(Harvest, CheckpointWatermarkFires)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.powerCycles = 50;
    opt.cap.capacityUnits = 800;
    opt.cap.watermarkUnits = 700; // low-energy region is most of it
    energy::HarvestResult res = energy::runHarvest(opt);
    EXPECT_GT(res.checkpoints, 0u);
    EXPECT_TRUE(res.ok()) << res.violations.front();
}

TEST(Harvest, SweeperBudgetGatesTicks)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.powerCycles = 50;
    opt.cap.capacityUnits = 800;
    opt.cap.sweepReserveUnits = 750; // almost no budget for sweeping
    energy::HarvestResult starved = energy::runHarvest(opt);
    EXPECT_GT(starved.sweepsSkipped, 0u);
    EXPECT_TRUE(starved.ok()) << starved.violations.front();

    opt.cap.sweepReserveUnits = 0; // unlimited budget
    energy::HarvestResult fed = energy::runHarvest(opt);
    EXPECT_EQ(fed.sweepsSkipped, 0u);
    EXPECT_GT(fed.sweepsRun, 0u);
    EXPECT_TRUE(fed.ok()) << fed.violations.front();
}

// ------------------------- repeated-cycle crash/recover edge cases

/**
 * A TxManager transaction power-failed at *every* persist boundary
 * of its begin/write/commit sequence — including every boundary of
 * the commit's durable point — in one long-lived world, recovering
 * and re-checking the full oracle after each. The single-crash
 * enumerator (test_crash) rebuilds a fresh world per crash point;
 * this runs the same sweep against accumulated state.
 */
class TxPowerFail : public ::testing::TestWithParam<pm::TxKind>
{
};

TEST_P(TxPowerFail, MidCommitEveryBoundary)
{
    const pm::TxKind kind = GetParam();
    check::CrashWorld w = makeWorld("tt", 2, 1);
    pm::PersistController &ctl = w.persistence()->controller();
    pm::TxManager &txm = *w.runtime().tx();
    sim::ThreadContext &tc = w.machine().thread(0);
    check::Ledger led;
    const pm::Oid a(1, 0x100), b(2, 0x100);
    std::uint64_t round = 0;

    auto txn = [&]() {
        std::uint64_t va = 0x1000 + round, vb = 0x2000 + round;
        std::vector<std::pair<pm::Oid, std::uint64_t>> writes = {
            {a, va}, {b, vb}};
        check::armFlight(led, 0, kind, writes);
        check::protOpen(w, tc, 1);
        check::protOpen(w, tc, 2);
        ASSERT_TRUE(txm.begin(tc, 0, {1, 2}, kind));
        w.runtime().access(tc, a, /*write=*/true);
        txm.write(tc, 0, a, va);
        w.runtime().access(tc, b, /*write=*/true);
        txm.write(tc, 0, b, vb);
        check::markCommitting(led, 0);
        bool ok = txm.commit(tc, 0);
        check::settleFlight(led, 0, ok);
        check::protClose(w, tc, 2);
        check::protClose(w, tc, 1);
        EXPECT_TRUE(ok);
        w.advanceSweeps(tc.now());
    };

    // Baseline: one uninterrupted transaction counts the boundaries.
    std::uint64_t b0 = ctl.boundaryCount();
    txn();
    if (HasFatalFailure())
        return;
    const std::uint64_t boundaries = ctl.boundaryCount() - b0;
    ASSERT_GT(boundaries, 0u);

    for (std::uint64_t nth = 1; nth <= boundaries; ++nth) {
        ++round;
        ctl.armFault(ctl.boundaryCount() + nth);
        bool failed = false;
        try {
            txn();
        } catch (const pm::PowerFailure &) {
            failed = true;
            w.runtime().crash(w.machine().maxClock());
            recoverAndCheck(w, led, round);
        }
        if (HasFatalFailure())
            return;
        if (!failed) {
            // The boundary landed past this round's transaction
            // (possible when recovery shifted the count); a plan must
            // never be left armed for a later, unrelated operation.
            if (ctl.faultArmed())
                ctl.disarmFault();
        }
        ASSERT_FALSE(ctl.faultArmed()) << "nth=" << nth;
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, TxPowerFail,
                         ::testing::Values(pm::TxKind::Undo,
                                           pm::TxKind::Redo),
                         [](const auto &info) {
                             return std::string(
                                 pm::txKindName(info.param));
                         });

// ------------------------------------------------- the flight rule

namespace {

/**
 * One case of the flight rule, as a literal row: an open
 * transaction's kind, whether its outermost commit had been called,
 * what its two keys read durably, and whether they already held
 * committed values; then what resolveFlights, the one step after a
 * recovery, must do with it: report a violation, and settle it into
 * the committed image as committed or drop it.
 */
struct FlightCase
{
    pm::TxKind kind;
    bool committing;
    const char *durable; //!< "old", "new" or "torn" (first key new)
    bool inImage;
    bool reported;
    bool settled;
};

constexpr pm::TxKind kUndo = pm::TxKind::Undo;
constexpr pm::TxKind kRedo = pm::TxKind::Redo;

const FlightCase flightCases[] = {
    // kind committing durable inImage | reported settled
    {kUndo, false, "old", false, false, false},
    {kUndo, false, "old", true, false, false},
    {kUndo, false, "new", false, true, false},
    {kUndo, false, "new", true, true, false},
    {kUndo, false, "torn", false, true, false},
    {kUndo, false, "torn", true, true, false},
    {kUndo, true, "old", false, false, false},
    {kUndo, true, "old", true, false, false},
    {kUndo, true, "new", false, true, false},
    {kUndo, true, "new", true, true, false},
    {kUndo, true, "torn", false, true, false},
    {kUndo, true, "torn", true, true, false},
    {kRedo, false, "old", false, false, false},
    {kRedo, false, "old", true, false, false},
    {kRedo, false, "new", false, true, false},
    {kRedo, false, "new", true, true, false},
    {kRedo, false, "torn", false, true, false},
    {kRedo, false, "torn", true, true, false},
    {kRedo, true, "old", false, false, false},
    {kRedo, true, "old", true, false, false},
    {kRedo, true, "new", false, false, true},
    {kRedo, true, "new", true, false, true},
    {kRedo, true, "torn", false, true, false},
    {kRedo, true, "torn", true, true, false},
};

class FlightRule : public ::testing::TestWithParam<FlightCase>
{
};

} // namespace

TEST_P(FlightRule, CheckedThenSettled)
{
    const FlightCase &c = GetParam();
    check::CrashWorld w = makeWorld("tt", 1, 1);
    pm::PersistController &ctl = w.persistence()->controller();
    sim::ThreadContext &tc = w.machine().thread(0);
    // Two keys on two lines, so each persists on its own.
    const pm::Oid a(1, 0x100), b(1, 0x140);
    auto persist = [&](pm::Oid oid, std::uint64_t v) {
        ctl.store(oid, v);
        ctl.clwb(tc, oid);
        ctl.sfence(tc);
    };

    check::Ledger led;
    const std::uint64_t oldA = c.inImage ? 0xa0 : 0;
    const std::uint64_t oldB = c.inImage ? 0xb0 : 0;
    if (c.inImage) {
        persist(a, oldA);
        persist(b, oldB);
        led.image = {{a.raw, oldA}, {b.raw, oldB}};
        led.done = 1;
    }
    check::armFlight(led, 0, c.kind, {{a, 0xa1}, {b, 0xb1}});
    if (c.committing)
        check::markCommitting(led, 0);
    if (std::string(c.durable) != "old")
        persist(a, 0xa1);
    if (std::string(c.durable) == "new")
        persist(b, 0xb1);

    std::vector<std::string> v;
    check::resolveFlights(w, led, v);
    EXPECT_EQ(!v.empty(), c.reported)
        << (v.empty() ? std::string("no violation") : v.front());
    const std::map<std::uint64_t, std::uint64_t> settled = {
        {a.raw, 0xa1}, {b.raw, 0xb1}};
    const std::map<std::uint64_t, std::uint64_t> kept =
        c.inImage ? std::map<std::uint64_t, std::uint64_t>{
                        {a.raw, oldA}, {b.raw, oldB}}
                  : std::map<std::uint64_t, std::uint64_t>{};
    EXPECT_EQ(led.image, c.settled ? settled : kept);
    EXPECT_EQ(led.done, (c.inImage ? 1u : 0u) + (c.settled ? 1u : 0u));
    EXPECT_TRUE(led.flights[0].writes.empty()) << "slot left open";
}

INSTANTIATE_TEST_SUITE_P(
    Table, FlightRule, ::testing::ValuesIn(flightCases),
    [](const ::testing::TestParamInfo<FlightCase> &info) {
        const FlightCase &c = info.param;
        return std::string(pm::txKindName(c.kind)) +
               (c.committing ? "_committing_" : "_open_") + c.durable +
               (c.inImage ? "_inImage" : "_fresh");
    });

TEST(RepeatedCycles, DoubleCrashWithoutRecoverIsWellDefined)
{
    // A capacitor brown-out during the off/recovery window means
    // crash() can run again before recover() ever did. Defined
    // behavior: the second crash is a no-op on the already-volatile
    // state (nothing mapped, no open windows, no open transactions),
    // and recovery afterwards behaves exactly as after one crash.
    check::CrashWorld w = makeWorld("tt", 2, 1);
    pm::PersistController &ctl = w.persistence()->controller();
    sim::ThreadContext &tc = w.machine().thread(0);
    check::Ledger led;

    // Leave an undo transaction durably in flight.
    check::runTxn(w, led, tc, 1, {{pm::Oid(1, 0x40), 0x11}});
    ctl.armFault(ctl.boundaryCount() + 6);
    try {
        check::runTxn(w, led, tc, 1, {{pm::Oid(1, 0x40), 0x22},
                                      {pm::Oid(1, 0x80), 0x33}});
        FAIL() << "armed fault never fired";
    } catch (const pm::PowerFailure &) {
    }

    Cycles at = w.machine().maxClock();
    w.runtime().crash(at);
    w.runtime().crash(at);      // brown-out: again, same instant
    w.runtime().crash(at + 64); // and later, still without recovery
    EXPECT_FALSE(w.runtime().mapped(1));
    EXPECT_FALSE(w.runtime().mapped(2));
    EXPECT_FALSE(w.runtime().tx()->anyActive());

    recoverAndCheck(w, led, 0xdc);
}

TEST(RepeatedCycles, BrownOutDuringRecovery)
{
    // Power fails again while recovery is mid-rollback: the partially
    // recovered world crashes and the next recovery attempt must
    // complete the rollback (the undo walk is idempotent).
    check::CrashWorld w = makeWorld("tt", 2, 1);
    pm::PersistController &ctl = w.persistence()->controller();
    sim::ThreadContext &tc = w.machine().thread(0);
    check::Ledger led;

    check::runTxn(w, led, tc, 1, {{pm::Oid(1, 0x40), 0x51}});

    // Walk the fault point forward until the crash lands with the
    // undo header durably published — i.e. recovery has real
    // rollback work to brown-out in the middle of.
    bool pending = false;
    for (std::uint64_t nth = 1; nth <= 64 && !pending; ++nth) {
        ctl.armFault(ctl.boundaryCount() + nth);
            try {
            check::runTxn(w, led, tc, 1,
                          {{pm::Oid(1, 0x40), 0x5200 + nth},
                           {pm::Oid(1, 0x80), 0x5300 + nth}});
            if (ctl.faultArmed())
                ctl.disarmFault();
        } catch (const pm::PowerFailure &) {
            w.runtime().crash(w.machine().maxClock());
            pending = w.persistence()->findLog(1)->recoveryPending();
            if (!pending)
                recoverAndCheck(w, led, 0xb00 + nth);
        }
        if (HasFatalFailure())
            return;
    }
    ASSERT_TRUE(pending);

    // Fail at the first persist boundary inside the recovery pass.
    ctl.armFault(ctl.boundaryCount() + 1);
    bool interrupted = false;
    try {
        w.runtime().recover(tc);
    } catch (const pm::PowerFailure &) {
        interrupted = true;
        w.runtime().crash(w.machine().maxClock());
    }
    EXPECT_TRUE(interrupted);

    recoverAndCheck(w, led, 0xb0);
}

TEST(RepeatedCycles, RecoverMorePendingLogsThanCbEntries)
{
    // A power failure can strand more in-flight transactions than
    // the 32-entry circular buffer holds (one undo log per PMO).
    // Recovery replays them in one burst with no sweep ticks in
    // between, so every replayed PMO is still delayed-resident when
    // the next one attaches; the replay that found the buffer full
    // used to panic ("circular buffer full"). Recovery must instead
    // resolve a delayed-detach victim, exactly as the sweep would.
    const unsigned kPmos = arch::CircularBuffer::capacity + 8;
    check::CrashWorld w = makeWorld("tt", kPmos, 1);
    pm::PersistController &ctl = w.persistence()->controller();
    sim::ThreadContext &tc = w.machine().thread(0);

    for (pm::PmoId p = 1; p <= kPmos; ++p) {
        pm::UndoLog *log = w.persistence()->findLog(p);
        ASSERT_NE(log, nullptr);
        log->begin(tc);
        log->write(tc, pm::Oid(p, 0x40), 0x7000 + p);
    }
    w.runtime().crash(w.machine().maxClock());
    for (pm::PmoId p = 1; p <= kPmos; ++p)
        ASSERT_TRUE(w.persistence()->findLog(p)->recoveryPending()) << p;

    unsigned recovered = 0;
    EXPECT_NO_THROW(recovered = w.runtime().recover(tc));
    EXPECT_EQ(recovered, kPmos);

    std::vector<std::string> v;
    check::checkLogsRetired(w, v);
    check::drainIdleWindows(w, "mass recovery", v);
    for (const std::string &m : v)
        ADD_FAILURE() << m;
    // Every stranded transaction rolled back: the writes never
    // became durable.
    for (pm::PmoId p = 1; p <= kPmos; ++p)
        EXPECT_EQ(ctl.persistedLoad(pm::Oid(p, 0x40)), 0u) << p;
}

TEST(RepeatedCycles, UndoAndRedoPendingOnSamePmo)
{
    // Independent undo and redo transactions against one PMO can
    // both be durably in flight at the same power failure. Recovery
    // walks undo logs first, then redo logs; the undo replay leaves
    // the PMO mapped (its recovery window closes through the normal
    // delayed-detach path), and the redo replay used to re-attach it
    // unconditionally — a double process-open of the same exposure
    // window. The second replay must reuse the already-open window.
    for (const char *scheme : {"tt", "tm"}) {
        SCOPED_TRACE(scheme);
        check::CrashWorld w = makeWorld(scheme, 1, 1);
        pm::PersistController &ctl = w.persistence()->controller();
        sim::ThreadContext &tc = w.machine().thread(0);
        pm::RedoLog &redo = w.persistence()->openRedoLog(1, 1ULL << 33);
        std::uint64_t expect80 = 0;

        // Walk a fault point across the redo commit until the crash
        // lands past its durable point while the (uncommitted) undo
        // transaction is also pending.
        bool both = false;
        std::uint64_t nth = 0;
        while (!both && ++nth <= 64) {
            pm::UndoLog *undo = w.persistence()->findLog(1);
            undo->begin(tc);
            undo->write(tc, pm::Oid(1, 0x40), 0x9100 + nth);
            ctl.armFault(ctl.boundaryCount() + nth);
            bool failed = false;
            try {
                redo.begin(tc);
                redo.write(tc, pm::Oid(1, 0x80), 0x9200 + nth);
                redo.commit(tc);
                expect80 = 0x9200 + nth;
                if (ctl.faultArmed())
                    ctl.disarmFault();
            } catch (const pm::PowerFailure &) {
                failed = true;
            }
            w.runtime().crash(w.machine().maxClock());
            bool undoPending = w.persistence()->findLog(1)->recoveryPending();
            bool redoPending = redo.recoveryPending();
            EXPECT_EQ(undoPending, failed) << "nth=" << nth;
            if (redoPending)
                expect80 = 0x9200 + nth;
            both = undoPending && redoPending;
            if (!both) {
                w.runtime().recover(tc);
                std::vector<std::string> v;
                check::checkLogsRetired(w, v);
                check::drainIdleWindows(w, "the scan cycle", v);
                for (const std::string &m : v)
                    ADD_FAILURE() << m << " (nth=" << nth << ")";
            }
        }
        ASSERT_TRUE(both) << "no boundary left both logs pending";

        EXPECT_NO_THROW(w.runtime().recover(tc));
        // Undo rolled back, redo rolled forward — on one window.
        EXPECT_EQ(ctl.persistedLoad(pm::Oid(1, 0x40)), 0u);
        EXPECT_EQ(ctl.persistedLoad(pm::Oid(1, 0x80)), expect80);
        std::vector<std::string> v;
        check::checkLogsRetired(w, v);
        check::drainIdleWindows(w, "dual-log recovery", v);
        for (const std::string &m : v)
            ADD_FAILURE() << m;
    }
}

TEST(DomainCycles, ShardDomainPowerCyclesRealignSweepCursor)
{
    // Power cycling through the shard-domain layer: crash() drops
    // the volatile stack, recover(resumeAt) replays pending logs and
    // skips the sweep cursor over the outage — the sweep timer is
    // hardware and the hardware was off, so dark-period boundaries
    // must not fire as a catch-up burst at power-on.
    const Cycles ewTarget = usToCycles(5);
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::tt(ewTarget);
    dc.machine.cores = 1;
    dc.persistence = true;
    core::ShardDomain dom(dc);
    pm::Pmo &p = dom.pmos().create("cycled", 64 * KiB);
    dom.machine().spawnThread();
    sim::ThreadContext &tc = dom.machine().thread(0);
    pm::UndoLog &log = dom.persistence()->openLog(p.id(), kLogOff);
    const pm::PersistController &ctl =
        dom.persistence()->controller();
    const Cycles period = dc.machine.hookPeriod;
    const Cycles dark = 400 * period;
    const pm::Oid key(p.id(), 0x40);
    std::uint64_t committed = 0;

    for (std::uint64_t cycle = 1; cycle <= 200; ++cycle) {
        ASSERT_EQ(dom.runtime().regionBegin(tc, p.id(),
                                            pm::Mode::ReadWrite),
                  core::GuardResult::Ok);
        log.begin(tc);
        log.write(tc, key, cycle);
        if (cycle % 2 == 0) {
            log.commit(tc);
            committed = cycle;
            dom.runtime().regionEnd(tc, p.id());
        }
        dom.sweepTo(tc.now());

        // Power fails — mid-transaction on odd cycles.
        const Cycles at = dom.machine().maxClock();
        dom.crash(at);
        EXPECT_FALSE(dom.runtime().mapped(p.id()));

        const Cycles resume = at + dark;
        const unsigned n = dom.recover(tc, resume);
        EXPECT_EQ(n, cycle % 2 == 0 ? 0u : 1u) << cycle;
        // In-flight rolled back, committed kept.
        EXPECT_EQ(ctl.persistedLoad(key), committed) << cycle;
        // The cursor realigned to the first boundary after the
        // outage, not to a dark-period catch-up backlog.
        EXPECT_EQ(dom.nextSweepTick(), (resume / period + 1) * period)
            << cycle;

        // The scheme's normal idle path closes the recovery window.
        dom.sweepTo(resume + ewTarget + 16 * period);
        EXPECT_FALSE(dom.runtime().mapped(p.id())) << cycle;
    }
    dom.finalize();
}

// ------------------------------------------------- one sweep cursor

namespace {

/** A traced one-thread TT domain with persistence. */
core::DomainConfig
cursorDomainConfig()
{
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::tt(usToCycles(5)).withTrace();
    dc.machine.cores = 1;
    dc.persistence = true;
    return dc;
}

/** Boundaries at which the domain's sweep timer actually ran. */
std::vector<Cycles>
firedTicks(const core::ShardDomain &d)
{
    std::vector<Cycles> ts;
    for (const trace::Event &e : d.runtime().traceSink()->events())
        if (e.kind == trace::EventKind::SweepTick)
            ts.push_back(e.ts);
    return ts;
}

} // namespace

TEST(DomainCycles, GatedSweepSkipsExactlyTheRefusedBoundaries)
{
    core::ShardDomain dom(cursorDomainConfig());
    const Cycles period = dom.machine().config().hookPeriod;
    std::vector<Cycles> offered, want;
    dom.sweepTo(10 * period, [&](Cycles b) {
        offered.push_back(b);
        return (b / period) % 3 != 0; // refuse every third boundary
    });
    std::vector<Cycles> grid;
    for (Cycles k = 1; k <= 10; ++k) {
        grid.push_back(k * period);
        if (k % 3 != 0)
            want.push_back(k * period);
    }
    // Every boundary is offered once, in order; refused ones don't
    // run, and the cursor still moves past them.
    EXPECT_EQ(offered, grid);
    EXPECT_EQ(firedTicks(dom), want);
    EXPECT_EQ(dom.nextSweepTick(), 11 * period);

    // A refused boundary is gone, not deferred: an ungated sweep to
    // the same time fires nothing.
    dom.sweepTo(10 * period);
    EXPECT_EQ(firedTicks(dom), want);
}

TEST(DomainCycles, SweepToNextTickFiresExactlyOne)
{
    core::ShardDomain dom(cursorDomainConfig());
    const Cycles period = dom.machine().config().hookPeriod;
    dom.machine().spawnThread(); // its clock stays at 0 throughout
    for (std::size_t i = 1; i <= 5; ++i) {
        const Cycles b = dom.nextSweepTick();
        dom.sweepTo(b);
        const std::vector<Cycles> fired = firedTicks(dom);
        ASSERT_EQ(fired.size(), i);
        EXPECT_EQ(fired.back(), b);
        EXPECT_EQ(dom.nextSweepTick(), b + period);
    }
}

TEST(DomainCycles, RecoverLandsWhereTheHarvestLoopDid)
{
    // recover(tc, resume) must put the cursor where the energy
    // harness's old dark-period loop did — `while (next <= resume)
    // next += period` from the pre-crash cursor — for a resume on
    // the grid, off it, and before the cursor (a zero-length outage
    // that must not re-fire anything).
    const Cycles period = cursorDomainConfig().machine.hookPeriod;
    const Cycles cursorAt = 7 * period; // where sweepTo leaves it
    for (Cycles resume :
         {Cycles(40 * period), Cycles(40 * period + 1),
          Cycles(41 * period - 1), Cycles(6 * period + period / 2),
          Cycles(cursorAt)}) {
        core::ShardDomain dom(cursorDomainConfig());
        sim::ThreadContext &tc = dom.machine().spawnThread();
        dom.sweepTo(cursorAt - 1);
        ASSERT_EQ(dom.nextSweepTick(), cursorAt);
        Cycles want = dom.nextSweepTick();
        while (want <= resume)
            want += period;

        const std::size_t before = firedTicks(dom).size();
        dom.crash(std::min(resume, cursorAt - 1));
        EXPECT_EQ(dom.recover(tc, resume), 0u);
        EXPECT_EQ(dom.nextSweepTick(), want) << resume;
        EXPECT_EQ(firedTicks(dom).size(), before) << resume;
        EXPECT_GE(tc.now(), resume);
    }
}

namespace {

/**
 * sweepTo's contract, one boundary at a time: the gate asked, then a
 * SweepTick and Runtime::onSweep at every boundary it lets through.
 * @p next is the reference's own cursor (it starts at one period).
 */
void
sweepEachBoundary(core::ShardDomain &d, Cycles &next, Cycles t,
                  const core::ShardDomain::SweepGate &gate)
{
    const Cycles period = d.machine().config().hookPeriod;
    for (; next <= t; next += period) {
        if (gate && !gate(next))
            continue;
        if (const auto &sink = d.runtime().traceSink()) {
            sink->emit(trace::TraceSink::sweeperTid,
                       trace::EventKind::SweepTick, next);
        }
        d.runtime().onSweep(next);
    }
}

/**
 * Everything a sweep may touch, as text: the ring's events, every
 * registry entry but host timings (host.sweep_pmo_scans, a count of
 * simulator work, is kept), the thread clocks, the mapped set and the
 * tracker's summaries and blame.
 */
std::string
sweepState(core::ShardDomain &d, unsigned pmos)
{
    std::ostringstream os;
    for (const trace::Event &e : d.runtime().traceSink()->events())
        os << "event " << e.seq << " " << e.ts << " " << e.tid << " "
           << static_cast<unsigned>(e.kind) << " " << e.pmo << " "
           << e.arg << "\n";
    for (const auto &[name, e] : d.runtime().metricsRegistry()->entries()) {
        if (name.rfind("host.", 0) == 0 && name != "host.sweep_pmo_scans")
            continue;
        os << name << " " << metrics::kindName(e.kind) << " "
           << e.counter.value() << " " << e.gauge.value() << " "
           << e.gauge.hwm();
        if (e.hist)
            os << " " << e.hist->count() << " " << e.hist->sum() << " "
               << e.hist->min() << " " << e.hist->max() << " "
               << e.hist->quantile(0.5);
        os << "\n";
    }
    for (unsigned i = 0; i < d.machine().threadCount(); ++i)
        os << "clock " << i << " " << d.machine().thread(i).now() << "\n";
    const semantics::EwTracker &ew = d.runtime().exposure();
    for (pm::PmoId p = 1; p <= pmos; ++p) {
        os << "pmo " << p << " mapped " << d.runtime().mapped(p);
        for (const metrics::Summary *sm :
             {ew.ewSummaryFor(p), ew.tewSummaryFor(p)}) {
            if (sm)
                os << " " << sm->count() << " " << sm->sum() << " "
                   << sm->min() << " " << sm->max();
        }
        for (unsigned c = 0; c < semantics::numBlameCauses; ++c)
            os << " " << ew.blameTotal(p, static_cast<semantics::BlameCause>(c));
        os << "\n";
    }
    return os.str();
}

/**
 * Three PMOs under @p cfg: one closed and left to expire, one held
 * across every sweep (re-randomized at each window target), one
 * opened and closed between sweeps, then reopened and held past the
 * target before one last long sweep. @p sweep(t) sweeps to t.
 */
template <class Sweep>
void
sweepScript(core::ShardDomain &d, const Sweep &sweep)
{
    const Cycles ew = d.runtime().config().ewTarget;
    const Cycles period = d.machine().config().hookPeriod;
    pm::PmoId p[3];
    for (unsigned i = 0; i < 3; ++i)
        p[i] = d.pmos().create("s" + std::to_string(i), 64 * KiB).id();
    sim::ThreadContext &tc = d.machine().spawnThread();
    core::Runtime &rt = d.runtime();
    auto open = [&](pm::PmoId pmo) {
        rt.manualBegin(tc, pmo, pm::Mode::ReadWrite);
        rt.regionBegin(tc, pmo, pm::Mode::ReadWrite);
    };
    auto close = [&](pm::PmoId pmo) {
        rt.regionEnd(tc, pmo);
        rt.manualEnd(tc, pmo);
    };
    open(p[0]);
    tc.work(ew / 2);
    close(p[0]);
    open(p[1]);
    tc.work(period / 3);
    sweep(tc.now() + 3 * ew);
    tc.work(ew);
    open(p[2]);
    tc.work(period / 3);
    close(p[2]);
    sweep(tc.now() + 2 * ew + 7);
    open(p[0]);
    tc.work(3 * ew);
    sweep(tc.now());
    close(p[0]);
    close(p[1]);
    sweep(tc.now() + 4 * ew + period / 2);
}

} // namespace

TEST(DomainCycles, SweepToMatchesOneOnSweepPerBoundary)
{
    std::vector<std::string> tags = core::checkedSchemeTags();
    tags.push_back("unprotected");
    for (const std::string &tag : tags) {
        for (bool gated : {false, true}) {
            SCOPED_TRACE(tag + (gated ? " gated" : ""));
            core::DomainConfig dc;
            dc.runtime =
                core::configForScheme(tag, usToCycles(5)).value().withTrace();
            dc.machine.cores = 1;
            const Cycles period = dc.machine.hookPeriod;
            std::vector<Cycles> asked[2];
            auto gateFor = [&](int side) -> core::ShardDomain::SweepGate {
                if (!gated)
                    return nullptr;
                return [&asked, side, period](Cycles b) {
                    asked[side].push_back(b);
                    return (b / period) % 3 != 0;
                };
            };
            const core::ShardDomain::SweepGate gates[2] = {gateFor(0),
                                                           gateFor(1)};

            core::ShardDomain fast(dc);
            sweepScript(fast, [&](Cycles t) { fast.sweepTo(t, gates[0]); });
            core::ShardDomain ref(dc);
            Cycles next = period;
            sweepScript(ref, [&](Cycles t) {
                sweepEachBoundary(ref, next, t, gates[1]);
            });

            EXPECT_EQ(fast.nextSweepTick(), next);
            EXPECT_EQ(asked[0], asked[1]);
            const std::string want = sweepState(ref, 3);
            EXPECT_EQ(sweepState(fast, 3), want);
            // Windows expire mid-run: the sweeper re-randomizes the
            // held PMO and, where a region's end leaves the PMO mapped
            // (TM, TT), detaches the idle one.
            std::size_t detaches = 0, randomizes = 0;
            for (const trace::Event &e : ref.runtime().traceSink()->events()) {
                detaches += e.kind == trace::EventKind::DelayedDetach;
                randomizes += e.kind == trace::EventKind::Randomize;
            }
            EXPECT_EQ(randomizes > 0, tag != "unprotected");
            EXPECT_EQ(detaches > 0, tag == "tm" || tag == "tt");
        }
    }
}


TEST(RepeatedCycles, CrashWakesBlockedWaiter)
{
    // Basic semantics: thread 1 blocks on thread 0's exclusive
    // attach; the power failure dissolves the process the waiter was
    // waiting on, so the waiter must be woken and its retry must
    // succeed against the post-recovery world.
    check::CrashWorld w = makeWorld("basic", 1, 2);
    sim::ThreadContext &t0 = w.machine().thread(0);
    sim::ThreadContext &t1 = w.machine().thread(1);

    ASSERT_EQ(w.runtime().regionBegin(t0, 1, pm::Mode::ReadWrite),
              core::GuardResult::Ok);
    ASSERT_EQ(w.runtime().regionBegin(t1, 1, pm::Mode::ReadWrite),
              core::GuardResult::Blocked);
    ASSERT_TRUE(t1.blocked());

    w.runtime().crash(w.machine().maxClock());
    EXPECT_FALSE(t1.blocked());
    EXPECT_FALSE(w.runtime().mapped(1));
    w.runtime().recover(t0);

    // Both threads can enter again post-recovery.
    ASSERT_EQ(w.runtime().regionBegin(t1, 1, pm::Mode::ReadWrite),
              core::GuardResult::Ok);
    w.runtime().regionEnd(t1, 1);
    std::vector<std::string> v;
    check::drainIdleWindows(w, "the retried region", v);
    for (const std::string &m : v)
        ADD_FAILURE() << m;
}

TEST(Harvest, DarkPeriodsBlameEnergyNotTheSweeper)
{
    energy::HarvestOptions opt;
    opt.scheme = "tt";
    opt.workload = "bank";
    opt.powerCycles = 12;
    opt.cap.capacityUnits = 600; // tight: gates sweeper ticks
    energy::HarvestResult res = energy::runHarvest(opt);
    ASSERT_TRUE(res.ok()) << res.violations.front();
    ASSERT_GT(res.sweepsSkipped, 0u);

    // Spans the gated-off sweeper could not close are EnergyDark;
    // recovery-reopened windows carry their own cause. Both must
    // show up across 12 power cycles with a starved capacitor.
    using semantics::BlameCause;
    auto total = [&](BlameCause c) {
        return res.blame[static_cast<unsigned>(c)];
    };
    EXPECT_GT(total(BlameCause::EnergyDark), 0u);
    EXPECT_GT(total(BlameCause::RecoveryReopen), 0u);

    // And the tiling invariant holds end-to-end: all causes sum to
    // the tracker's total EW cycles (count * avg, exactly —
    // metricsAll averages per PMO, so recompute from the summaries
    // is not available here; compare against ER * time instead is
    // lossy. The per-window assert already enforces exactness; here
    // just sanity-check blame is the dominant share of exposure).
    Cycles sum = 0;
    for (unsigned c = 0; c < semantics::numBlameCauses; ++c)
        sum += res.blame[c];
    EXPECT_GT(sum, 0u);
}
