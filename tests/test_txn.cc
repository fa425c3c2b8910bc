/**
 * @file
 * Tests for the transactional PM API (pm::TxManager): PMDK-style
 * nesting (flattening, abort poisoning, outermost-only durable
 * points), per-PMO locking with deadlock-free non-blocking
 * acquisition, the redo-log variant (read-your-writes, roll-forward
 * recovery), crash-point sweeps over nested and two-thread
 * transactional workloads, recovery racing a still-armed fault plan,
 * and the differential fuzzer's transaction schedules.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/crash.hh"
#include "check/fuzzer.hh"
#include "core/runtime.hh"
#include "pm/persist.hh"
#include "pm/pmo_manager.hh"
#include "pm/tx_manager.hh"
#include "sim/machine.hh"

using namespace terp;

namespace {

constexpr Cycles ewTarget = 5 * cyclesPerUs;

struct Fixture
{
    sim::Machine mach;
    pm::PmoManager pmos;
    core::RuntimeConfig cfg;
    pm::PersistDomain dom;
    std::unique_ptr<core::Runtime> rt;

    explicit Fixture(const std::string &scheme = "tm")
        : cfg(core::configForScheme(scheme, ewTarget)->withTrace())
    {
        pmos.create("txn-a", 64 * KiB);
        pmos.create("txn-b", 64 * KiB);
        rt = std::make_unique<core::Runtime>(mach, pmos, cfg);
        rt->attachPersistence(&dom);
        mach.spawnThread();
        mach.spawnThread();
    }

    pm::TxManager &txm() { return *rt->tx(); }
    const pm::PersistController &ctl() { return dom.controller(); }
};

const pm::Oid A(1, 0x100);
const pm::Oid B(1, 0x180);
const pm::Oid C(2, 0x100); // second PMO

} // namespace

// ---------------------------------------------------------- nesting

TEST(TxNesting, OnlyOutermostCommitIsDurable)
{
    Fixture f;
    sim::ThreadContext &tc = f.mach.thread(0);
    pm::TxManager &tx = f.txm();

    ASSERT_TRUE(tx.begin(tc, 0, {1}));
    EXPECT_EQ(tx.depth(0), 1u);
    EXPECT_TRUE(tx.write(tc, 0, A, 11));
    ASSERT_TRUE(tx.begin(tc, 0, {1})); // nested level
    EXPECT_EQ(tx.depth(0), 2u);
    EXPECT_TRUE(tx.write(tc, 0, B, 22));

    EXPECT_TRUE(tx.commit(tc, 0)); // inner: unwind only
    EXPECT_EQ(tx.depth(0), 1u);
    EXPECT_EQ(f.ctl().persistedLoad(A), 0u)
        << "inner commit must not be a durable point";
    EXPECT_EQ(tx.durableCommits(), 0u);

    EXPECT_TRUE(tx.commit(tc, 0)); // outermost: durable
    EXPECT_EQ(tx.status(0), pm::TxStatus::None);
    EXPECT_EQ(tx.lockOwner(1), -1);
    EXPECT_EQ(f.ctl().persistedLoad(A), 11u);
    EXPECT_EQ(f.ctl().persistedLoad(B), 22u);
    EXPECT_EQ(tx.durableCommits(), 1u);
    EXPECT_EQ(tx.nestedBegins(), 1u);
}

TEST(TxNesting, InnerAbortPoisonsTheWholeTransaction)
{
    Fixture f;
    sim::ThreadContext &tc = f.mach.thread(0);
    pm::TxManager &tx = f.txm();

    ASSERT_TRUE(tx.begin(tc, 0, {1}));
    ASSERT_TRUE(tx.write(tc, 0, A, 10));
    ASSERT_TRUE(tx.commit(tc, 0)); // A = 10 committed

    ASSERT_TRUE(tx.begin(tc, 0, {1}));
    EXPECT_TRUE(tx.write(tc, 0, A, 99));
    ASSERT_TRUE(tx.begin(tc, 0, {1}));
    tx.abort(tc, 0); // inner abort: immediate full rollback
    EXPECT_EQ(tx.status(0), pm::TxStatus::Aborted);
    EXPECT_EQ(f.ctl().load(A), 10u)
        << "undo abort restores the pre-transaction value";

    EXPECT_FALSE(tx.write(tc, 0, A, 77)) << "poisoned: writes no-op";
    EXPECT_FALSE(tx.begin(tc, 0, {1}))
        << "PMDK: TX_BEGIN after abort does not run its body";
    EXPECT_FALSE(tx.commit(tc, 0)); // inner unwind reports failure
    EXPECT_EQ(tx.lockOwner(1), 0) << "locks held to the outermost end";
    EXPECT_FALSE(tx.commit(tc, 0)); // outermost: no durable point
    EXPECT_EQ(tx.lockOwner(1), -1);
    EXPECT_EQ(f.ctl().persistedLoad(A), 10u);
    EXPECT_EQ(tx.abortedCommits(), 1u);
}

TEST(TxNesting, AbortAfterPartialWritesRestoresOldestValue)
{
    Fixture f;
    sim::ThreadContext &tc = f.mach.thread(0);
    pm::TxManager &tx = f.txm();

    ASSERT_TRUE(tx.begin(tc, 0, {1}));
    ASSERT_TRUE(tx.write(tc, 0, A, 5));
    ASSERT_TRUE(tx.commit(tc, 0));

    // Two writes to the same word: the undo log dedupes, keeping the
    // *oldest* logged value, so the abort lands on 5, not 6.
    ASSERT_TRUE(tx.begin(tc, 0, {1}));
    ASSERT_TRUE(tx.write(tc, 0, A, 6));
    ASSERT_TRUE(tx.write(tc, 0, A, 7));
    EXPECT_EQ(f.ctl().load(A), 7u);
    tx.abort(tc, 0);
    EXPECT_EQ(f.ctl().load(A), 5u);
    EXPECT_FALSE(tx.commit(tc, 0));
    EXPECT_EQ(f.ctl().persistedLoad(A), 5u);
}

// --------------------------------------------------------- redo log

TEST(TxRedo, ReadYourWritesWithoutTouchingTheImage)
{
    Fixture f;
    sim::ThreadContext &tc = f.mach.thread(0);
    pm::TxManager &tx = f.txm();

    ASSERT_TRUE(tx.begin(tc, 0, {1}, pm::TxKind::Redo));
    EXPECT_EQ(tx.kind(0), pm::TxKind::Redo);
    ASSERT_TRUE(tx.write(tc, 0, A, 42));
    EXPECT_EQ(f.ctl().load(A), 0u)
        << "redo buffers: data untouched until commit";
    EXPECT_EQ(tx.read(0, A), 42u) << "reads see the buffered write";
    ASSERT_TRUE(tx.commit(tc, 0));
    EXPECT_EQ(f.ctl().load(A), 42u);
    EXPECT_EQ(f.ctl().persistedLoad(A), 42u);
}

TEST(TxRedo, CrashInCommitRecoversAllOldOrAllNew)
{
    // Baseline: bracket the outermost redo commit's boundary window.
    std::uint64_t b0, b1;
    {
        Fixture f;
        sim::ThreadContext &tc = f.mach.thread(0);
        pm::TxManager &tx = f.txm();
        ASSERT_TRUE(tx.begin(tc, 0, {1}, pm::TxKind::Redo));
        ASSERT_TRUE(tx.write(tc, 0, A, 1));
        ASSERT_TRUE(tx.write(tc, 0, B, 2));
        b0 = f.ctl().boundaryCount();
        ASSERT_TRUE(tx.commit(tc, 0));
        b1 = f.ctl().boundaryCount();
        ASSERT_GT(b1, b0);
    }

    bool sawNew = false, sawOld = false;
    for (std::uint64_t n = b0 + 1; n <= b1; ++n) {
        Fixture f;
        sim::ThreadContext &tc = f.mach.thread(0);
        pm::TxManager &tx = f.txm();
        ASSERT_TRUE(tx.begin(tc, 0, {1}, pm::TxKind::Redo));
        ASSERT_TRUE(tx.write(tc, 0, A, 1));
        ASSERT_TRUE(tx.write(tc, 0, B, 2));
        f.dom.controller().armFault(n);
        EXPECT_THROW(tx.commit(tc, 0), pm::PowerFailure);

        Cycles at = f.mach.maxClock();
        f.rt->crash(at);
        sim::ThreadContext &rtc = f.mach.thread(0);
        if (rtc.now() < at)
            rtc.syncTo(at, sim::Charge::Other);
        (void)f.rt->recover(rtc);

        std::uint64_t a = f.ctl().persistedLoad(A);
        std::uint64_t b = f.ctl().persistedLoad(B);
        bool allOld = a == 0 && b == 0;
        bool allNew = a == 1 && b == 2;
        EXPECT_TRUE(allOld || allNew)
            << "torn redo commit at boundary " << n << ": A=" << a
            << " B=" << b;
        sawOld |= allOld;
        sawNew |= allNew;
    }
    EXPECT_TRUE(sawOld) << "no crash point before the durable record";
    EXPECT_TRUE(sawNew) << "no crash point rolled forward";
}

// ---------------------------------------------------------- locking

TEST(TxLocks, ConflictIsBusyDisjointProceeds)
{
    Fixture f;
    sim::ThreadContext &t0 = f.mach.thread(0);
    sim::ThreadContext &t1 = f.mach.thread(1);
    pm::TxManager &tx = f.txm();

    ASSERT_TRUE(tx.begin(t0, 0, {1}));
    EXPECT_FALSE(tx.begin(t1, 1, {1, 2}))
        << "conflict on PMO 1 fails with nothing acquired";
    EXPECT_EQ(tx.lockOwner(2), -1)
        << "all-or-nothing: the free PMO must not be taken";
    EXPECT_EQ(tx.busyRejections(), 1u);

    ASSERT_TRUE(tx.begin(t1, 1, {2})) << "disjoint set proceeds";
    EXPECT_TRUE(tx.write(t0, 0, A, 7));
    EXPECT_TRUE(tx.write(t1, 1, C, 8));
    EXPECT_TRUE(tx.commit(t0, 0));
    EXPECT_TRUE(tx.commit(t1, 1));
    EXPECT_EQ(f.ctl().persistedLoad(A), 7u);
    EXPECT_EQ(f.ctl().persistedLoad(C), 8u);
}

TEST(TxLocks, NestedBeginGrowsTheLockSetCrossPmo)
{
    Fixture f;
    sim::ThreadContext &t0 = f.mach.thread(0);
    sim::ThreadContext &t1 = f.mach.thread(1);
    pm::TxManager &tx = f.txm();

    ASSERT_TRUE(tx.begin(t0, 0, {1}));
    ASSERT_TRUE(tx.begin(t0, 0, {2})) << "nested begin adds PMO 2";
    EXPECT_TRUE(tx.holdsLock(0, 2));
    EXPECT_FALSE(tx.begin(t1, 1, {2})) << "now held against t1";
    // One anchored log records the cross-PMO write-set.
    EXPECT_TRUE(tx.write(t0, 0, A, 3));
    EXPECT_TRUE(tx.write(t0, 0, C, 4));
    EXPECT_TRUE(tx.commit(t0, 0));
    EXPECT_TRUE(tx.commit(t0, 0));
    EXPECT_EQ(f.ctl().persistedLoad(A), 3u);
    EXPECT_EQ(f.ctl().persistedLoad(C), 4u);
    EXPECT_EQ(tx.lockOwner(2), -1);
}

// ------------------------------------------------- crash + recovery

TEST(TxCrash, RecoverRacesArmedFaultAtNestedCommitBoundaries)
{
    // Baseline: bracket the outermost commit of a *nested* undo
    // transaction (the commit that retires the flattened write-set).
    std::uint64_t b0, b1;
    {
        Fixture f;
        sim::ThreadContext &tc = f.mach.thread(0);
        pm::TxManager &tx = f.txm();
        ASSERT_TRUE(tx.begin(tc, 0, {1, 2}));
        ASSERT_TRUE(tx.write(tc, 0, A, 1));
        ASSERT_TRUE(tx.begin(tc, 0, {2}));
        ASSERT_TRUE(tx.write(tc, 0, C, 2));
        ASSERT_TRUE(tx.commit(tc, 0));
        b0 = f.ctl().boundaryCount();
        ASSERT_TRUE(tx.commit(tc, 0));
        b1 = f.ctl().boundaryCount();
        ASSERT_GT(b1, b0);
    }

    bool sawLogHeader = false;
    for (std::uint64_t n = b0 + 1; n <= b1; ++n) {
        Fixture f;
        sim::ThreadContext &tc = f.mach.thread(0);
        pm::TxManager &tx = f.txm();
        ASSERT_TRUE(tx.begin(tc, 0, {1, 2}));
        ASSERT_TRUE(tx.write(tc, 0, A, 1));
        ASSERT_TRUE(tx.begin(tc, 0, {2}));
        ASSERT_TRUE(tx.write(tc, 0, C, 2));
        ASSERT_TRUE(tx.commit(tc, 0));

        f.dom.controller().armFault(n);
        pm::PersistBoundary kind = pm::PersistBoundary::Store;
        try {
            tx.commit(tc, 0);
            FAIL() << "armed fault never fired at boundary " << n;
        } catch (const pm::PowerFailure &pf) {
            kind = pf.kind;
        }
        sawLogHeader |= kind == pm::PersistBoundary::LogHeader;

        Cycles at = f.mach.maxClock();
        f.rt->crash(at);
        sim::ThreadContext &rtc = f.mach.thread(0);
        if (rtc.now() < at)
            rtc.syncTo(at, sim::Charge::Other);

        // Race: a second fault is already armed when recover() runs,
        // so recovery itself may be interrupted at its first persist
        // boundary. It must then be re-runnable (the rollback is
        // idempotent) and still land on all-old.
        f.dom.controller().armFault(
            f.dom.controller().boundaryCount() + 1);
        try {
            (void)f.rt->recover(rtc);
            f.dom.controller().disarmFault(); // recovery had no work
        } catch (const pm::PowerFailure &) {
            f.rt->crash(f.mach.maxClock());
            (void)f.rt->recover(rtc);
        }

        EXPECT_EQ(f.ctl().persistedLoad(A), 0u)
            << "in-flight commit at boundary " << n
            << " must roll back fully";
        EXPECT_EQ(f.ctl().persistedLoad(C), 0u);
        pm::UndoLog *log = f.dom.findLog(1);
        ASSERT_NE(log, nullptr);
        EXPECT_FALSE(log->recoveryPending());

        // Liveness: the manager accepts a fresh transaction.
        ASSERT_TRUE(tx.begin(rtc, 0, {1}));
        ASSERT_TRUE(tx.write(rtc, 0, A, 9));
        ASSERT_TRUE(tx.commit(rtc, 0));
        EXPECT_EQ(f.ctl().persistedLoad(A), 9u);
    }
    EXPECT_TRUE(sawLogHeader)
        << "the sweep never hit the commit's LogHeader boundary";
}

TEST(TxCrash, NestedWorkloadSurvivesEveryCrashPoint)
{
    check::CrashOptions opt;
    opt.scheme = "tm";
    opt.workload = "txnest";
    opt.txns = 4;
    check::CrashResult res = check::enumerateCrashPoints(opt);
    EXPECT_GT(res.boundaries, 0u);
    EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                  ? ""
                                  : res.violations.front().detail);
}

TEST(TxCrash, TwoThreadDisjointPmoWorkloadSurvivesEveryCrashPoint)
{
    check::CrashOptions opt;
    opt.scheme = "tt";
    opt.workload = "txpair";
    opt.txns = 4;
    check::CrashResult res = check::enumerateCrashPoints(opt);
    EXPECT_GT(res.boundaries, 0u);
    EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                  ? ""
                                  : res.violations.front().detail);
}

// ------------------------------------------------------- fuzz smoke

TEST(TxFuzz, SeededSchedulesMatchTheSpecOracle)
{
    check::FuzzOptions opt;
    opt.seeds = 4;
    opt.shrink = false;
    opt.gen.txnOps = true;
    opt.gen.persistOps = true;
    check::FuzzResult res = check::fuzz(opt);
    EXPECT_GT(res.executed, 0u);
    std::string first;
    if (!res.divergences.empty() &&
        !res.divergences.front().complaints.empty())
        first = res.divergences.front().complaints.front();
    EXPECT_TRUE(res.ok())
        << res.divergences.size() << " divergence(s): " << first;
}
