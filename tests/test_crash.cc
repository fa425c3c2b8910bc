/**
 * @file
 * Tests for runtime-level crash/recovery: Runtime::crash clearing the
 * volatile protection state, Runtime::recover replaying undo logs and
 * handing the recovery mapping to the EW-conscious sweeper, the
 * regression for the sweeper ignoring idle manually-inserted PMOs,
 * smoke coverage of the crash-point enumeration harness behind
 * tools/terp-crash (its verdicts on one CPU and on all of them), and
 * the schedule executor's world check.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>

#include "check/crash.hh"
#include "check/differ.hh"
#include "check/recovery_oracle.hh"
#include "common/parallel.hh"
#include "core/runtime.hh"
#include "pm/persist.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"
#include "trace/trace_buffer.hh"

using namespace terp;

namespace {

constexpr std::uint64_t logOff = 1ULL << 32;
constexpr Cycles ewTarget = 5 * cyclesPerUs;

struct Fixture
{
    sim::Machine mach;
    pm::PmoManager pmos;
    core::RuntimeConfig cfg;
    pm::PersistDomain dom;
    std::unique_ptr<core::Runtime> rt;

    explicit Fixture(const std::string &scheme)
        : cfg(core::configForScheme(scheme, ewTarget)->withTrace())
    {
        pmos.create("crash-test", 64 * KiB);
        rt = std::make_unique<core::Runtime>(mach, pmos, cfg);
        rt->attachPersistence(&dom);
        dom.openLog(1, logOff);
        mach.spawnThread();
    }

    /** Fire the sweeper on its grid until past @p until. */
    void
    sweepUntil(Cycles until)
    {
        Cycles hook = mach.config().hookPeriod;
        for (Cycles t = hook; t <= until + hook; t += hook)
            rt->onSweep(t);
    }
};

/** Open a transaction with one logged+applied write, don't commit. */
void
openDanglingTxn(Fixture &f, sim::ThreadContext &tc)
{
    pm::UndoLog *log = f.dom.findLog(1);
    log->begin(tc);
    f.rt->access(tc, pm::Oid(1, 0x100), /*write=*/true);
    log->write(tc, pm::Oid(1, 0x100), 77);
}

} // namespace

TEST(RuntimeCrash, ClearsVolatileProtectionState)
{
    Fixture f("mm");
    sim::ThreadContext &tc = f.mach.thread(0);
    f.rt->manualBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);
    ASSERT_TRUE(f.rt->mapped(1));

    f.rt->crash(f.mach.maxClock());
    EXPECT_FALSE(f.rt->mapped(1));
    EXPECT_TRUE(f.dom.findLog(1)->recoveryPending());

    // The failure and its kernel-side unmap made it into the trace.
    auto events = f.rt->traceSink()->merged();
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [](const trace::Event &e) {
                                return e.kind == trace::EventKind::Crash;
                            }));
}

TEST(RuntimeCrash, RecoverRollsBackOnlyPendingLogs)
{
    Fixture f("tm");
    f.pmos.create("clean-neighbour", 64 * KiB);
    f.dom.openLog(2, logOff);
    sim::ThreadContext &tc = f.mach.thread(0);

    // PMO 2: a committed transaction — clean log, nothing to do.
    pm::UndoLog *clean = f.dom.findLog(2);
    f.rt->regionBegin(tc, 2, pm::Mode::ReadWrite);
    clean->begin(tc);
    f.rt->access(tc, pm::Oid(2, 0x200), /*write=*/true);
    clean->write(tc, pm::Oid(2, 0x200), 55);
    clean->commit(tc);
    f.rt->regionEnd(tc, 2);

    // PMO 1: in-flight at the failure.
    f.rt->regionBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);

    Cycles at = f.mach.maxClock();
    f.rt->crash(at);
    EXPECT_EQ(f.rt->recover(tc), 1u) << "only PMO 1 was pending";

    const pm::PersistController &ctl = f.dom.controller();
    EXPECT_EQ(ctl.persistedLoad(pm::Oid(1, 0x100)), 0u)
        << "in-flight write must be rolled back";
    EXPECT_EQ(ctl.persistedLoad(pm::Oid(2, 0x200)), 55u)
        << "committed neighbour must survive untouched";

    auto events = f.rt->traceSink()->merged();
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [](const trace::Event &e) {
                                return e.kind ==
                                           trace::EventKind::Recover &&
                                       e.pmo == 1;
                            }));
}

TEST(RuntimeCrash, SweeperDetachesIdleRecoveredPmoUnderManualInsertion)
{
    // Regression: the MERR-path sweeper used to full-detach idle
    // expired PMOs only under automatic insertion. Under manual
    // insertion the mapping crash recovery leaves behind (idle by
    // construction — the manual span died with the process) was
    // re-randomized forever instead of closed, so the recovered PMO
    // stayed exposed past every window target.
    Fixture f("mm");
    sim::ThreadContext &tc = f.mach.thread(0);
    f.rt->manualBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);

    f.rt->crash(f.mach.maxClock());
    ASSERT_EQ(f.rt->recover(tc), 1u);
    ASSERT_TRUE(f.rt->mapped(1))
        << "recovery hands the mapping to the sweeper, not unmaps";

    f.sweepUntil(tc.now() + f.cfg.ewTarget + f.mach.config().hookPeriod);
    EXPECT_FALSE(f.rt->mapped(1))
        << "idle recovered PMO must close within one window target";
}

TEST(RuntimeCrash, RecoveredImageAcceptsNewTransactions)
{
    Fixture f("tt");
    sim::ThreadContext &tc = f.mach.thread(0);
    f.rt->regionBegin(tc, 1, pm::Mode::ReadWrite);
    openDanglingTxn(f, tc);

    f.rt->crash(f.mach.maxClock());
    ASSERT_EQ(f.rt->recover(tc), 1u);
    f.sweepUntil(tc.now() + f.cfg.ewTarget + f.mach.config().hookPeriod);

    pm::UndoLog *log = f.dom.findLog(1);
    f.rt->regionBegin(tc, 1, pm::Mode::ReadWrite);
    log->begin(tc);
    f.rt->access(tc, pm::Oid(1, 0x300), /*write=*/true);
    log->write(tc, pm::Oid(1, 0x300), 123);
    log->commit(tc);
    f.rt->regionEnd(tc, 1);
    EXPECT_EQ(f.dom.controller().persistedLoad(pm::Oid(1, 0x300)),
              123u);
}

// ------------------------------------------- enumeration harness

TEST(CrashEnumeration, BankWorkloadIsAtomicEverywhere)
{
    check::CrashOptions opt;
    opt.scheme = "mm";
    opt.workload = "bank";
    opt.txns = 2;
    check::CrashResult r = check::enumerateCrashPoints(opt);
    EXPECT_GT(r.boundaries, 0u);
    EXPECT_EQ(r.pointsRun, r.boundaries);
    for (const check::CrashViolation &v : r.violations)
        ADD_FAILURE() << "point " << v.point << ": " << v.detail;
}

TEST(CrashEnumeration, ScheduleWorkloadIsAtomicEverywhere)
{
    check::CrashOptions opt;
    opt.scheme = "tt";
    opt.workload = "schedule";
    opt.seed = 1;
    opt.events = 24;
    check::CrashResult r = check::enumerateCrashPoints(opt);
    EXPECT_EQ(r.pointsRun, r.boundaries);
    for (const check::CrashViolation &v : r.violations)
        ADD_FAILURE() << "point " << v.point << ": " << v.detail;
}

TEST(CrashEnumeration, RejectsUnknownWorkload)
{
    check::CrashOptions opt;
    opt.workload = "nonesuch";
    EXPECT_THROW(check::enumerateCrashPoints(opt),
                 std::invalid_argument);
}

TEST(CrashEnumeration, EveryListedWorkloadEnumerates)
{
    std::vector<std::string> names = check::crashWorkloads();
    EXPECT_EQ(names.size(), 5u);
    for (const std::string &wl : names) {
        check::CrashOptions opt;
        opt.scheme = "tt";
        opt.workload = wl;
        opt.txns = 1;
        opt.events = 16;
        check::CrashResult r = check::enumerateCrashPoints(opt);
        EXPECT_TRUE(r.ok()) << wl;
        EXPECT_EQ(r.pointsRun, r.boundaries) << wl;
    }
}

/** Puts the thread's CPU mask back when it leaves scope. */
class AffinityRestorer
{
  public:
    explicit AffinityRestorer(const cpu_set_t &mask) : saved(mask) {}
    AffinityRestorer(const AffinityRestorer &) = delete;
    AffinityRestorer &operator=(const AffinityRestorer &) = delete;
    ~AffinityRestorer() { sched_setaffinity(0, sizeof saved, &saved); }

  private:
    cpu_set_t saved;
};

/**
 * The crash points run on every CPU the process may use, so their
 * scheduling differs from run to run; the verdicts must not. Every
 * workload x checked scheme enumerates once pinned to one CPU (the
 * pool runs inline, in point order) and once on the full mask, and
 * the JSON summaries must be byte-identical.
 */
TEST(CrashEnumeration, VerdictsMatchOnOneCpuAndOnAll)
{
    auto enumerateAll = [] {
        std::vector<std::string> out;
        for (const std::string &wl : check::crashWorkloads()) {
            for (const std::string &sc : core::checkedSchemeTags()) {
                check::CrashOptions opt;
                opt.scheme = sc;
                opt.workload = wl;
                opt.txns = 2;
                opt.events = 16;
                out.push_back(check::crashResultJson(
                    opt, check::enumerateCrashPoints(opt)));
            }
        }
        return out;
    };

    cpu_set_t all;
    ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
    std::vector<std::string> one;
    {
        AffinityRestorer restore(all);
        cpu_set_t first;
        CPU_ZERO(&first);
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &all)) {
                CPU_SET(c, &first);
                break;
            }
        }
        ASSERT_EQ(sched_setaffinity(0, sizeof first, &first), 0);
        ASSERT_EQ(hostCpus(), 1u);
        one = enumerateAll();
    }
    ASSERT_FALSE(one.empty());
    if (CPU_COUNT(&all) < 2)
        GTEST_SKIP() << "one CPU: no parallel run to compare";
    ASSERT_EQ(hostCpus(), static_cast<unsigned>(CPU_COUNT(&all)));
    std::vector<std::string> many = enumerateAll();
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i], many[i]);
}

/**
 * Under the basic ablation a schedule's blocked begin must not strand
 * its thread's later transactions: seeds 9, 12 and 14 used to
 * enumerate no crash point at all, and 32 seeds reached 901.
 */
TEST(CrashEnumeration, BasicSchedulesReachTheirTransactions)
{
    check::CrashOptions opt;
    opt.scheme = "basic";
    opt.workload = "schedule";
    std::uint64_t total = 0;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        opt.seed = seed;
        check::CrashResult r = check::enumerateCrashPoints(opt);
        for (const check::CrashViolation &v : r.violations)
            ADD_FAILURE() << "seed " << seed << " point " << v.point
                          << ": " << v.detail;
        if (seed == 9 || seed == 12 || seed == 14) {
            EXPECT_GT(r.boundaries, 0u) << "seed " << seed;
        }
        total += r.boundaries;
    }
    EXPECT_GE(total, 1800u);
}

/**
 * The executor refuses a world that does not match its schedule. The
 * generator raises a two-PMO schedule's EW target above 5 us, so a
 * world built at the requested target would replay the schedule
 * under the wrong window.
 */
TEST(ScheduleExecutor, RejectsWorldThatDoesNotMatchSchedule)
{
    check::GenParams gp;
    gp.pmos = 2;
    gp.threads = 3;
    gp.persistOps = true;
    core::RuntimeConfig cfg = *core::configForScheme("tt", ewTarget);
    check::Schedule s = check::generate(1, cfg, gp);
    ASSERT_GT(s.ewTarget, ewTarget);

    auto replayOn = [&](Cycles ew, unsigned pmos, unsigned threads,
                        std::uint64_t pmoBytes) {
        check::CrashWorld w(core::configForScheme("tt", ew)->withTrace(),
                            pmos, threads, pmoBytes, logOff);
        check::Ledger led;
        std::vector<std::string> complaints;
        check::replaySchedule(s, w, led, complaints);
        return complaints;
    };
    EXPECT_THROW(replayOn(ewTarget, 2, 3, s.pmoSize),
                 std::invalid_argument);
    EXPECT_THROW(replayOn(s.ewTarget, 1, 3, s.pmoSize),
                 std::invalid_argument);
    EXPECT_THROW(replayOn(s.ewTarget, 2, 2, s.pmoSize),
                 std::invalid_argument);
    EXPECT_THROW(replayOn(s.ewTarget, 2, 3, s.pmoSize / 2),
                 std::invalid_argument);
    std::vector<std::string> clean =
        replayOn(s.ewTarget, 2, 3, s.pmoSize);
    for (const std::string &m : clean)
        ADD_FAILURE() << m;
}

TEST(CrashEnumeration, JsonSummaryRoundTrip)
{
    check::CrashOptions opt;
    opt.scheme = "tm";
    opt.workload = "bank";
    opt.txns = 1;
    check::CrashResult r = check::enumerateCrashPoints(opt);
    std::string js = check::crashResultJson(opt, r);
    EXPECT_NE(js.find("\"scheme\":\"tm\""), std::string::npos);
    EXPECT_NE(js.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(js.find("\"violations\":[]"), std::string::npos);
}
