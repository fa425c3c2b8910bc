/**
 * @file
 * Tests for runtime-level crash/recovery: Runtime::crash clearing the
 * volatile protection state, Runtime::recover replaying undo logs and
 * handing the recovery mapping to the EW-conscious sweeper, the
 * regression for the sweeper ignoring idle manually-inserted PMOs,
 * smoke coverage of the crash-point enumeration harness behind
 * tools/terp-crash (its verdicts on one CPU and on all of them), the
 * schedule executor's world check, and the world copy the enumerator
 * forks its crash points from (a copy runs like its original, outlives
 * it, and crashes like a world replayed to the same point).
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/crash.hh"
#include "check/differ.hh"
#include "check/recovery_oracle.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/runtime.hh"
#include "metrics/export.hh"
#include "metrics/json.hh"
#include "pm/persist.hh"
#include "pm/pmo_manager.hh"
#include "pm/tx_manager.hh"
#include "sim/machine.hh"
#include "trace/audit.hh"
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
    auto events = f.rt->traceSink()->events();
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

    auto events = f.rt->traceSink()->events();
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

TEST(CrashEnumeration, JsonDetailRoundTripsControlCharacters)
{
    check::CrashOptions opt;
    check::CrashResult r;
    const std::string detail = "tab\t cr\r ctl\x01 quote\" bs\\";
    r.violations.push_back({3, pm::PersistBoundary::Sfence, detail});
    const std::string js = check::crashResultJson(opt, r);
    for (char c : js)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << js;
    std::string error;
    std::unique_ptr<metrics::JsonValue> doc = metrics::parseJson(js, error);
    ASSERT_NE(doc, nullptr) << error;
    const metrics::JsonValue *v = doc->get("violations");
    ASSERT_TRUE(v && v->array.size() == 1u);
    ASSERT_NE(v->array[0].get("detail"), nullptr);
    EXPECT_EQ(v->array[0].get("detail")->str, detail);
}

TEST(CrashEnumeration, WorldsHaveNoMoreCoresThanThreads)
{
    // Thread t runs on core t % cores, so a core beyond the thread
    // count is only caches every fork would copy.
    check::CrashWorld one(*core::configForScheme("tt", ewTarget), 1, 1,
                          64 * KiB, pm::TxManager::undoLogOff);
    EXPECT_EQ(one.machine().config().cores, 1u);
    for (const std::string &wl : check::crashWorkloads()) {
        check::CrashOptions opt;
        opt.scheme = "tt";
        opt.workload = wl;
        check::CrashWorld w = check::CrashCell(opt).world();
        EXPECT_EQ(w.machine().config().cores,
                  std::min(w.machine().threadCount(),
                           sim::MachineConfig{}.cores))
            << wl;
    }
}

// ------------------------------------------------------ forked worlds

namespace {

using Step = std::function<void(check::CrashWorld &, check::Ledger &,
                                Rng &)>;

/**
 * A two-thread, two-PMO script over every part a world copy must
 * carry: nested undo/redo TxManager transactions (some aborted), two
 * transactions open at once on different anchor logs, raw undo-log
 * transactions, sweeps, and a crash with its recovery. A fork after
 * step k copies the world while k steps have run.
 */
std::vector<Step>
forkScript()
{
    std::vector<Step> steps;
    for (unsigned t = 0; t < 4; ++t) {
        steps.push_back([t](check::CrashWorld &w, check::Ledger &led,
                            Rng &rng) {
            check::txnestTxn(w, led, w.machine().thread(0), rng, t == 0);
        });
    }
    // Thread 1 opens a redo transaction on PMO 2 and thread 0 an
    // undo one on PMO 1; a fork between these steps copies both.
    steps.push_back([](check::CrashWorld &w, check::Ledger &, Rng &rng) {
        sim::ThreadContext &tc = w.machine().thread(1);
        check::protOpen(w, tc, 2);
        w.runtime().tx()->begin(tc, 1, {2}, pm::TxKind::Redo);
        w.runtime().access(tc, pm::Oid(2, 0x1000), /*write=*/true);
        w.runtime().tx()->write(tc, 1, pm::Oid(2, 0x1000), rng.next());
    });
    steps.push_back([](check::CrashWorld &w, check::Ledger &, Rng &rng) {
        sim::ThreadContext &tc = w.machine().thread(0);
        check::protOpen(w, tc, 1);
        w.runtime().tx()->begin(tc, 0, {1}, pm::TxKind::Undo);
        w.runtime().access(tc, pm::Oid(1, 0x1040), /*write=*/true);
        w.runtime().tx()->write(tc, 0, pm::Oid(1, 0x1040), rng.next());
        // Busy: thread 1 holds PMO 2's lock (a lock-wait blame span).
        EXPECT_FALSE(w.runtime().tx()->begin(
            w.machine().thread(0), 0, {2}, pm::TxKind::Undo));
    });
    steps.push_back([](check::CrashWorld &w, check::Ledger &, Rng &) {
        sim::ThreadContext &tc0 = w.machine().thread(0);
        sim::ThreadContext &tc1 = w.machine().thread(1);
        w.runtime().tx()->write(tc1, 1, pm::Oid(2, 0x1040), 7);
        EXPECT_TRUE(w.runtime().tx()->commit(tc1, 1));
        EXPECT_TRUE(w.runtime().tx()->commit(tc0, 0));
        check::protClose(w, tc1, 2);
        check::protClose(w, tc0, 1);
        w.advanceSweeps(std::max(tc0.now(), tc1.now()));
    });
    for (unsigned t = 0; t < 2; ++t) {
        steps.push_back([](check::CrashWorld &w, check::Ledger &led,
                           Rng &rng) {
            check::bankTxn(w, led, w.machine().thread(0), rng, false);
        });
    }
    // A transaction left open across a power failure and recovery.
    steps.push_back([](check::CrashWorld &w, check::Ledger &, Rng &rng) {
        sim::ThreadContext &tc = w.machine().thread(0);
        check::protOpen(w, tc, 1);
        w.runtime().tx()->begin(tc, 0, {1}, pm::TxKind::Undo);
        w.runtime().access(tc, pm::Oid(1, 0x1080), /*write=*/true);
        w.runtime().tx()->write(tc, 0, pm::Oid(1, 0x1080), rng.next());
        Cycles at = w.machine().maxClock();
        w.crash(at);
        w.recover(tc, at);
    });
    steps.push_back([](check::CrashWorld &w, check::Ledger &led,
                       Rng &rng) {
        check::txnestTxn(w, led, w.machine().thread(0), rng, false);
        w.advanceSweeps(w.machine().maxClock() + 20 * cyclesPerUs);
    });
    return steps;
}

check::CrashWorld
forkWorld(std::size_t traceCapacity = trace::TraceSink::defaultCapacity)
{
    return check::CrashWorld(
        core::configForScheme("tt", ewTarget)->withTrace(traceCapacity),
        2, 2, 64 * KiB, pm::TxManager::undoLogOff);
}

/** Everything a run leaves that a copy must reproduce. */
struct Observed
{
    std::vector<Cycles> clocks;          //!< per thread: now, buckets
    std::vector<std::uint64_t> caches;   //!< L1s', L2's hits, misses
    std::vector<std::uint64_t> vol, dur; //!< watched words
    std::vector<std::uint64_t> side;     //!< side table, by line
    std::vector<std::uint64_t> exposure; //!< per PMO: EW, TEW, blame
    std::vector<std::uint64_t> events;   //!< every field, seq order
    std::string registry;                //!< JSON, host timings out

    bool operator==(const Observed &) const = default;
};

/** Finalize @p w and read what it left. */
Observed
observe(check::CrashWorld &w)
{
    w.finalize();
    Observed o;
    for (unsigned t = 0; t < w.machine().threadCount(); ++t) {
        const sim::ThreadContext &tc = w.machine().thread(t);
        o.clocks.push_back(tc.now());
        for (unsigned c = 0;
             c < static_cast<unsigned>(sim::Charge::NumCharges); ++c)
            o.clocks.push_back(tc.charged(static_cast<sim::Charge>(c)));
    }
    const sim::Machine &m = w.machine();
    for (unsigned c = 0; c < m.config().cores; ++c)
        o.caches.insert(o.caches.end(),
                        {m.l1Cache(c).hits(), m.l1Cache(c).misses()});
    o.caches.insert(o.caches.end(),
                    {m.l2Cache().hits(), m.l2Cache().misses(),
                     m.totalWalks()});
    const pm::PersistController &ctl = w.persistence()->controller();
    std::map<std::uint64_t, std::vector<std::uint64_t>> lines;
    ctl.sideTable().forEach([&](std::uint64_t key, const pm::SideLine &l) {
        std::vector<std::uint64_t> &out = lines[key];
        out = {l.dirty, l.pending};
        for (const pm::SideLine::Word &wd : l.words)
            out.insert(out.end(), {wd.addr, wd.old, wd.wb, wd.hasWb});
    });
    for (const auto &[key, fields] : lines) {
        o.side.push_back(key);
        o.side.insert(o.side.end(), fields.begin(), fields.end());
    }
    for (pm::PmoId p = 1; p <= 2; ++p) {
        auto watch = [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t off = lo; off < hi; off += 8) {
                o.vol.push_back(ctl.load(pm::Oid(p, off)));
                o.dur.push_back(ctl.persistedLoad(pm::Oid(p, off)));
            }
        };
        watch(0, 0x2000);
        watch(w.pmoBytes - 64, w.pmoBytes);
        watch(pm::TxManager::undoLogOff, pm::TxManager::undoLogOff + 0x200);
        watch(pm::TxManager::redoLogOff, pm::TxManager::redoLogOff + 0x200);
        const semantics::EwTracker &ew = w.runtime().exposure();
        for (const metrics::Summary *sm :
             {ew.ewSummaryFor(p), ew.tewSummaryFor(p)}) {
            if (sm) {
                o.exposure.insert(o.exposure.end(),
                                  {sm->count(), sm->sum(), sm->min(),
                                   sm->max()});
            }
        }
        for (unsigned c = 0; c < semantics::numBlameCauses; ++c)
            o.exposure.push_back(
                ew.blameTotal(p, static_cast<semantics::BlameCause>(c)));
    }
    for (const trace::Event &e : w.runtime().traceSink()->events()) {
        o.events.insert(o.events.end(),
                        {e.ts, e.seq, e.pmo, e.arg, e.tid,
                         static_cast<std::uint64_t>(e.kind)});
    }
    metrics::Registry simulated;
    simulated.merge(*w.runtime().metricsRegistry(),
                    [](const std::string &name) {
                        return name.rfind("host.", 0) != 0;
                    });
    o.registry = metrics::toJson(simulated);
    return o;
}

/** Run steps [from, to) of @p steps on @p w. */
void
runSteps(const std::vector<Step> &steps, std::size_t from, std::size_t to,
         check::CrashWorld &w, check::Ledger &led, Rng &rng)
{
    for (std::size_t i = from; i < to; ++i)
        steps[i](w, led, rng);
}

void
expectSame(const Observed &got, const Observed &want, const char *who,
           std::size_t k)
{
    EXPECT_EQ(got.clocks, want.clocks) << who << ", fork after " << k;
    EXPECT_EQ(got.caches, want.caches) << who << ", fork after " << k;
    EXPECT_EQ(got.vol, want.vol) << who << ", fork after " << k;
    EXPECT_EQ(got.dur, want.dur) << who << ", fork after " << k;
    EXPECT_EQ(got.side, want.side) << who << ", fork after " << k;
    EXPECT_EQ(got.exposure, want.exposure) << who << ", fork after " << k;
    EXPECT_EQ(got.events, want.events) << who << ", fork after " << k;
    EXPECT_EQ(got.registry, want.registry) << who << ", fork after " << k;
}

} // namespace

/**
 * Fork after every step of the script, then run the original and the
 * copy to the end: each must end exactly as a run never forked.
 */
TEST(WorldFork, OriginalAndCopyEachRunLikeAnUnforkedRun)
{
    const std::vector<Step> steps = forkScript();
    Observed want;
    {
        check::CrashWorld w = forkWorld();
        check::Ledger led;
        Rng rng(5);
        runSteps(steps, 0, steps.size(), w, led, rng);
        want = observe(w);
    }
    ASSERT_FALSE(want.events.empty());
    for (std::size_t k = 0; k <= steps.size(); ++k) {
        check::CrashWorld a = forkWorld();
        check::Ledger ledA;
        Rng rngA(5);
        runSteps(steps, 0, k, a, ledA, rngA);
        check::CrashWorld b(a);
        check::Ledger ledB = ledA;
        Rng rngB = rngA;
        runSteps(steps, k, steps.size(), a, ledA, rngA);
        runSteps(steps, k, steps.size(), b, ledB, rngB);
        expectSame(observe(a), want, "original", k);
        expectSame(observe(b), want, "copy", k);
    }
}

/**
 * A copy shares nothing with its original: destroy the original right
 * after the fork, and the copy still runs to the same end. Under
 * AddressSanitizer, a pointer left into the original is a
 * use-after-free.
 */
TEST(WorldFork, CopyOutlivesItsOriginal)
{
    const std::vector<Step> steps = forkScript();
    Observed want;
    {
        check::CrashWorld w = forkWorld();
        check::Ledger led;
        Rng rng(9);
        runSteps(steps, 0, steps.size(), w, led, rng);
        want = observe(w);
    }
    for (std::size_t k = 0; k <= steps.size(); ++k) {
        auto a = std::make_unique<check::CrashWorld>(forkWorld());
        check::Ledger led;
        Rng rng(9);
        runSteps(steps, 0, k, *a, led, rng);
        check::CrashWorld b(*a);
        a.reset();
        runSteps(steps, k, steps.size(), b, led, rng);
        expectSame(observe(b), want, "copy", k);
    }
}

namespace {

/** The trace ring's tids and counts, and every field of its events. */
std::vector<std::uint64_t>
traceOf(const check::CrashWorld &w)
{
    const trace::TraceSink &sink = *w.runtime().traceSink();
    std::vector<std::uint64_t> out(sink.tids().begin(), sink.tids().end());
    const std::vector<trace::Event> events = sink.events();
    out.insert(out.end(),
               {sink.totalEmitted(), sink.totalDropped(), events.size()});
    for (const trace::Event &e : events) {
        out.insert(out.end(),
                   {e.ts, e.seq, e.pmo, e.arg, e.tid,
                    static_cast<std::uint64_t>(e.kind)});
    }
    return out;
}

} // namespace

/**
 * Fork a world whose trace ring is small, then step the original
 * and the copy by turns: both emit into the events they share and
 * wrap past them, the copy after a detour of its own, so the two
 * emit different events. Each must hold, event for event, the trace
 * of a run never forked (with the same detour), whichever of the two
 * is destroyed first.
 */
TEST(WorldFork, WrappedTracesMatchAnUnforkedRun)
{
    constexpr std::size_t cap = 16;
    std::vector<Step> steps = forkScript();
    // A tail every fork point runs after the fork: transfers on both
    // threads and long sweeps, so the ring wraps past what the fork
    // shares.
    for (unsigned t = 0; t < 8; ++t) {
        steps.push_back([t](check::CrashWorld &w, check::Ledger &led,
                            Rng &rng) {
            check::bankTxn(w, led, w.machine().thread(t % 2), rng, false);
            w.advanceSweeps(w.machine().maxClock() + 40 * cyclesPerUs);
        });
    }
    // A draw skipped: every transfer after it picks other accounts.
    const Step detour = [](check::CrashWorld &, check::Ledger &,
                           Rng &rng) { rng.next(); };
    // The trace of an unforked run, with the detour after step k;
    // its ring wrapped.
    auto unforked = [&](std::optional<std::size_t> k) {
        check::CrashWorld w = forkWorld(cap);
        check::Ledger led;
        Rng rng(5);
        for (std::size_t i = 0; i <= steps.size(); ++i) {
            if (k == i)
                detour(w, led, rng);
            if (i < steps.size())
                steps[i](w, led, rng);
        }
        EXPECT_GT(w.runtime().traceSink()->totalDropped(), 0u);
        return traceOf(w);
    };
    const std::vector<std::uint64_t> want = unforked(std::nullopt);
    std::size_t diverged = 0;
    for (std::size_t k = 0; k < steps.size(); ++k) {
        const std::vector<std::uint64_t> wantCopy = unforked(k);
        diverged += wantCopy != want;
        for (bool originalFirst : {true, false}) {
            auto a = std::make_unique<check::CrashWorld>(forkWorld(cap));
            check::Ledger ledA;
            Rng rngA(5);
            runSteps(steps, 0, k, *a, ledA, rngA);
            auto b = std::make_unique<check::CrashWorld>(*a);
            check::Ledger ledB = ledA;
            Rng rngB = rngA;
            const std::uint64_t forkedAt =
                a->runtime().traceSink()->totalEmitted();
            detour(*b, ledB, rngB);
            for (std::size_t i = k; i < steps.size(); ++i) {
                steps[i](*a, ledA, rngA);
                steps[i](*b, ledB, rngB);
            }
            EXPECT_GT(b->runtime().traceSink()->totalEmitted(),
                      forkedAt + cap);
            if (originalFirst) {
                EXPECT_EQ(traceOf(*a), want) << "fork after " << k;
                a.reset();
                EXPECT_EQ(traceOf(*b), wantCopy) << "fork after " << k;
            } else {
                EXPECT_EQ(traceOf(*b), wantCopy) << "fork after " << k;
                b.reset();
                EXPECT_EQ(traceOf(*a), want) << "fork after " << k;
            }
        }
    }
    // The detour shows in the retained events of most fork points.
    EXPECT_GT(2 * diverged, steps.size());
}

namespace {

/** A driver's world, ledger and trace replay at one crash point. */
struct Snapshot
{
    std::optional<check::CrashWorld> world;
    check::Ledger led;
    trace::TimelineReplay audited;
};

/** Persist boundaries of one uninterrupted run of @p cell. */
std::uint64_t
boundariesOf(const check::CrashCell &cell)
{
    check::CrashWorld w = cell.world();
    check::Ledger led;
    std::vector<std::string> replay;
    cell.run(w, led, replay);
    return w.persistence()->controller().boundaryCount();
}

/** Run @p cell's driver and copy it at crash point @p point. */
Snapshot
snapshotAt(const check::CrashCell &cell, std::uint64_t point)
{
    check::CrashWorld d = cell.world();
    Snapshot s;
    check::Ledger led;
    trace::TimelineReplay audited;
    d.persistence()->controller().tapFaults(
        [&](std::uint64_t n, pm::PersistBoundary) {
            audited.catchUp(*d.runtime().traceSink());
            if (n != point)
                return;
            s.world.emplace(d);
            s.led = led;
            s.audited = audited;
        });
    std::vector<std::string> replay;
    cell.run(d, led, replay);
    EXPECT_TRUE(s.world) << "point " << point << " never reached";
    return s;
}

/**
 * Assign @p s into the scratch world @p w and ledger @p led, crash it
 * and check its recovery as the enumerator does (@p sabotage, if
 * set, runs before the crash); return the violations.
 */
std::vector<std::string>
crashInto(const check::CrashCell &cell, const Snapshot &s,
          check::CrashWorld &w, check::Ledger &led,
          const std::function<void(check::CrashWorld &)> &sabotage = {})
{
    w = *s.world;
    led = s.led;
    if (sabotage)
        sabotage(w);
    w.persistence()->controller().crash();
    std::vector<std::string> v;
    cell.recoverAndCheck(w, led, v, s.audited);
    return v;
}

} // namespace

/**
 * The enumerator writes each point into one scratch world per driver,
 * over whatever the last point left there. Hold a scratch world
 * through a point of another cell (another scheme and shape), then a
 * later point of this cell whose recovery throws half-way; point n
 * assigned into it must then crash, recover and check exactly like a
 * fresh copy of the driver at n: verdicts, clocks, caches, image,
 * side table, every trace event and the registry.
 */
TEST(WorldFork, ReassignedScratchMatchesFreshCopy)
{
    check::CrashOptions a;
    a.scheme = "tt";
    a.workload = "txpair";
    a.txns = 4;
    check::CrashOptions b;
    b.scheme = "mm";
    b.workload = "hashmap";
    b.txns = 6;
    const check::CrashCell cellA(a), cellB(b);
    const std::uint64_t boundsA = boundariesOf(cellA);
    const std::uint64_t boundsB = boundariesOf(cellB);
    ASSERT_GT(boundsA, 6u);

    check::CrashWorld scratch = cellB.world();
    check::Ledger led;
    EXPECT_EQ(crashInto(cellB, snapshotAt(cellB, boundsB / 2), scratch,
                        led),
              std::vector<std::string>{});

    // A window the runtime never mapped: the crash path's reset of
    // transient causes panics after the thread and mapping teardown.
    const std::vector<std::string> died = crashInto(
        cellA, snapshotAt(cellA, 2 * boundsA / 3), scratch, led,
        [](check::CrashWorld &w) {
            w.runtime().exposureMut().processOpen(w.nPmos + 1,
                                                  w.machine().maxClock());
        });
    ASSERT_EQ(died.size(), 1u);
    EXPECT_EQ(died.front().rfind("recovery died: ", 0), 0u)
        << died.front();

    for (std::uint64_t n : {boundsA / 3, std::uint64_t{1}}) {
        const Snapshot s = snapshotAt(cellA, n);
        // Copied first: a binding the assignment left pointing into
        // the snapshot would otherwise reach the fresh copy too.
        check::CrashWorld fresh(*s.world);
        check::Ledger freshLed = s.led;
        const std::vector<std::string> got =
            crashInto(cellA, s, scratch, led);
        fresh.persistence()->controller().crash();
        std::vector<std::string> want;
        cellA.recoverAndCheck(fresh, freshLed, want, s.audited);
        EXPECT_EQ(got, want) << "point " << n;
        expectSame(observe(scratch), observe(fresh), "scratch", n);
    }
}

/** A sweep gate or a fault tap belongs to its driver: no copy. */
TEST(WorldFork, RefusesWorldsWithDriverHooks)
{
    check::CrashWorld gated = forkWorld();
    gated.sweepGate = [](Cycles) { return true; };
    EXPECT_ANY_THROW(check::CrashWorld copy(gated));

    check::CrashWorld tapped = forkWorld();
    tapped.persistence()->controller().tapFaults(
        [](std::uint64_t, pm::PersistBoundary) {});
    EXPECT_ANY_THROW(check::CrashWorld copy(tapped));
}

namespace {

/**
 * The enumeration as it ran before crash worlds were forked: for
 * every point n, a fresh world replays the workload with a fault
 * armed at n, and the PowerFailure's unwound world takes the crash
 * path.
 */
check::CrashResult
replayEnumeration(const check::CrashOptions &opt)
{
    const check::CrashCell cell(opt);
    check::CrashResult res;
    auto record = [&](std::uint64_t point, pm::PersistBoundary kind,
                      const std::vector<std::string> &replay,
                      const std::vector<std::string> &v) {
        for (const std::string &m : replay)
            res.violations.push_back({point, kind, "replay: " + m});
        for (const std::string &m : v)
            res.violations.push_back({point, kind, m});
    };
    {
        check::CrashWorld w = cell.world();
        check::Ledger led;
        std::vector<std::string> replay, v;
        try {
            cell.run(w, led, replay);
            res.boundaries = w.persistence()->controller().boundaryCount();
            cell.checkImage(w, led, v);
        } catch (const std::exception &e) {
            v.push_back(std::string("baseline run died: ") + e.what());
        }
        record(0, pm::PersistBoundary::Store, replay, v);
        if (!res.violations.empty() || res.boundaries == 0)
            return res;
    }
    for (std::uint64_t n = 1; n <= res.boundaries; ++n) {
        check::CrashWorld w = cell.world();
        check::Ledger led;
        std::vector<std::string> replay, v;
        pm::PersistBoundary kind = pm::PersistBoundary::Store;
        bool crashed = false;
        w.persistence()->controller().armFault(n);
        try {
            cell.run(w, led, replay);
        } catch (const pm::PowerFailure &pf) {
            crashed = true;
            kind = pf.kind;
        } catch (const std::exception &e) {
            v.push_back(std::string("workload died: ") + e.what());
        }
        if (v.empty() && !crashed)
            v.push_back("armed fault never fired (non-deterministic "
                        "boundary count?)");
        if (v.empty())
            cell.recoverAndCheck(w, led, v);
        ++res.pointsRun;
        record(n, kind, replay, v);
    }
    return res;
}

} // namespace

/**
 * A point's forked world crashes exactly like a world replayed to the
 * point and unwound by the PowerFailure: the summaries are
 * byte-identical for every workload and checked scheme.
 */
TEST(CrashEnumeration, ForkMatchesReplay)
{
    std::uint64_t points = 0;
    for (const std::string &sc : core::checkedSchemeTags()) {
        for (const std::string &wl : check::crashWorkloads()) {
            const bool generated = wl == "schedule";
            const std::vector<std::uint64_t> sizes =
                generated ? std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5,
                                                       6, 7}
                          : std::vector<std::uint64_t>{1, 4, 16};
            for (std::uint64_t size : sizes) {
                check::CrashOptions opt;
                opt.scheme = sc;
                opt.workload = wl;
                if (generated)
                    opt.seed = size;
                else
                    opt.txns = static_cast<unsigned>(size);
                const check::CrashResult fork =
                    check::enumerateCrashPoints(opt);
                points += fork.pointsRun;
                EXPECT_EQ(check::crashResultJson(opt, fork),
                          check::crashResultJson(opt,
                                                 replayEnumeration(opt)))
                    << sc << " " << wl << " " << size;
            }
        }
    }
    EXPECT_GT(points, 0u);
}

namespace {

/** Everything an AuditReport holds, as comparable text. */
std::string
reportText(const trace::AuditReport &r)
{
    std::ostringstream os;
    os << "ok " << r.ok << " complete " << r.complete << "\n";
    for (const std::string &m : r.mismatches)
        os << "mismatch " << m << "\n";
    for (std::size_t pmo = 0; pmo < r.pmos.size(); ++pmo) {
        const trace::AuditReport::PmoTally &t = r.pmos[pmo];
        for (const auto &[name, sm] :
             {std::pair{"ew ", &t.ew}, std::pair{"tew ", &t.tew}}) {
            if (sm->count())
                os << name << pmo << ": " << sm->count() << " "
                   << sm->sum() << " " << sm->min() << " " << sm->max()
                   << "\n";
        }
        os << "blame " << pmo << ":";
        for (Cycles c : t.blame)
            os << " " << c;
        os << "\n";
    }
    return os.str();
}

/**
 * Walk every crash point of @p opt's cell the way the enumerator
 * does, on one driver: catch the driver's replay up and fork; show
 * the copy to @p before (if set); crash and check the copy with its
 * audit resumed from that replay; then hand the copy, the replay and
 * the crash path's violations to @p atPoint.
 */
void
forEachForkedPoint(
    const check::CrashOptions &opt,
    const std::function<void(check::CrashWorld &)> &before,
    const std::function<void(std::uint64_t, check::CrashWorld &,
                             const trace::TimelineReplay &,
                             const std::vector<std::string> &)> &atPoint)
{
    const check::CrashCell cell(opt);
    check::CrashWorld d = cell.world();
    check::Ledger led;
    trace::TimelineReplay audited;
    d.persistence()->controller().tapFaults(
        [&](std::uint64_t n, pm::PersistBoundary) {
            audited.catchUp(*d.runtime().traceSink());
            check::CrashWorld w(d);
            check::Ledger l = led;
            if (before)
                before(w);
            w.persistence()->controller().crash();
            std::vector<std::string> v;
            cell.recoverAndCheck(w, l, v, audited);
            atPoint(n, w, audited, v);
        });
    std::vector<std::string> replay;
    try {
        cell.run(d, led, replay);
    } catch (const std::exception &) {
        // A workload that dies has no points past where it died.
    }
}

} // namespace

/**
 * At every point of every workload and checked scheme, the audit the
 * fork resumes from its driver's replay reports exactly what a replay
 * of the fork's whole trace reports: mismatches, tallies and blame.
 */
TEST(CrashEnumeration, ResumedAuditMatchesBatch)
{
    std::uint64_t points = 0;
    for (const std::string &sc : core::checkedSchemeTags()) {
        for (const std::string &wl : check::crashWorkloads()) {
            const bool generated = wl == "schedule";
            const std::vector<std::uint64_t> sizes =
                generated ? std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5,
                                                       6, 7}
                          : std::vector<std::uint64_t>{1, 4, 16};
            for (std::uint64_t size : sizes) {
                check::CrashOptions opt;
                opt.scheme = sc;
                opt.workload = wl;
                if (generated)
                    opt.seed = size;
                else
                    opt.txns = static_cast<unsigned>(size);
                forEachForkedPoint(
                    opt, nullptr,
                    [&](std::uint64_t n, check::CrashWorld &w,
                        const trace::TimelineReplay &audited,
                        const std::vector<std::string> &) {
                        ++points;
                        const trace::TraceSink &sink =
                            *w.runtime().traceSink();
                        const Cycles tEnd = w.machine().maxClock();
                        trace::TimelineReplay resumed;
                        EXPECT_EQ(reportText(trace::auditTimelineFrom(
                                      audited, sink, tEnd,
                                      w.runtime().exposure(), resumed)),
                                  reportText(trace::auditTimeline(
                                      sink, tEnd, w.runtime().exposure())))
                            << sc << " " << wl << " " << size
                            << " point " << n;
                    });
            }
        }
    }
    EXPECT_GT(points, 0u);
}

/**
 * A fork publishes no counters, but its audit still holds the
 * registry's exposure histograms to the replay: one stray sample in
 * exposure.ew_cycles{pmo="1"} is a violation at every point.
 */
TEST(CrashEnumeration, ResumedAuditReadsTheRegistry)
{
    check::CrashOptions opt;
    opt.scheme = "tt";
    opt.workload = "bank";
    opt.txns = 2;
    const std::string stray = "exposure.ew_cycles{pmo=\"1\"}";
    for (bool inject : {false, true}) {
        std::uint64_t points = 0;
        forEachForkedPoint(
            opt,
            [&](check::CrashWorld &w) {
                if (inject)
                    w.runtime().metricsRegistry()->histogram(stray).record(7);
            },
            [&](std::uint64_t n, check::CrashWorld &,
                const trace::TimelineReplay &,
                const std::vector<std::string> &v) {
                ++points;
                if (!inject) {
                    EXPECT_TRUE(v.empty()) << "point " << n << ": "
                                           << v.front();
                    return;
                }
                ASSERT_EQ(v.size(), 1u) << "point " << n;
                EXPECT_EQ(v.front().rfind("trace audit: " + stray, 0), 0u)
                    << "point " << n << ": " << v.front();
            });
        EXPECT_GT(points, 0u);
    }
}
