/**
 * @file
 * Tests for the differential fuzz harness (src/check) and regression
 * tests for the runtime bugs it flushed out:
 *   1. RegionGuard ran regionEnd after a blocked (never entered)
 *      begin under the basic-blocking ablation;
 *   2. accessRange ignored the start offset when counting touched
 *      cache lines;
 *   3. TM reported silentFraction == 0 despite eliding mapping
 *      syscalls (and nested lowered calls missed perm_syscalls);
 *   4. the post-run sweeper drain charged an already-finished
 *      thread for the delayed detach;
 *   5. a lowered attach with a broader mode than the mapping's did
 *      not widen the process permission (Fig 4's attach(RW) after
 *      attach(R)).
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/differ.hh"
#include "check/fuzzer.hh"
#include "check/oracle.hh"
#include "check/schedule.hh"
#include "check/shrink.hh"
#include "core/runtime.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"

using namespace terp;

namespace {

struct Rig
{
    sim::Machine mach;
    pm::PmoManager pmos;
    pm::PmoId pmo;
    std::unique_ptr<core::Runtime> rt;

    explicit Rig(const core::RuntimeConfig &cfg, unsigned threads = 1)
        : pmos(7)
    {
        pmo = pmos.create("test", 64 * KiB).id();
        rt = std::make_unique<core::Runtime>(mach, pmos, cfg);
        for (unsigned i = 0; i < threads; ++i)
            mach.spawnThread();
    }
};

} // namespace

// ------------------------------------------------ satellite regressions

TEST(CheckRegression, RegionGuardSkipsEndWhenBlocked)
{
    Rig r(core::RuntimeConfig::basicSemantics(), 2);
    sim::ThreadContext &t0 = r.mach.thread(0);
    sim::ThreadContext &t1 = r.mach.thread(1);

    ASSERT_EQ(r.rt->regionBegin(t0, r.pmo, pm::Mode::ReadWrite),
              core::GuardResult::Ok);
    {
        core::RegionGuard g(*r.rt, t1, r.pmo, pm::Mode::ReadWrite);
        EXPECT_FALSE(g.entered());
        // Destructor must not run regionEnd for the never-entered
        // region (it used to, tripping the non-owner assertion).
    }
    EXPECT_TRUE(t1.blocked());
    r.rt->regionEnd(t0, r.pmo);
    EXPECT_FALSE(t1.blocked());
}

TEST(CheckRegression, AccessRangeCountsOverlappedLines)
{
    Rig r(core::RuntimeConfig::tm());
    sim::ThreadContext &t0 = r.mach.thread(0);
    r.rt->regionBegin(t0, r.pmo, pm::Mode::ReadWrite);

    // The only Other charge per access is the 1-cycle permission
    // matrix check, so the Other delta counts touched lines exactly.
    Cycles o0 = t0.charged(sim::Charge::Other);
    r.rt->accessRange(t0, pm::Oid(r.pmo, 32), 64, true);
    EXPECT_EQ(t0.charged(sim::Charge::Other) - o0, 2u)
        << "64B starting mid-line spans two cache lines";

    o0 = t0.charged(sim::Charge::Other);
    r.rt->accessRange(t0, pm::Oid(r.pmo, 64), 64, true);
    EXPECT_EQ(t0.charged(sim::Charge::Other) - o0, 1u);

    o0 = t0.charged(sim::Charge::Other);
    r.rt->accessRange(t0, pm::Oid(r.pmo, 63), 2, false);
    EXPECT_EQ(t0.charged(sim::Charge::Other) - o0, 2u)
        << "2B straddling a line boundary touches both lines";

    r.rt->regionEnd(t0, r.pmo);
}

TEST(CheckRegression, TmReportsNonzeroSilentFraction)
{
    Rig r(core::RuntimeConfig::tm());
    sim::ThreadContext &t0 = r.mach.thread(0);

    r.rt->regionBegin(t0, r.pmo, pm::Mode::ReadWrite); // real attach
    r.rt->regionBegin(t0, r.pmo, pm::Mode::ReadWrite); // nested
    r.rt->regionEnd(t0, r.pmo);                        // nested
    r.rt->regionEnd(t0, r.pmo); // outermost, EW young -> delayed

    // 3 lowered kernel calls (nested begin/end + delayed outer end)
    // against 1 real attach syscall.
    EXPECT_DOUBLE_EQ(r.rt->report().silentFraction, 0.75);
}

TEST(CheckRegression, DrainSweepChargesNoFinishedThread)
{
    Rig r(core::RuntimeConfig::tm());
    sim::ThreadContext &t0 = r.mach.thread(0);

    r.rt->regionBegin(t0, r.pmo, pm::Mode::ReadWrite);
    r.rt->regionEnd(t0, r.pmo); // EW young -> delayed detach
    ASSERT_TRUE(r.rt->mapped(r.pmo));

    Cycles clk = t0.now();
    t0.done = true;
    r.rt->onSweep(t0.now() + r.rt->config().ewTarget + 1);

    EXPECT_FALSE(r.rt->mapped(r.pmo));
    EXPECT_EQ(t0.now(), clk)
        << "post-run drain must not bill a finished thread";
}

TEST(CheckRegression, LoweredAttachWidensProcessPermission)
{
    Rig r(core::RuntimeConfig::tm(), 2);
    sim::ThreadContext &t0 = r.mach.thread(0);
    sim::ThreadContext &t1 = r.mach.thread(1);

    r.rt->regionBegin(t0, r.pmo, pm::Mode::Read);      // maps R
    r.rt->regionBegin(t1, r.pmo, pm::Mode::ReadWrite); // lowered
    // Fig 4: T2's store after attach(RW) must be legal even though
    // the mapping was created by T1's attach(R).
    EXPECT_EQ(r.rt->tryAccess(t1, pm::Oid(r.pmo, 0), true),
              core::AccessOutcome::Ok);
    EXPECT_EQ(r.rt->tryAccess(t0, pm::Oid(r.pmo, 0), true),
              core::AccessOutcome::NoThreadPerm);
    r.rt->regionEnd(t1, r.pmo);
    r.rt->regionEnd(t0, r.pmo);
}

// ------------------------------------------------------- harness itself

TEST(CheckHarness, GenerationIsDeterministic)
{
    check::GenParams p;
    core::RuntimeConfig cfg = *core::configForScheme("tt", p.ewTarget);
    check::Schedule a = check::generate(42, cfg, p);
    check::Schedule b = check::generate(42, cfg, p);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t i = 0; i < a.ops.size(); ++i)
        EXPECT_EQ(check::describeOp(a.ops[i]),
                  check::describeOp(b.ops[i]));
    check::Schedule c = check::generate(43, cfg, p);
    bool same = a.ops.size() == c.ops.size();
    for (std::size_t i = 0; same && i < a.ops.size(); ++i)
        same = check::describeOp(a.ops[i]) ==
               check::describeOp(c.ops[i]);
    EXPECT_FALSE(same) << "different seeds must differ";
}

TEST(CheckHarness, EverySchemeHasAConfig)
{
    for (const std::string &name : core::checkedSchemeTags()) {
        std::optional<core::RuntimeConfig> cfg =
            core::configForScheme(name, 5 * cyclesPerUs);
        ASSERT_TRUE(cfg.has_value()) << name;
        EXPECT_EQ(cfg->ewTarget, 5 * cyclesPerUs) << name;
        EXPECT_NE(cfg->scheme, core::Scheme::Unprotected) << name;
    }
    EXPECT_FALSE(core::configForScheme("bogus", 1).has_value());
}

TEST(CheckHarness, OracleMapsSchemesToSpecModels)
{
    // tt/tm -> EW-conscious, ttnc -> outermost, mm/basic -> basic:
    // indirectly visible through a single clean replay per scheme.
    check::GenParams p;
    p.events = 30;
    for (const std::string &name : core::checkedSchemeTags()) {
        core::RuntimeConfig cfg =
            *core::configForScheme(name, p.ewTarget);
        check::Schedule s = check::generate(7, cfg, p);
        check::DiffResult d = check::runSchedule(s, cfg);
        EXPECT_TRUE(d.ok) << name << ": " << (d.complaints.empty()
                                                  ? ""
                                                  : d.complaints[0]);
    }
}

TEST(CheckHarness, ShrinkReturnsCleanScheduleUnchanged)
{
    check::GenParams p;
    p.events = 20;
    core::RuntimeConfig cfg = *core::configForScheme("tm", p.ewTarget);
    check::Schedule s = check::generate(3, cfg, p);
    ASSERT_TRUE(check::runSchedule(s, cfg).ok);
    check::Schedule m = check::shrink(s, cfg);
    EXPECT_EQ(m.ops.size(), s.ops.size());
}

// --------------------------------------------- differential regression

TEST(CheckDifferential, TwoHundredSeedsPerSchemeStayClean)
{
    check::FuzzOptions opt;
    opt.seeds = 200;
    opt.shrink = true;

    check::FuzzResult res = check::fuzz(opt);
    EXPECT_EQ(res.executed, 1000u);
    for (const check::Divergence &d : res.divergences) {
        std::string detail;
        for (const std::string &c : d.complaints)
            detail += "  " + c + "\n";
        for (const check::Op &op : d.shrunk.ops)
            detail += "    " + check::describeOp(op) + "\n";
        ADD_FAILURE() << d.scheme << " seed " << d.seed
                      << " diverged:\n"
                      << detail;
    }
}
