/**
 * @file
 * Integration tests for the protection runtime (src/core): scheme
 * behaviours, window combining, sweeping, randomization, access
 * checking and overhead accounting.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"

using namespace terp;
using namespace terp::core;

namespace {

struct Rig
{
    sim::Machine mach;
    pm::PmoManager pmos;
    pm::PmoId pmo;
    std::unique_ptr<Runtime> rt;
    sim::ThreadContext *tc;

    explicit Rig(const RuntimeConfig &cfg, unsigned threads = 1)
        : pmos(7)
    {
        pmo = pmos.create("test", 8 * MiB).id();
        rt = std::make_unique<Runtime>(mach, pmos, cfg);
        for (unsigned i = 0; i < threads; ++i)
            mach.spawnThread();
        tc = &mach.thread(0);
    }
};

} // namespace

// ------------------------------------------------------- unprotected

TEST(RuntimeUnprotected, AutoMapsAndNeverCharges)
{
    Rig r(RuntimeConfig::unprotected());
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 64), true),
              AccessOutcome::Ok);
    EXPECT_TRUE(r.rt->mapped(r.pmo));
    OverheadReport rep = r.rt->report();
    EXPECT_EQ(rep.attachSyscalls, 0u);
    EXPECT_EQ(rep.attach, 0u);
    EXPECT_EQ(rep.other, 0u); // no permission-matrix charge
}

TEST(RuntimeUnprotected, MarkersAreNoOps)
{
    Rig r(RuntimeConfig::unprotected());
    r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    EXPECT_EQ(r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite),
              GuardResult::Ok);
    r.rt->regionEnd(*r.tc, r.pmo);
    r.rt->manualEnd(*r.tc, r.pmo);
    EXPECT_EQ(r.tc->now(), 0u);
}

// ----------------------------------------------------------------- MM

TEST(RuntimeMm, ManualLifecycleChargesSyscalls)
{
    Rig r(RuntimeConfig::mm());
    r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    EXPECT_TRUE(r.rt->mapped(r.pmo));
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), true),
              AccessOutcome::Ok);
    r.rt->manualEnd(*r.tc, r.pmo);
    EXPECT_FALSE(r.rt->mapped(r.pmo));

    OverheadReport rep = r.rt->report();
    EXPECT_EQ(rep.attachSyscalls, 1u);
    EXPECT_EQ(rep.detachSyscalls, 1u);
    EXPECT_EQ(rep.attach, latency::attachSyscall);
    EXPECT_EQ(rep.detach,
              latency::detachSyscall + latency::tlbInvalidate);
    // MERR randomizes placement at attach.
    EXPECT_EQ(rep.rand, latency::randomize);
}

TEST(RuntimeMm, AccessOutsideWindowSegfaults)
{
    Rig r(RuntimeConfig::mm());
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), false),
              AccessOutcome::NoMapping);
}

TEST(RuntimeMm, NestedManualAttachPanics)
{
    Rig r(RuntimeConfig::mm());
    r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    EXPECT_THROW(
        r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite),
        std::logic_error);
}

TEST(RuntimeMm, RegionMarkersIgnored)
{
    Rig r(RuntimeConfig::mm());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.rt->regionEnd(*r.tc, r.pmo);
    EXPECT_EQ(r.tc->now(), 0u);
}

TEST(RuntimeMm, SweepRerandomizesLongWindows)
{
    Rig r(RuntimeConfig::mm(usToCycles(40)));
    r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    std::uint64_t base = r.pmos.pmo(r.pmo).vaddrBase();
    r.tc->work(usToCycles(60)); // overstay the window
    r.rt->onSweep(usToCycles(50));
    EXPECT_TRUE(r.rt->mapped(r.pmo));
    EXPECT_NE(r.pmos.pmo(r.pmo).vaddrBase(), base);
    EXPECT_GT(r.rt->report().rand, latency::randomize);
    r.rt->manualEnd(*r.tc, r.pmo);
}

TEST(RuntimeMm, ExposureWindowsRecorded)
{
    Rig r(RuntimeConfig::mm());
    r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.tc->work(usToCycles(10));
    r.rt->manualEnd(*r.tc, r.pmo);
    r.tc->work(usToCycles(30));
    r.rt->finalize();
    auto m = r.rt->exposure().metricsFor(r.pmo, r.tc->now(), 1);
    EXPECT_EQ(m.ewCount, 1u);
    EXPECT_NEAR(m.ewAvgUs, 10.0, 3.0); // + syscall time inside
}

// ----------------------------------------------------------------- TT

TEST(RuntimeTt, WindowCombiningElidesSyscalls)
{
    Rig r(RuntimeConfig::tt());
    for (int i = 0; i < 10; ++i) {
        r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
        r.rt->access(*r.tc, pm::Oid(r.pmo, 128), true);
        r.rt->regionEnd(*r.tc, r.pmo);
        r.tc->work(usToCycles(1));
    }
    OverheadReport rep = r.rt->report();
    EXPECT_EQ(rep.attachSyscalls, 1u); // only the first was real
    EXPECT_EQ(rep.detachSyscalls, 0u); // all delayed
    EXPECT_EQ(rep.condOps, 20u);
    EXPECT_GT(rep.silentFraction, 0.9);
    EXPECT_TRUE(r.rt->mapped(r.pmo)); // still combined
}

TEST(RuntimeTt, ThreadPermissionEnforced)
{
    Rig r(RuntimeConfig::tt(), 2);
    sim::ThreadContext &t1 = r.mach.thread(1);
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    // Thread 0 holds permission; thread 1 does not.
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), true),
              AccessOutcome::Ok);
    EXPECT_EQ(r.rt->tryAccess(t1, pm::Oid(r.pmo, 0), false),
              AccessOutcome::NoThreadPerm);
    r.rt->regionEnd(*r.tc, r.pmo);
    // After region end thread 0 loses permission too (PMO still
    // mapped thanks to the delayed detach).
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), false),
              AccessOutcome::NoThreadPerm);
}

TEST(RuntimeTt, ReadOnlyGrantRejectsWrites)
{
    Rig r(RuntimeConfig::tt());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::Read);
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), false),
              AccessOutcome::Ok);
    // The process-wide matrix entry was installed read-only, so the
    // write is denied at the matrix before the MPK check.
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), true),
              AccessOutcome::NoProcessPerm);
    r.rt->regionEnd(*r.tc, r.pmo);
}

TEST(RuntimeTt, SweepDetachesAfterWindowTarget)
{
    Rig r(RuntimeConfig::tt(usToCycles(40)));
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.rt->regionEnd(*r.tc, r.pmo); // delayed detach
    EXPECT_TRUE(r.rt->mapped(r.pmo));
    r.tc->work(usToCycles(60));
    r.rt->onSweep(usToCycles(41));
    EXPECT_FALSE(r.rt->mapped(r.pmo));
    EXPECT_EQ(r.rt->report().detachSyscalls, 1u);
}

TEST(RuntimeTt, SweepRandomizesBusyWindows)
{
    Rig r(RuntimeConfig::tt(usToCycles(40)));
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    std::uint64_t base = r.pmos.pmo(r.pmo).vaddrBase();
    r.tc->work(usToCycles(60)); // still inside the region
    r.rt->onSweep(usToCycles(41));
    EXPECT_TRUE(r.rt->mapped(r.pmo));
    EXPECT_NE(r.pmos.pmo(r.pmo).vaddrBase(), base);
    // Permission matrix was rebased: accesses still work.
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), true),
              AccessOutcome::Ok);
    r.rt->regionEnd(*r.tc, r.pmo);
}

TEST(RuntimeTt, ExposureMetricsTrackWindowsAndTews)
{
    Rig r(RuntimeConfig::tt(usToCycles(40)));
    for (int i = 0; i < 3; ++i) {
        r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
        r.tc->work(usToCycles(2));
        r.rt->regionEnd(*r.tc, r.pmo);
        r.tc->work(usToCycles(5));
    }
    r.rt->finalize();
    auto m = r.rt->exposure().metricsFor(r.pmo, r.tc->now(), 1);
    EXPECT_EQ(m.tewCount, 3u);
    EXPECT_NEAR(m.tewAvgUs, 2.0, 0.2);
    EXPECT_EQ(m.ewCount, 1u); // one combined window
}

// ----------------------------------------------------------------- TM

TEST(RuntimeTm, EveryRegionOpTrapsToKernel)
{
    Rig r(RuntimeConfig::tm());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite); // real
    r.rt->regionEnd(*r.tc, r.pmo); // lowered, still a syscall
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite); // lowered
    r.rt->regionEnd(*r.tc, r.pmo);
    OverheadReport rep = r.rt->report();
    EXPECT_EQ(rep.attachSyscalls, 1u);
    EXPECT_EQ(rep.condOps, 0u); // no conditional instructions
    // Lowered ops charged as kernel permission toggles.
    EXPECT_EQ(rep.attach,
              latency::attachSyscall + latency::permSyscall);
    EXPECT_EQ(rep.detach, 2 * latency::permSyscall);
    EXPECT_TRUE(r.rt->mapped(r.pmo)); // software window combining
}

TEST(RuntimeTm, RealDetachAfterSpanExceeded)
{
    Rig r(RuntimeConfig::tm(usToCycles(40)));
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.tc->work(usToCycles(50));
    r.rt->regionEnd(*r.tc, r.pmo);
    EXPECT_FALSE(r.rt->mapped(r.pmo));
    EXPECT_EQ(r.rt->report().detachSyscalls, 1u);
}

// ------------------------------------------------- basic (ablation)

TEST(RuntimeBasic, SecondThreadBlocksUntilDetach)
{
    Rig r(RuntimeConfig::basicSemantics(), 2);
    sim::ThreadContext &t0 = *r.tc;
    sim::ThreadContext &t1 = r.mach.thread(1);

    EXPECT_EQ(r.rt->regionBegin(t0, r.pmo, pm::Mode::ReadWrite),
              GuardResult::Ok);
    EXPECT_EQ(r.rt->regionBegin(t1, r.pmo, pm::Mode::ReadWrite),
              GuardResult::Blocked);
    EXPECT_TRUE(t1.blocked());

    t0.work(usToCycles(3));
    r.rt->regionEnd(t0, r.pmo);
    EXPECT_FALSE(t1.blocked());
    EXPECT_GE(t1.now(), t0.now()); // woken at the detach time
    EXPECT_EQ(r.rt->regionBegin(t1, r.pmo, pm::Mode::ReadWrite),
              GuardResult::Ok);
    r.rt->regionEnd(t1, r.pmo);
}

// ------------------------------------------------------ vaddr access

TEST(RuntimeVaddr, StaleAddressFaultsAfterRandomize)
{
    Rig r(RuntimeConfig::tt(usToCycles(40)));
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    std::uint64_t leaked = r.pmos.pmo(r.pmo).vaddrBase() + 256;
    EXPECT_EQ(r.rt->tryAccessVaddr(*r.tc, leaked, true),
              AccessOutcome::Ok);
    // Randomization invalidates the leaked address.
    r.tc->work(usToCycles(60));
    r.rt->onSweep(usToCycles(41));
    EXPECT_EQ(r.rt->tryAccessVaddr(*r.tc, leaked, true),
              AccessOutcome::NoMapping);
    r.rt->regionEnd(*r.tc, r.pmo);
}

TEST(RuntimeVaddr, ThreadPermissionAppliesToRawPointers)
{
    Rig r(RuntimeConfig::tt(), 2);
    sim::ThreadContext &t1 = r.mach.thread(1);
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    std::uint64_t addr = r.pmos.pmo(r.pmo).vaddrBase();
    EXPECT_EQ(r.rt->tryAccessVaddr(t1, addr, true),
              AccessOutcome::NoThreadPerm);
    r.rt->regionEnd(*r.tc, r.pmo);
}

// --------------------------------------------------------- reporting

TEST(RuntimeReport, TotalsAreConsistent)
{
    Rig r(RuntimeConfig::tt());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.rt->accessRange(*r.tc, pm::Oid(r.pmo, 0), 256, true);
    r.rt->regionEnd(*r.tc, r.pmo);
    OverheadReport rep = r.rt->report();
    EXPECT_EQ(rep.total, r.tc->now());
    EXPECT_EQ(rep.total, rep.work + rep.attach + rep.detach +
                             rep.rand + rep.cond + rep.other);
    // 256 bytes = 4 line accesses, each with a 1-cycle matrix check.
    EXPECT_EQ(rep.other, 4u);
}

TEST(RuntimeReport, AccessRangeTouchesEveryLine)
{
    Rig r(RuntimeConfig::unprotected());
    Cycles before = r.tc->now();
    r.rt->accessRange(*r.tc, pm::Oid(r.pmo, 0), 8 * lineSize, false);
    // 8 cold NVM lines: each costs > latency::nvm.
    EXPECT_GT(r.tc->now() - before, 8 * latency::nvm);
}

// Parameterized scheme sanity: a simple guarded access pattern works
// under every scheme without faults.
class SchemeSmokeTest
    : public ::testing::TestWithParam<int>
{
  public:
    static RuntimeConfig
    cfgFor(int i)
    {
        switch (i) {
          case 0: return RuntimeConfig::unprotected();
          case 1: return RuntimeConfig::mm();
          case 2: return RuntimeConfig::tm();
          case 3: return RuntimeConfig::tt();
          case 4: return RuntimeConfig::ttNoCombining();
          default: return RuntimeConfig::basicSemantics();
        }
    }
};

TEST_P(SchemeSmokeTest, GuardedAccessesNeverFault)
{
    Rig r(SchemeSmokeTest::cfgFor(GetParam()));
    for (int i = 0; i < 20; ++i) {
        r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
        r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
        EXPECT_EQ(r.rt->tryAccess(*r.tc,
                                  pm::Oid(r.pmo, 64 * (i % 10)),
                                  i % 2 == 0),
                  AccessOutcome::Ok);
        r.rt->regionEnd(*r.tc, r.pmo);
        r.rt->manualEnd(*r.tc, r.pmo);
        r.tc->work(usToCycles(1));
        r.rt->onSweep(r.tc->now());
    }
    r.rt->finalize();
    EXPECT_GT(r.tc->now(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeSmokeTest,
                         ::testing::Range(0, 6));

// ------------------------------------------------------ scheme table

TEST(SchemeTable, ConfigForSchemeInvertsSchemeTag)
{
    for (const char *tag :
         {"unprotected", "mm", "tm", "tt", "ttnc", "basic"}) {
        std::optional<RuntimeConfig> cfg = configForScheme(tag);
        ASSERT_TRUE(cfg.has_value()) << tag;
        EXPECT_STREQ(schemeTag(cfg->scheme), tag);
    }
    EXPECT_FALSE(configForScheme("bogus").has_value());
    EXPECT_FALSE(configForScheme("TT").has_value());
}

// The scheme matrix, spelled out per tag: its protection properties,
// its paper label and its description at the default targets.
TEST(SchemeTable, EveryTagPinsItsProperties)
{
    struct Row
    {
        const char *tag;
        bool manual, autoIns, cond, cb, threadPerms, basic, randomize;
        const char *name;
        const char *described;
    };
    const Row rows[] = {
        {"unprotected", false, false, false, false, false, false, false,
         "Unprotected", "Unprotected(ew=40us, tew=2us)"},
        {"mm", true, false, false, false, false, false, true, "MM",
         "MM(ew=40us, tew=2us)"},
        {"tm", false, true, false, false, true, false, true, "TM",
         "TM(ew=40us, tew=2us)"},
        {"tt", false, true, true, true, true, false, false, "TT",
         "TT(ew=40us, tew=2us, cond, cb)"},
        {"ttnc", false, true, true, false, true, false, false, "TT",
         "TT(ew=40us, tew=2us, cond)"},
        {"basic", false, true, false, false, false, true, true, "TM",
         "TM(ew=40us, tew=2us, basic)"},
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(r.tag);
        std::optional<RuntimeConfig> cfg = configForScheme(r.tag);
        ASSERT_TRUE(cfg.has_value());
        EXPECT_EQ(cfg->scheme == Scheme::MM, r.manual);
        EXPECT_EQ(cfg->autoInsertion(), r.autoIns);
        EXPECT_EQ(cfg->condInstructions(), r.cond);
        EXPECT_EQ(cfg->scheme == Scheme::TT, r.cb);
        EXPECT_EQ(cfg->threadPerms(), r.threadPerms);
        EXPECT_EQ(cfg->scheme == Scheme::Basic, r.basic);
        EXPECT_EQ(cfg->randomizeOnAttach(), r.randomize);
        EXPECT_STREQ(schemeName(cfg->scheme), r.name);
        EXPECT_EQ(cfg->describe(), r.described);
    }

    // A default-constructed config is the unprotected one.
    const RuntimeConfig d;
    const RuntimeConfig u = RuntimeConfig::unprotected();
    EXPECT_EQ(d.scheme, u.scheme);
    EXPECT_EQ(d.ewTarget, u.ewTarget);
    EXPECT_EQ(d.tewTarget, u.tewTarget);
    EXPECT_EQ(d.ewSlo, u.ewSlo);
    EXPECT_EQ(d.tewSlo, u.tewSlo);
    EXPECT_EQ(d.traceEnabled, u.traceEnabled);
    EXPECT_EQ(d.traceCapacity, u.traceCapacity);
    EXPECT_EQ(d.metricsEnabled, u.metricsEnabled);
    EXPECT_EQ(d.describe(), u.describe());
    EXPECT_STREQ(schemeTag(d.scheme), "unprotected");
}
