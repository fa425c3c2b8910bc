/**
 * @file
 * Function-composability tests: dynamically nested attach/detach
 * pairs (a callee with its own pairs running inside a caller's open
 * pair) must lower to silent operations under TERP, keep permissions
 * open until the outermost detach, and never corrupt the exposure
 * accounting — the paper's "allows nesting" property. Also covers
 * the DeadTimeAnalysis helper.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "pm/pmo_manager.hh"
#include "security/dead_time.hh"
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

    explicit Rig(const RuntimeConfig &cfg) : pmos(5)
    {
        pmo = pmos.create("nest", 4 * MiB).id();
        rt = std::make_unique<Runtime>(mach, pmos, cfg);
        tc = &mach.spawnThread();
    }
};

} // namespace

TEST(Nesting, InnerPairsAreSilentUnderTt)
{
    Rig r(RuntimeConfig::tt());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite); // outer
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite); // callee
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), true),
              AccessOutcome::Ok);
    r.rt->regionEnd(*r.tc, r.pmo); // callee returns
    // Permission must still be open (the caller's pair is).
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), true),
              AccessOutcome::Ok);
    r.rt->regionEnd(*r.tc, r.pmo); // outer closes
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), true),
              AccessOutcome::NoThreadPerm);

    // Only one real attach; the nested pair cost two conditional
    // instructions and nothing else.
    OverheadReport rep = r.rt->report();
    EXPECT_EQ(rep.attachSyscalls, 1u);
    EXPECT_EQ(rep.condOps, 4u);
    EXPECT_EQ(r.rt->report().nestedRegions, 1u);
}

TEST(Nesting, DeepNestsUnwindCorrectly)
{
    Rig r(RuntimeConfig::tt());
    for (int i = 0; i < 5; ++i)
        r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    for (int i = 0; i < 4; ++i) {
        r.rt->regionEnd(*r.tc, r.pmo);
        EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 64), false),
                  AccessOutcome::Ok)
            << "depth " << 4 - i;
    }
    r.rt->regionEnd(*r.tc, r.pmo);
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 64), false),
              AccessOutcome::NoThreadPerm);
    r.rt->finalize();
    // Exactly one thread exposure window despite five pairs.
    auto m = r.rt->exposure().metricsFor(r.pmo, r.tc->now() + 1, 1);
    EXPECT_EQ(m.tewCount, 1u);
}

TEST(Nesting, WorksUnderTmToo)
{
    Rig r(RuntimeConfig::tm());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    Cycles after_outer = r.tc->now();
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite); // nested
    // The nested call still traps (cheap) but performs no mapping.
    EXPECT_EQ(r.tc->now() - after_outer, latency::permSyscall);
    r.rt->regionEnd(*r.tc, r.pmo);
    EXPECT_TRUE(r.rt->mapped(r.pmo));
    r.rt->regionEnd(*r.tc, r.pmo);
    EXPECT_EQ(r.rt->report().attachSyscalls, 1u);
}

TEST(Nesting, UnbalancedEndPanics)
{
    Rig r(RuntimeConfig::tt());
    EXPECT_THROW(r.rt->regionEnd(*r.tc, r.pmo), std::logic_error);
}

TEST(Nesting, IndependentPmosDoNotNest)
{
    Rig r(RuntimeConfig::tt());
    pm::PmoId other = r.pmos.create("other", 1 * MiB).id();
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.rt->regionBegin(*r.tc, other, pm::Mode::ReadWrite);
    EXPECT_EQ(r.rt->report().nestedRegions, 0u);
    r.rt->regionEnd(*r.tc, other);
    r.rt->regionEnd(*r.tc, r.pmo);
}

// ------------------------------------------------ dead-time analysis

TEST(DeadTime, SurfaceReductionAndRecommendation)
{
    security::DeadTimeAnalysis a;
    // 5% of objects die within 1us, 45% just above 2us, 50% at 9us.
    for (int i = 0; i < 5; ++i)
        a.add(0.8);
    for (int i = 0; i < 45; ++i)
        a.add(2.5);
    for (int i = 0; i < 50; ++i)
        a.add(9.0);
    EXPECT_NEAR(a.surfaceReduction(2.0), 0.95, 1e-9);
    EXPECT_NEAR(a.surfaceReduction(4.0), 0.50, 1e-9);
    // The largest TEW achieving >= 95% reduction is 2us, the
    // paper's pick; for 50% it is 8us (last bound under 9us).
    EXPECT_DOUBLE_EQ(a.recommendTew(0.95), 2.0);
    EXPECT_DOUBLE_EQ(a.recommendTew(0.50), 8.0);
    EXPECT_EQ(a.sampleCount(), 100u);
}

TEST(DeadTime, EmptyAnalysisIsSafe)
{
    security::DeadTimeAnalysis a;
    EXPECT_DOUBLE_EQ(a.surfaceReduction(2.0), 0.0);
    EXPECT_DOUBLE_EQ(a.recommendTew(0.95), 0.0);
}
