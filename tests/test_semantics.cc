/**
 * @file
 * Unit tests for src/semantics: permission sets/groups, the TERP
 * poset, exposure-window tracking, the four attach/detach semantics
 * (including the Fig 3 and Fig 4 walkthroughs) and the temporal
 * protection theorem.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "semantics/attach_semantics.hh"
#include "semantics/ew_tracker.hh"
#include "semantics/permission.hh"
#include "semantics/poset.hh"
#include "semantics/theorem.hh"
#include "trace/trace_buffer.hh"

using namespace terp;
using namespace terp::semantics;

// -------------------------------------------------------- permissions

TEST(Rights, SubsetAndSetOps)
{
    EXPECT_TRUE(Rights::r().subsetOf(Rights::rw()));
    EXPECT_FALSE(Rights::rw().subsetOf(Rights::r()));
    EXPECT_TRUE(Rights::none().subsetOf(Rights::r()));
    EXPECT_EQ(Rights::rw().intersect(Rights::r()), Rights::r());
    EXPECT_EQ(Rights::r().unionWith(Rights(2)), Rights::rw());
    EXPECT_TRUE(Rights::rw().has(Right::Write));
    EXPECT_FALSE(Rights::r().has(Right::Write));
}

TEST(PermissionSet, SubsetIsPointwise)
{
    PermissionSet p, q;
    p.set(1, Rights::r());
    q.set(1, Rights::rw());
    q.set(2, Rights::r());
    EXPECT_TRUE(p.subsetOf(q));
    EXPECT_FALSE(q.subsetOf(p));
}

TEST(PermissionSet, IntersectDropsEmptyEntries)
{
    PermissionSet p, q;
    p.set(1, Rights::r());
    p.set(2, Rights::rw());
    q.set(2, Rights::r());
    PermissionSet i = p.intersect(q);
    EXPECT_EQ(i.objectCount(), 1u);
    EXPECT_EQ(i.rightsOn(2), Rights::r());
}

TEST(PermissionGroup, WellFormedRequiresSharedSubset)
{
    PermissionSet shared;
    shared.set(1, Rights::r());

    PermissionGroup g("readers", shared);
    PermissionSet rich;
    rich.set(1, Rights::rw());
    g.addAgent(100, rich);
    EXPECT_TRUE(g.wellFormed());

    PermissionSet poor; // no rights on object 1
    g.addAgent(101, poor);
    EXPECT_FALSE(g.wellFormed());
}

// -------------------------------------------------------------- poset

TEST(Poset, OrderAndTransitivity)
{
    Poset p;
    p.order("a", "b");
    p.order("b", "c");
    EXPECT_TRUE(p.leq("a", "c")); // transitive closure
    EXPECT_TRUE(p.leq("a", "a")); // reflexive
    EXPECT_FALSE(p.leq("c", "a"));
}

TEST(Poset, AntisymmetryViolationRejected)
{
    Poset p;
    EXPECT_TRUE(p.order("x", "y"));
    EXPECT_FALSE(p.order("y", "x"));
    // The failed order left the relation unchanged.
    EXPECT_TRUE(p.leq("x", "y"));
    EXPECT_FALSE(p.leq("y", "x"));
}

TEST(Poset, IncomparableElements)
{
    Poset p;
    p.order("t1", "proc");
    p.order("t2", "proc");
    EXPECT_FALSE(p.comparable("t1", "t2"));
    EXPECT_TRUE(p.comparable("t1", "proc"));
}

TEST(Poset, MinimalAndMaximal)
{
    Poset p;
    p.order("t1", "proc");
    p.order("t2", "proc");
    p.order("proc", "user");
    auto mins = p.minimal();
    auto maxs = p.maximal();
    EXPECT_EQ(mins.size(), 2u);
    ASSERT_EQ(maxs.size(), 1u);
    EXPECT_EQ(maxs[0], "user");
}

TEST(Poset, HasseEdgesAreCovers)
{
    Poset p;
    p.order("a", "b");
    p.order("b", "c");
    p.order("a", "c"); // implied; must NOT appear as a Hasse edge
    auto edges = p.hasseEdges();
    EXPECT_EQ(edges.size(), 2u);
    for (const auto &[lo, hi] : edges)
        EXPECT_FALSE(lo == "a" && hi == "c");
}

TEST(Poset, MeetOfChainAndDiamond)
{
    Poset p;
    p.order("bot", "l");
    p.order("bot", "r");
    p.order("l", "top");
    p.order("r", "top");
    EXPECT_EQ(p.meet("l", "r"), "bot");
    EXPECT_EQ(p.meet("l", "top"), "l");
}

TEST(Poset, CanonicalTerpPosetShape)
{
    Poset p = makeCanonicalTerpPoset();
    EXPECT_TRUE(
        p.leq("thread-permission-control", "user-level-acl"));
    EXPECT_EQ(p.minimal().size(), 1u);
    EXPECT_EQ(p.maximal().size(), 1u);
    std::string dot = p.toDot();
    EXPECT_NE(dot.find("thread-permission-control"),
              std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

// --------------------------------------------------------- ew tracker

TEST(EwTracker, ProcessWindowsAndRates)
{
    EwTracker t;
    t.processOpen(1, 1000);
    t.processClose(1, 3000);
    t.processOpen(1, 5000);
    t.processClose(1, 6000);
    auto m = t.metricsFor(1, 10000, 1);
    EXPECT_EQ(m.ewCount, 2u);
    EXPECT_NEAR(m.ewAvgUs, cyclesToUs(1500), 1e-9);
    EXPECT_NEAR(m.ewMaxUs, cyclesToUs(2000), 1e-9);
    EXPECT_NEAR(m.er, 0.3, 1e-9);
}

TEST(EwTracker, ThreadWindows)
{
    EwTracker t;
    t.processOpen(1, 0);
    t.threadOpen(0, 1, 100);
    t.threadClose(0, 1, 300);
    t.threadOpen(1, 1, 200);
    t.threadClose(1, 1, 600);
    t.processClose(1, 1000);
    auto m = t.metricsFor(1, 1000, 2);
    EXPECT_EQ(m.tewCount, 2u);
    EXPECT_NEAR(m.tewAvgUs, cyclesToUs(300), 1e-9);
    EXPECT_NEAR(m.ter, 600.0 / (1000.0 * 2), 1e-9);
}

TEST(EwTracker, FinalizeClosesOpenWindows)
{
    EwTracker t;
    t.processOpen(1, 100);
    t.threadOpen(0, 1, 200);
    t.finalize(1100);
    auto m = t.metricsFor(1, 1100, 1);
    EXPECT_EQ(m.ewCount, 1u);
    EXPECT_EQ(m.tewCount, 1u);
    EXPECT_NEAR(m.ewMaxUs, cyclesToUs(1000), 1e-9);
}

TEST(EwTracker, GuardsAgainstMisuse)
{
    EwTracker t;
    EXPECT_THROW(t.processClose(1, 5), std::logic_error);
    t.processOpen(1, 0);
    EXPECT_THROW(t.processOpen(1, 1), std::logic_error);
    EXPECT_THROW(t.threadClose(0, 1, 2), std::logic_error);
}

TEST(EwTracker, MetricsAllAveragesOverPmos)
{
    EwTracker t;
    t.processOpen(1, 0);
    t.processClose(1, 1000);
    t.processOpen(2, 0);
    t.processClose(2, 3000);
    auto m = t.metricsAll(10000, 1);
    EXPECT_NEAR(m.er, (0.1 + 0.3) / 2, 1e-9);
    EXPECT_NEAR(m.ewMaxUs, cyclesToUs(3000), 1e-9);
}

// ------------------------------------ exposure provenance (blame)

TEST(EwTrackerBlame, SegmentsTileWindowBitExact)
{
    EwTracker t;
    t.setBlameTarget(100);
    t.processOpen(1, 100);
    t.threadOpen(0, 1, 100);
    t.threadClose(0, 1, 150);
    // Held [100,150) -> AppHold. Idle [150,300) splits at the
    // deadline 100+100=200: AppHold to the deadline, SweeperLag
    // past it. 100 + 100 == the 200-cycle window, bit-exactly.
    t.processClose(1, 300);
    EXPECT_EQ(t.blameTotal(1, BlameCause::AppHold), 100u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::SweeperLag), 100u);
    Cycles sum = 0;
    for (unsigned c = 0; c < numBlameCauses; ++c)
        sum += t.blameTotal(1, static_cast<BlameCause>(c));
    EXPECT_EQ(sum, 200u);
}

TEST(EwTrackerBlame, ZeroTargetDisablesDeadlineSplit)
{
    EwTracker t; // blameTarget defaults to 0
    t.processOpen(1, 0);
    t.processClose(1, 5000);
    EXPECT_EQ(t.blameTotal(1, BlameCause::AppHold), 5000u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::SweeperLag), 0u);
}

TEST(EwTrackerBlame, HoldCauseOverridesHeldSpans)
{
    EwTracker t;
    t.setBlameTarget(1000);
    t.processOpen(1, 0);
    t.threadOpen(0, 1, 0);
    t.setHoldCause(1, BlameCause::SlowClientHold, 200);
    t.clearHoldCause(1, 600);
    t.threadClose(0, 1, 700);
    t.processClose(1, 800);
    EXPECT_EQ(t.blameTotal(1, BlameCause::SlowClientHold), 400u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::AppHold), 400u);
}

TEST(EwTrackerBlame, EnergyDarkBeatsQueueWaitBeatsDeadline)
{
    EwTracker t;
    t.setBlameTarget(100);
    t.processOpen(1, 0);
    // Idle from the start; queued work from 300; dark from 600.
    // Priority per span: dark > idle override > deadline split.
    t.setIdleCause(1, BlameCause::QueueWait, 300);
    t.setEnergyDark(true, 600);
    t.setEnergyDark(false, 900);
    t.processClose(1, 1000);
    // [0,100) AppHold (pre-deadline), [100,300) SweeperLag,
    // [300,600) QueueWait, [600,900) EnergyDark, [900,1000)
    // QueueWait again (override still installed).
    EXPECT_EQ(t.blameTotal(1, BlameCause::AppHold), 100u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::SweeperLag), 200u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::QueueWait), 400u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::EnergyDark), 300u);
}

TEST(EwTrackerBlame, RecoveryReopenIsTheIdleBase)
{
    EwTracker t;
    t.setBlameTarget(100);
    t.setRecoveryActive(true);
    t.processOpen(1, 0);
    t.setRecoveryActive(false);
    t.processClose(1, 300);
    // The recovery pass reopened the window; nobody held it. Up to
    // the deadline that's RecoveryReopen, past it SweeperLag.
    EXPECT_EQ(t.blameTotal(1, BlameCause::RecoveryReopen), 100u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::SweeperLag), 200u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::AppHold), 0u);
}

TEST(EwTrackerBlame, ExternalHoldCountsAsHeld)
{
    EwTracker t;
    t.setBlameTarget(100);
    t.processOpen(1, 0);
    t.setExternalHold(1, true, 0);
    t.setExternalHold(1, false, 500);
    t.processClose(1, 600);
    // Held (manual span) [0,500) -> AppHold; idle [500,600) is all
    // past the deadline -> SweeperLag.
    EXPECT_EQ(t.blameTotal(1, BlameCause::AppHold), 500u);
    EXPECT_EQ(t.blameTotal(1, BlameCause::SweeperLag), 100u);
}

TEST(EwTrackerBlame, SegmentHookSeesTruncatedSegments)
{
    EwTracker t;
    t.setBlameTarget(100);
    trace::TraceSink sink;
    t.setTraceSink(&sink);
    t.processOpen(1, 0);
    t.threadOpen(0, 1, 0);
    // The thread's clock ran ahead of the sweeper's close time: the
    // flush extends to 500, but the close at 400 must truncate.
    t.threadClose(0, 1, 500);
    t.processClose(1, 400);
    std::vector<std::pair<Cycles, BlameCause>> got;
    for (const trace::Event &e : sink.events()) {
        EXPECT_EQ(e.kind, trace::EventKind::BlameSegment);
        EXPECT_EQ(e.tid, trace::TraceSink::sweeperTid);
        EXPECT_EQ(e.pmo, 1u);
        got.push_back({e.ts, static_cast<BlameCause>(e.arg)});
    }
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, 400u);
    EXPECT_EQ(got[0].second, BlameCause::AppHold);
    EXPECT_EQ(t.blameTotal(1, BlameCause::AppHold), 400u);
}

TEST(EwTrackerBlame, CloseHookReportsWindowLength)
{
    EwTracker t;
    std::vector<std::pair<Cycles, Cycles>> closes;
    t.setCloseHook([&](pm::PmoId, Cycles at, Cycles len) {
        closes.push_back({at, len});
    });
    t.processOpen(1, 100);
    t.processClose(1, 350);
    t.processOpen(1, 400);
    t.finalize(1000);
    ASSERT_EQ(closes.size(), 2u);
    EXPECT_EQ(closes[0], (std::pair<Cycles, Cycles>{350, 250}));
    EXPECT_EQ(closes[1], (std::pair<Cycles, Cycles>{1000, 600}));
}

TEST(EwTrackerBlame, TenantLabeledCounters)
{
    metrics::Registry reg;
    EwTracker t;
    t.enableMetrics(&reg);
    t.setTenant(1, "acme");
    t.processOpen(1, 0);
    t.processClose(1, 700);
    const metrics::Counter *c = reg.findCounter(
        "exposure.blame_total{cause=\"app_hold\",tenant=\"acme\"}");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 700u);
}

TEST(EwTrackerBlame, SloViolationsCountOncePerClosedWindow)
{
    // The crash/recover shape at the tracker level: a long window
    // closed by the crash counts one EW SLO violation; the window
    // the recovery pass reopens is a *new* window and only counts
    // if it exceeds the SLO on its own. No double counting of the
    // pre-crash span.
    EwTracker t;
    t.setSlo(500, 0);
    t.processOpen(1, 0);
    t.processClose(1, 1000); // crash close: violation #1
    EXPECT_EQ(t.sloEwViolations(), 1u);
    t.resetTransientCauses();
    t.setRecoveryActive(true);
    t.processOpen(1, 1000); // recovery reopen
    t.setRecoveryActive(false);
    t.processClose(1, 1200); // 200 < 500: no new violation
    EXPECT_EQ(t.sloEwViolations(), 1u);
    t.processOpen(1, 2000);
    t.processClose(1, 2800); // 800 > 500: its own violation
    EXPECT_EQ(t.sloEwViolations(), 2u);
}

// --------------------------------------- the four semantics (Fig 3)

namespace {

/** The Fig 3 event script: attach, access, detach, access, attach,
 *  attach (nested), access, detach, detach. All on thread 0. */
enum class Ev { At, De, Ac };
const std::vector<Ev> fig3Script = {Ev::At, Ev::Ac, Ev::De, Ev::Ac,
                                    Ev::At, Ev::At, Ev::Ac, Ev::De,
                                    Ev::De};

std::vector<Verdict>
runScript(AttachSemantics &sem, const std::vector<Ev> &script,
          unsigned tid = 0)
{
    std::vector<Verdict> out;
    Cycles t = 0;
    for (Ev e : script) {
        t += 10;
        switch (e) {
          case Ev::At:
            out.push_back(sem.onAttach(tid, 1, t));
            break;
          case Ev::De:
            out.push_back(sem.onDetach(tid, 1, t));
            break;
          case Ev::Ac:
            out.push_back(sem.onAccess(tid, 1, t));
            break;
        }
    }
    return out;
}

} // namespace

TEST(Fig3, BasicSemanticsPoisonsAfterDoubleAttach)
{
    BasicSemantics sem;
    auto v = runScript(sem, fig3Script);
    std::vector<Verdict> expect = {
        Verdict::Performed, Verdict::Valid,   Verdict::Performed,
        Verdict::Invalid,   Verdict::Performed, Verdict::Invalid,
        Verdict::Undefined, Verdict::Undefined, Verdict::Undefined};
    EXPECT_EQ(v, expect);
}

TEST(Fig3, OutermostSilencesInnerPairs)
{
    OutermostSemantics sem;
    auto v = runScript(sem, fig3Script);
    std::vector<Verdict> expect = {
        Verdict::Performed, Verdict::Valid,  Verdict::Performed,
        Verdict::SegFault,  Verdict::Performed, Verdict::Silent,
        Verdict::Valid,     Verdict::Silent, Verdict::Performed};
    EXPECT_EQ(v, expect);
}

TEST(Fig3, FcfsReattachesOnAccessAfterEarlyDetach)
{
    FcfsSemantics sem;
    auto v = runScript(sem, fig3Script);
    std::vector<Verdict> expect = {
        Verdict::Performed, Verdict::Valid,  Verdict::Performed,
        Verdict::SegFault,  Verdict::Performed, Verdict::Silent,
        Verdict::Valid,     Verdict::Performed, Verdict::Silent};
    EXPECT_EQ(v, expect);

    // The hallmark FCFS case: access between the performed detach
    // and the outermost detach triggers an automatic re-attach.
    FcfsSemantics sem2;
    EXPECT_EQ(sem2.onAttach(0, 1, 0), Verdict::Performed);
    EXPECT_EQ(sem2.onAttach(0, 1, 1), Verdict::Silent);
    EXPECT_EQ(sem2.onDetach(0, 1, 2), Verdict::Performed);
    EXPECT_EQ(sem2.onAccess(0, 1, 3), Verdict::Reattach);
    EXPECT_EQ(sem2.onDetach(0, 1, 4), Verdict::Performed);
}

TEST(Fig3, EwConsciousLowersAndRejectsSameThreadOverlap)
{
    // Large L: detaches lower to permission revokes.
    EwConsciousSemantics sem(usToCycles(1000.0));
    EXPECT_EQ(sem.onAttach(0, 1, 10), Verdict::Performed);
    EXPECT_EQ(sem.onAccess(0, 1, 20), Verdict::Valid);
    EXPECT_EQ(sem.onDetach(0, 1, 30), Verdict::Silent);
    EXPECT_TRUE(sem.mapped(1)); // window combining: stays mapped
    // Without permission the access is denied (not a segfault).
    EXPECT_EQ(sem.onAccess(0, 1, 40), Verdict::Invalid);
    EXPECT_EQ(sem.onAttach(0, 1, 50), Verdict::Silent);
    // Same-thread overlapping pair is invalid (Section IV-C).
    EXPECT_EQ(sem.onAttach(0, 1, 60), Verdict::Invalid);
}

TEST(Fig3, EwConsciousRealDetachNeedsSpanAndNoHolders)
{
    EwConsciousSemantics sem(100);
    sem.onAttach(0, 1, 0);
    sem.onAttach(1, 1, 10);
    // Span exceeded but thread 1 still holds: lowered.
    EXPECT_EQ(sem.onDetach(0, 1, 500), Verdict::Silent);
    EXPECT_TRUE(sem.mapped(1));
    // Last holder leaves after the span: real detach.
    EXPECT_EQ(sem.onDetach(1, 1, 600), Verdict::Performed);
    EXPECT_FALSE(sem.mapped(1));
    EXPECT_EQ(sem.onAccess(0, 1, 700), Verdict::SegFault);
}

TEST(Fig4, EwConsciousThreeThreadWalkthrough)
{
    EwConsciousSemantics sem(0); // span condition always met
    // Thread 1 attaches read-only; PMO was unmapped -> performed.
    EXPECT_EQ(sem.onAttach(1, 1, 0, pm::Mode::Read),
              Verdict::Performed);
    // ld A permitted; st B denied (insufficient thread permission).
    EXPECT_EQ(sem.onAccess(1, 1, 1, false), Verdict::Valid);
    EXPECT_EQ(sem.onAccess(1, 1, 2, true), Verdict::Invalid);
    // Thread 2 attaches read-write -> lowered; st B permitted.
    EXPECT_EQ(sem.onAttach(2, 1, 3, pm::Mode::ReadWrite),
              Verdict::Silent);
    EXPECT_EQ(sem.onAccess(2, 1, 4, true), Verdict::Valid);
    // Thread 1 detach: removes its permission, no real detach
    // (thread 2 can still access).
    EXPECT_EQ(sem.onDetach(1, 1, 5), Verdict::Silent);
    EXPECT_TRUE(sem.mapped(1));
    // Thread 1's subsequent ld C is denied.
    EXPECT_EQ(sem.onAccess(1, 1, 6, false), Verdict::Invalid);
    // Thread 2 detach: real detach; st C segfaults.
    EXPECT_EQ(sem.onDetach(2, 1, 7), Verdict::Performed);
    EXPECT_EQ(sem.onAccess(2, 1, 8, true), Verdict::SegFault);
    // Thread 3 never attached: all accesses invalid.
    EXPECT_EQ(sem.onAccess(3, 1, 9, false), Verdict::SegFault);
}

TEST(Semantics, FactoryProducesRequestedKind)
{
    for (auto k :
         {SemanticsKind::Basic, SemanticsKind::Outermost,
          SemanticsKind::Fcfs, SemanticsKind::EwConscious}) {
        auto sem = AttachSemantics::make(k);
        EXPECT_EQ(sem->kind(), k);
    }
}

// Property: under every semantics, a well-formed single-threaded
// nest of attach..detach pairs never yields Invalid/Undefined, and
// the PMO ends unmapped (after enough detaches, for EW with L=0).
class WellFormedNestTest
    : public ::testing::TestWithParam<SemanticsKind>
{
};

TEST_P(WellFormedNestTest, NestedPairsBehaveUnderAllButBasic)
{
    auto sem = AttachSemantics::make(GetParam(), 0);
    Rng rng(99);
    int depth = 0;
    Cycles t = 0;
    for (int i = 0; i < 500; ++i) {
        t += 10;
        bool open = depth == 0 || (depth < 3 && rng.nextBool(0.5));
        // Basic and EW-conscious forbid same-thread overlap.
        if (GetParam() == SemanticsKind::Basic ||
            GetParam() == SemanticsKind::EwConscious) {
            open = depth == 0;
        }
        if (open) {
            Verdict v = sem->onAttach(0, 1, t);
            EXPECT_NE(v, Verdict::Invalid);
            EXPECT_NE(v, Verdict::Undefined);
            ++depth;
        } else {
            Verdict v = sem->onDetach(0, 1, t);
            EXPECT_NE(v, Verdict::Invalid);
            EXPECT_NE(v, Verdict::Undefined);
            --depth;
        }
        if (depth > 0) {
            Verdict av = sem->onAccess(0, 1, t + 1);
            // FCFS may auto-reattach after its early real detach.
            EXPECT_TRUE(av == Verdict::Valid ||
                        av == Verdict::Reattach);
        }
    }
    while (depth-- > 0)
        sem->onDetach(0, 1, t += 10);
    EXPECT_FALSE(sem->mapped(1));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, WellFormedNestTest,
    ::testing::Values(SemanticsKind::Basic, SemanticsKind::Outermost,
                      SemanticsKind::Fcfs,
                      SemanticsKind::EwConscious));

// ------------------------------------------------------------ theorem

TEST(Theorem, ShortMovingWindowsPreventAttack)
{
    std::vector<StationaryWindow> h = {
        {0, 50, 0xA000}, {100, 160, 0xB000}, {200, 240, 0xC000}};
    EXPECT_EQ(maxStationaryExposure(h), 60u);
    EXPECT_TRUE(attackPrevented(h, 61));
    EXPECT_FALSE(attackPrevented(h, 60));
}

TEST(Theorem, StationaryWindowsCoalesce)
{
    // The region did not move between windows: probing progress
    // carries over, so the spans add up.
    std::vector<StationaryWindow> h = {
        {0, 50, 0xA000}, {100, 160, 0xA000}, {200, 240, 0xB000}};
    EXPECT_EQ(maxStationaryExposure(h), 110u);
    EXPECT_FALSE(attackPrevented(h, 100));
    EXPECT_TRUE(attackPrevented(h, 111));
}

TEST(Theorem, EmptyHistoryIsSafe)
{
    EXPECT_TRUE(attackPrevented({}, 1));
}
