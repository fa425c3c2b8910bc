/**
 * @file
 * Tests for the security analysis: the Table V attack model, the
 * Table VI gadget census, the Fig 12 data-only attack simulation and
 * the Fig 8 dead-time histogram.
 */

#include <gtest/gtest.h>

#include "compiler/builder.hh"
#include "security/attack_model.hh"
#include "security/dead_time.hh"
#include "security/dop.hh"
#include "security/gadget.hh"

using namespace terp;
using namespace terp::security;

// -------------------------------------------------------- attack model

TEST(AttackModel, MerrNumbersMatchTableFive)
{
    // MERR, 40us EW, 1GB PMO (18-bit entropy), 1us per attack.
    AttackScenario s;
    s.attackTimeUs = 1.0;
    EXPECT_NEAR(successProbabilityPercent(s), 0.015, 0.002);
    s.attackTimeUs = 0.1;
    EXPECT_NEAR(successProbabilityPercent(s), 0.15, 0.02);
}

TEST(AttackModel, TerpNumbersMatchTableFive)
{
    // TERP: the malicious thread holds permission only ~3.4% of the
    // window (WHISPER thread exposure rate).
    AttackScenario s;
    s.accessibleFraction = 0.034;
    s.attackTimeUs = 1.0;
    EXPECT_NEAR(successProbabilityPercent(s), 0.0005, 0.0002);
    s.attackTimeUs = 0.1;
    EXPECT_NEAR(successProbabilityPercent(s), 0.005, 0.002);
}

TEST(AttackModel, TerpIsAboutThirtyTimesStronger)
{
    AttackScenario merr;
    AttackScenario terp;
    terp.accessibleFraction = 0.034;
    double ratio = successProbabilityPercent(merr) /
                   successProbabilityPercent(terp);
    EXPECT_NEAR(ratio, 1.0 / 0.034, 1.0);
}

TEST(AttackModel, ProbabilityCapsAtCertainty)
{
    AttackScenario s;
    s.entropyBits = 2; // only 4 slots
    s.ewUs = 1000;
    s.attackTimeUs = 0.001;
    EXPECT_DOUBLE_EQ(successProbabilityPercent(s), 100.0);
}

TEST(AttackModel, MonteCarloAgreesWithClosedForm)
{
    // Shrink the entropy so the rates are measurable.
    AttackScenario s;
    s.entropyBits = 10;
    s.ewUs = 40;
    s.attackTimeUs = 1.0; // 40 probes of 1024 slots: ~3.8%
    Rng rng(2022);
    double analytic = successProbabilityPercent(s);
    double measured = monteCarloSuccessPercent(s, 20000, rng);
    EXPECT_NEAR(measured, analytic, analytic * 0.15);
}

TEST(AttackModel, MonteCarloShowsTerpAdvantage)
{
    AttackScenario merr, terp;
    merr.entropyBits = terp.entropyBits = 8;
    terp.accessibleFraction = 0.05;
    Rng rng(7);
    double m = monteCarloSuccessPercent(merr, 5000, rng);
    double t = monteCarloSuccessPercent(terp, 5000, rng);
    EXPECT_GT(m, 4 * t);
}

TEST(AttackModel, ExpectedWindowsToBreach)
{
    AttackScenario s; // 0.01526% per window
    double w = expectedWindowsToBreach(s);
    EXPECT_NEAR(w, 6553.6, 10.0); // 2^18/40
}

// ------------------------------------------------------------- gadgets

TEST(Gadget, CensusClassifiesByPairState)
{
    compiler::Module m;
    compiler::FunctionBuilder b(m, "f", 0);
    // One gadget outside any pair.
    b.load(b.dramBase(0));
    // One gadget inside a cond pair only.
    b.condAttach(1);
    b.store(b.pmoBase(1, 0), b.constant(1));
    b.condDetach(1);
    // One gadget inside a manual window only.
    b.manualAttach(1);
    b.load(b.dramBase(8));
    b.manualDetach(1);
    b.ret();
    b.finish();

    GadgetCensus c = analyzeGadgets(m);
    EXPECT_EQ(c.totalGadgets, 3u);
    EXPECT_EQ(c.terpExposed, 1u);
    EXPECT_EQ(c.merrExposed, 1u);
    EXPECT_NEAR(c.terpDisarmRate(), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(c.merrDisarmRate(), 2.0 / 3.0, 1e-9);
}

TEST(Gadget, CoarseManualWindowsExposeMore)
{
    // MERR-style coarse window around everything vs tight TERP
    // pairs around the single PMO access.
    compiler::Module m;
    compiler::FunctionBuilder b(m, "f", 0);
    b.manualAttach(1);
    for (int i = 0; i < 9; ++i)
        b.load(b.dramBase(8 * i)); // 9 gadgets, MERR-exposed
    b.condAttach(1);
    b.store(b.pmoBase(1, 0), b.constant(1));
    b.condDetach(1);
    b.manualDetach(1);
    b.ret();
    b.finish();

    GadgetCensus c = analyzeGadgets(m);
    EXPECT_EQ(c.totalGadgets, 10u);
    EXPECT_EQ(c.merrExposed, 10u); // everything inside the window
    EXPECT_EQ(c.terpExposed, 1u);  // only the bracketed access
    EXPECT_GT(c.terpDisarmRate(), c.merrDisarmRate());
}

TEST(Gadget, TimeWeightedRatesFollowExposure)
{
    // Table VI: TERP disarms ~1-TER of gadget time; MERR keeps ER.
    EXPECT_NEAR(terpTimeWeightedDisarmRate(0.034), 0.966, 1e-9);
    EXPECT_NEAR(merrTimeWeightedKeptRate(0.245), 0.245, 1e-9);
}

// ---------------------------------------------------------------- dop

TEST(Dop, UnprotectedAttackAchievesGoal)
{
    DopResult r =
        runFtpAttack(core::RuntimeConfig::unprotected(), 24);
    EXPECT_TRUE(r.attackGoalAchieved);
    EXPECT_EQ(r.nodesCorrupted, 24u);
    EXPECT_EQ(r.accessFaults, 0u);
}

TEST(Dop, MerrStopsAttackAtFirstRandomization)
{
    DopResult r = runFtpAttack(core::RuntimeConfig::mm(), 64);
    EXPECT_FALSE(r.attackGoalAchieved);
    EXPECT_GT(r.nodesCorrupted, 0u);    // early rounds land
    EXPECT_LT(r.nodesCorrupted, 40u);   // then addresses go stale
    EXPECT_GT(r.accessFaults, 0u);
    EXPECT_GE(r.randomizations, 1u);
}

TEST(Dop, TerpBlocksEveryGadgetAccess)
{
    DopResult r = runFtpAttack(core::RuntimeConfig::tt(), 64);
    EXPECT_EQ(r.nodesCorrupted, 0u);
    EXPECT_FALSE(r.attackGoalAchieved);
    // Two denied accesses per addition round, one per move round.
    EXPECT_GE(r.accessFaults, r.listLength);
}

TEST(Dop, VictimStillWorksUnderTerp)
{
    // The legitimate accesses (via ObjectIDs, inside inserted pairs)
    // never fault: all faults come from the attacker's raw pointers.
    DopResult tt = runFtpAttack(core::RuntimeConfig::tt(), 16);
    DopResult un =
        runFtpAttack(core::RuntimeConfig::unprotected(), 16);
    EXPECT_EQ(tt.roundsExecuted, un.roundsExecuted);
}

class DopEwTest : public ::testing::TestWithParam<double>
{
};

TEST_P(DopEwTest, SmallerWindowsStopMerrEarlier)
{
    double ew = GetParam();
    DopResult r =
        runFtpAttack(core::RuntimeConfig::mm(usToCycles(ew)), 64);
    // Corruption is bounded by what fits in the first window.
    double round_us = r.totalUs / double(r.roundsExecuted);
    double max_nodes = ew / round_us / 2.0 + 2.0;
    EXPECT_LE(double(r.nodesCorrupted), max_nodes + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Windows, DopEwTest,
                         ::testing::Values(20.0, 40.0, 80.0));

// ------------------------------------------------- dead-time histogram

TEST(Histogram, BucketPlacement)
{
    Histogram h({1.0, 2.0, 4.0});
    h.add(0.5); // bucket 0 (<=1)
    h.add(1.0); // bucket 0 (inclusive upper bound)
    h.add(1.5); // bucket 1
    h.add(4.0); // bucket 2
    h.add(9.0); // overflow
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 1u); // overflow bucket
    EXPECT_EQ(h.totalCount(), 5u);
}

TEST(Histogram, FractionsAndPercentiles)
{
    Histogram h({10.0, 100.0});
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.10);
    EXPECT_NEAR(h.fractionAbove(50.0), 0.5, 1e-9);
    EXPECT_NEAR(h.percentile(50.0), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(95.0), 95.0, 1.0);
}

TEST(Histogram, Log2BucketsCoverRange)
{
    Histogram h = Histogram::log2Buckets(0.5, 1024.0);
    // 0.5, 1, 2, ..., 1024 -> 12 bounds.
    EXPECT_EQ(h.bounds().size(), 12u);
    EXPECT_DOUBLE_EQ(h.bounds().front(), 0.5);
    EXPECT_DOUBLE_EQ(h.bounds().back(), 1024.0);
}

TEST(Histogram, RejectsNonAscendingBounds)
{
    EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
}
