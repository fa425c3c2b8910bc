/**
 * @file
 * Integration tests for the workload surrogates: WHISPER, SPEC and
 * the allocation-lifetime study, across protection schemes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "compiler/verifier.hh"
#include "workloads/alloc.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::workloads;

namespace {

core::RuntimeConfig
cfgByName(const std::string &s)
{
    if (s == "unprotected")
        return core::RuntimeConfig::unprotected();
    if (s == "mm")
        return core::RuntimeConfig::mm();
    if (s == "tm")
        return core::RuntimeConfig::tm();
    return core::RuntimeConfig::tt();
}

} // namespace

// ------------------------------------------------------------ whisper

TEST(Whisper, SixWorkloadsRegistered)
{
    EXPECT_EQ(whisperNames().size(), 6u);
}

using WhisperCase = std::tuple<std::string, std::string>;

class WhisperSchemeTest
    : public ::testing::TestWithParam<WhisperCase>
{
};

TEST_P(WhisperSchemeTest, RunsCleanlyWithSaneMetrics)
{
    auto [name, scheme] = GetParam();
    WhisperParams p;
    p.sections = 60;
    RunResult r = runWhisper(name, cfgByName(scheme), p);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_EQ(r.report.total, r.totalCycles);
    if (scheme == "mm") {
        EXPECT_GT(r.report.attachSyscalls, 0u);
        EXPECT_EQ(r.report.attachSyscalls, r.report.detachSyscalls);
        // Manual windows respect (roughly) the 40 us EW target.
        EXPECT_LT(r.exposure.ewMaxUs, 45.0);
        EXPECT_GT(r.exposure.er, 0.02);
        EXPECT_LT(r.exposure.er, 0.9);
    }
    if (scheme == "tt") {
        EXPECT_GT(r.report.silentFraction, 0.7);
        EXPECT_NEAR(r.exposure.ewAvgUs, 40.0, 4.0);
        EXPECT_LT(r.exposure.tewAvgUs, 2.0); // TEW target met
        EXPECT_LT(r.exposure.ter, r.exposure.er);
    }
    if (scheme == "unprotected") {
        EXPECT_EQ(r.report.attachSyscalls, 0u);
        EXPECT_EQ(r.report.condOps, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WhisperSchemeTest,
    ::testing::Combine(
        ::testing::Values("echo", "ycsb", "tpcc", "ctree", "hashmap",
                          "redis"),
        ::testing::Values("unprotected", "mm", "tm", "tt")),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::get<1>(info.param);
    });

TEST(Whisper, DeterministicForFixedSeed)
{
    WhisperParams p;
    p.sections = 40;
    RunResult a = runWhisper("ycsb", core::RuntimeConfig::tt(), p);
    RunResult b = runWhisper("ycsb", core::RuntimeConfig::tt(), p);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.report.attachSyscalls, b.report.attachSyscalls);
}

TEST(Whisper, ProtectionCostsTime)
{
    WhisperParams p;
    p.sections = 60;
    RunResult base =
        runWhisper("hashmap", core::RuntimeConfig::unprotected(), p);
    RunResult tm = runWhisper("hashmap", core::RuntimeConfig::tm(), p);
    RunResult tt = runWhisper("hashmap", core::RuntimeConfig::tt(), p);
    EXPECT_GT(overheadVsBase(tm, base), overheadVsBase(tt, base));
    EXPECT_GT(overheadVsBase(tt, base), 0.0);
    EXPECT_LT(overheadVsBase(tt, base), 0.4);
}

TEST(Whisper, LargerEwTargetLowersOverhead)
{
    WhisperParams p;
    p.sections = 80;
    RunResult base =
        runWhisper("ycsb", core::RuntimeConfig::unprotected(), p);
    RunResult tt40 = runWhisper(
        "ycsb", core::RuntimeConfig::tt(usToCycles(40)), p);
    RunResult tt160 = runWhisper(
        "ycsb", core::RuntimeConfig::tt(usToCycles(160)), p);
    EXPECT_LT(overheadVsBase(tt160, base),
              overheadVsBase(tt40, base));
}

TEST(Whisper, UnknownNamePanics)
{
    EXPECT_THROW(runWhisper("nosuch", core::RuntimeConfig::tt()),
                 std::logic_error);
}

// ------------------------------------------------- ctree bulk prefill

namespace {

/** The tree one-at-a-time insertion builds, walking from the root. */
InsertionBst
insertOneByOne(const std::vector<std::uint64_t> &keys)
{
    InsertionBst t;
    for (std::uint64_t k : keys) {
        std::uint32_t *link = &t.root;
        while (*link != InsertionBst::none && t.keys[*link] != k)
            link = k < t.keys[*link] ? &t.left[*link] : &t.right[*link];
        if (*link != InsertionBst::none)
            continue; // repeated key
        auto n = static_cast<std::uint32_t>(t.keys.size());
        *link = n; // before the push_backs below move the vectors
        t.keys.push_back(k);
        t.left.push_back(InsertionBst::none);
        t.right.push_back(InsertionBst::none);
    }
    return t;
}

void
expectSameTree(const std::vector<std::uint64_t> &keys)
{
    InsertionBst want = insertOneByOne(keys);
    InsertionBst got = buildInsertionBst(keys);
    EXPECT_EQ(got.keys, want.keys); // allocation order
    EXPECT_EQ(got.root, want.root);
    EXPECT_EQ(got.left, want.left);
    EXPECT_EQ(got.right, want.right);
}

} // namespace

TEST(CtreePrefill, BulkBuildMatchesInsertionOnRandomKeys)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        // Small keyspaces repeat keys often, large ones rarely.
        std::uint64_t space = seed % 2 ? 64 : 1u << 20;
        std::vector<std::uint64_t> keys(seed * 500);
        for (std::uint64_t &k : keys)
            k = rng.nextBelow(space);
        SCOPED_TRACE(seed);
        expectSameTree(keys);
    }
}

TEST(CtreePrefill, BulkBuildMatchesInsertionOnDegenerateInputs)
{
    std::vector<std::uint64_t> sorted(1500);
    std::iota(sorted.begin(), sorted.end(), 7);
    std::vector<std::uint64_t> reversed(sorted.rbegin(), sorted.rend());
    std::vector<std::uint64_t> equal(300, 42);
    std::vector<std::uint64_t> extremes = {~0ULL, 0, ~0ULL, 1, 0};
    for (const auto &keys : {sorted, reversed, equal, extremes,
                             std::vector<std::uint64_t>{},
                             std::vector<std::uint64_t>{5}})
        expectSameTree(keys);
    InsertionBst t = buildInsertionBst(equal);
    EXPECT_EQ(t.keys.size(), 1u);
    EXPECT_EQ(t.root, 0u);
    EXPECT_EQ(buildInsertionBst({}).root, InsertionBst::none);
}

TEST(CtreePrefill, BulkBuildMatchesInsertionOnWideKeys)
{
    // The sort makes a pass per 11-bit digit the widest key has and
    // skips a digit every key shares; these sets take every pass.
    Rng rng(99);
    std::vector<std::uint64_t> full(3000), high(3000), top(2000), dups;
    for (std::uint64_t &k : full)
        k = rng.next();
    for (std::uint64_t &k : high) // at and above 2^32
        k = (1ULL << 32) + rng.nextBelow(1ULL << 40);
    high.push_back(1ULL << 32);
    // Equal below their top digit (bits 55..63), so only its pass runs.
    const std::uint64_t low = rng.next() >> 9;
    for (std::uint64_t &k : top)
        k = rng.nextBelow(512) << 55 | low;
    // Many repeats of a few large keys, three quarters of them the
    // first key drawn, so most keys share every digit with it.
    std::vector<std::uint64_t> big(40);
    for (std::uint64_t &k : big)
        k = rng.next() | 1ULL << 63;
    for (int i = 0; i < 4000; ++i)
        dups.push_back(big[i && rng.nextBelow(4) == 0
                               ? rng.nextBelow(big.size())
                               : 0]);
    for (const auto &keys : {full, high, top, dups}) {
        SCOPED_TRACE(keys.size());
        expectSameTree(keys);
    }
    EXPECT_EQ(buildInsertionBst(dups).keys.size(), big.size());
}

// --------------------------------------------------------------- spec

TEST(Spec, PmoCountsMatchTableFour)
{
    EXPECT_EQ(specPmoCount("mcf"), 4u);
    EXPECT_EQ(specPmoCount("lbm"), 2u);
    EXPECT_EQ(specPmoCount("imagick"), 3u);
    EXPECT_EQ(specPmoCount("nab"), 3u);
    EXPECT_EQ(specPmoCount("xz"), 6u);
}

class SpecBuildTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpecBuildTest, InstrumentedKernelVerifiesStrictly)
{
    pm::PmoManager pmos(7);
    SpecParams sp;
    sp.scale = 0.25;
    SpecProgram prog =
        buildSpec(GetParam(), pmos, compiler::PassConfig{}, sp);
    EXPECT_EQ(prog.pmos.size(), specPmoCount(GetParam()));
    EXPECT_GT(prog.passResult.condAttach, 0u);
    auto facts = compiler::PmoFacts::analyze(prog.module);
    auto v = compiler::verifyModule(prog.module, facts, true);
    EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors[0]);
    // Every PMO is a real heap object > 128 KB (the paper's rule).
    for (pm::PmoId id : prog.pmos)
        EXPECT_GT(pmos.pmo(id).size(), 128 * KiB);
}

INSTANTIATE_TEST_SUITE_P(Kernels, SpecBuildTest,
                         ::testing::Values("mcf", "lbm", "imagick",
                                           "nab", "xz"));

using SpecCase = std::tuple<std::string, std::string>;

class SpecSchemeTest : public ::testing::TestWithParam<SpecCase>
{
};

TEST_P(SpecSchemeTest, RunsCleanlyUnderScheme)
{
    auto [name, scheme] = GetParam();
    SpecParams p;
    p.scale = 0.12;
    RunResult r = runSpec(name, cfgByName(scheme), p);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_EQ(r.pmoCount, specPmoCount(name));
    if (scheme == "tt") {
        EXPECT_GT(r.report.silentFraction, 0.8);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpecSchemeTest,
    ::testing::Combine(
        ::testing::Values("mcf", "lbm", "imagick", "nab", "xz"),
        ::testing::Values("unprotected", "mm", "tm", "tt")),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::get<1>(info.param);
    });

class SpecThreadsTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SpecThreadsTest, MultiThreadedTtScalesAndStaysSafe)
{
    SpecParams p;
    p.scale = 0.12;
    p.threads = GetParam();
    RunResult r = runSpec("lbm", core::RuntimeConfig::tt(), p);
    EXPECT_GT(r.totalCycles, 0u);
    // More threads never increase total runtime for a fixed job.
    if (GetParam() > 1) {
        SpecParams p1 = p;
        p1.threads = 1;
        RunResult r1 = runSpec("lbm", core::RuntimeConfig::tt(), p1);
        EXPECT_LT(r.totalCycles, r1.totalCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpecThreadsTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(Spec, BasicSemanticsSerializesThreads)
{
    SpecParams p;
    p.scale = 0.12;
    p.threads = 4;
    RunResult base = runSpec("lbm", core::RuntimeConfig::unprotected(),
                             p);
    RunResult basic =
        runSpec("lbm", core::RuntimeConfig::basicSemantics(), p);
    RunResult tt = runSpec("lbm", core::RuntimeConfig::tt(), p);
    double basic_ovh = overheadVsBase(basic, base);
    double tt_ovh = overheadVsBase(tt, base);
    EXPECT_GT(basic_ovh, 5 * tt_ovh); // the Fig 11 blowup
}

TEST(Spec, DeterministicForFixedSeed)
{
    SpecParams p;
    p.scale = 0.12;
    RunResult a = runSpec("xz", core::RuntimeConfig::tt(), p);
    RunResult b = runSpec("xz", core::RuntimeConfig::tt(), p);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}

TEST(Spec, UnknownNamePanics)
{
    EXPECT_THROW(specPmoCount("nosuch"), std::logic_error);
}

// -------------------------------------------------------------- alloc

TEST(Alloc, ThirteenProfiles)
{
    EXPECT_EQ(allocProfiles().size(), 13u);
}

TEST(Alloc, DeadTimesArePositiveAndRecorded)
{
    auto samples = runAllocWorkload(allocProfiles()[0], 200, 1);
    EXPECT_EQ(samples.size(), 200u);
    for (double d : samples)
        EXPECT_GT(d, 0.0);
}

TEST(Alloc, PooledDistributionMatchesFig8Shape)
{
    auto pooled = runAllAllocWorkloads(150, 3);
    ASSERT_GT(pooled.size(), 1000u);
    std::uint64_t below2 = 0;
    for (double d : pooled)
        if (d < 2.0)
            ++below2;
    double frac = below2 / double(pooled.size());
    // Fig 8: ~95% of dead times are >= 2 us.
    EXPECT_LT(frac, 0.12);
    EXPECT_GT(frac, 0.005); // but a short tail exists
}

class AllocProfileTest : public ::testing::TestWithParam<int>
{
};

TEST_P(AllocProfileTest, EachProfileProducesSamples)
{
    const AllocProfile &p = allocProfiles()[GetParam()];
    auto samples = runAllocWorkload(p, 100, 7);
    EXPECT_EQ(samples.size(), 100u);
    double sum = 0;
    for (double d : samples)
        sum += d;
    EXPECT_GT(sum / 100.0, 0.5); // mean dead time at least 0.5 us
}

INSTANTIATE_TEST_SUITE_P(Profiles, AllocProfileTest,
                         ::testing::Range(0, 13));
