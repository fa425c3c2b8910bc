/**
 * @file
 * Unit tests for src/common: units, logging, RNG, statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "metrics/metric.hh"

using namespace terp;

// ------------------------------------------------------------- units

TEST(Units, CycleConversionsRoundTrip)
{
    EXPECT_EQ(usToCycles(1.0), cyclesPerUs);
    EXPECT_EQ(usToCycles(40.0), 40 * cyclesPerUs);
    EXPECT_DOUBLE_EQ(cyclesToUs(2200), 1.0);
    EXPECT_NEAR(cyclesToNs(22), 10.0, 1e-9);
}

TEST(Units, TableTwoLatenciesMatchThePaper)
{
    EXPECT_EQ(latency::dram, 120u);
    EXPECT_EQ(latency::nvm, 360u);
    EXPECT_EQ(latency::attachSyscall, 4422u);
    EXPECT_EQ(latency::detachSyscall, 3058u);
    EXPECT_EQ(latency::randomize, 3718u);
    EXPECT_EQ(latency::tlbInvalidate, 550u);
    EXPECT_EQ(latency::silentCond, 27u);
    EXPECT_EQ(latency::permMatrix, 1u);
    EXPECT_EQ(latency::tlbMiss, 30u);
}

TEST(Units, DefaultProtectionTargets)
{
    EXPECT_EQ(target::defaultEw, usToCycles(40.0));
    EXPECT_EQ(target::defaultTew, usToCycles(2.0));
}

// ----------------------------------------------------------- logging

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(TERP_PANIC("boom"), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(TERP_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(TERP_ASSERT(1 + 1 == 2));
    EXPECT_THROW(TERP_ASSERT(1 + 1 == 3, "math broke"),
                 std::logic_error);
}

// --------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.nextRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values hit
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (r.nextBool(0.3))
            ++hits;
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Rng, JitterBounds)
{
    Rng r(15);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.jitter(1000, 0.25);
        EXPECT_GE(v, 750u);
        EXPECT_LE(v, 1250u);
    }
}

TEST(Rng, JitterZeroSpreadIsIdentity)
{
    Rng r(17);
    EXPECT_EQ(r.jitter(123, 0.0), 123u);
    EXPECT_EQ(r.jitter(0, 0.5), 0u);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng a(21);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Zipf, StaysInRangeAndSkews)
{
    ZipfGenerator z(1000, 0.99, 3);
    std::uint64_t low = 0, total = 30000;
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t v = z.next();
        EXPECT_LT(v, 1000u);
        if (v < 10)
            ++low;
    }
    // With theta=0.99 the 1% hottest items draw far more than 1%.
    EXPECT_GT(low, total / 10);
}

TEST(Zipf, ZeroThetaIsNearUniform)
{
    ZipfGenerator z(100, 0.0, 5);
    std::uint64_t low = 0, total = 50000;
    for (std::uint64_t i = 0; i < total; ++i)
        if (z.next() < 10)
            ++low;
    EXPECT_NEAR(low / double(total), 0.10, 0.02);
}

TEST(Zipf, ConcurrentGeneratorsMatchOneBuiltAlone)
{
    // Generators of one (n, theta) share one normalisation constant;
    // building them on many threads at once must not change a draw.
    auto draws = [](std::uint64_t n, double theta) {
        ZipfGenerator z(n, theta, 11);
        std::vector<std::uint64_t> v(2000);
        for (auto &x : v)
            x = z.next();
        return v;
    };
    const std::uint64_t sizes[] = {1000, 4096, 65536, 77777};
    std::vector<std::vector<std::uint64_t>> got(16);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < got.size(); ++t)
        pool.emplace_back([&, t] {
            got[t] = draws(sizes[t % 4], t % 8 < 4 ? 0.99 : 0.5);
        });
    for (auto &th : pool)
        th.join();
    for (std::size_t t = 0; t < got.size(); ++t)
        EXPECT_EQ(got[t], draws(sizes[t % 4], t % 8 < 4 ? 0.99 : 0.5))
            << t;
}

// ------------------------------------------------------------- stats

TEST(Summary, TracksMinMaxMeanCount)
{
    metrics::Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0u);
    s.add(10);
    s.add(30);
    s.add(20);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.min(), 10u);
    EXPECT_EQ(s.max(), 30u);
    EXPECT_DOUBLE_EQ(s.mean(), 20.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}
