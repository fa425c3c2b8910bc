/**
 * @file
 * Tests for the parallel benchmark harness (bench/harness.*, on the
 * pool in common/parallel.*):
 *
 *  - the invariant behind every figure: the quick Fig 11 matrix at
 *    8 jobs prints byte-identical text (and therefore identical
 *    simulated-cycle results) to 1 job, the inline serial path;
 *  - the simulation tally;
 *  - ParallelRunner ordering, exception propagation, and a seeded
 *    differential-fuzz pass so the runtime structures the optimized
 *    benches exercise stay pinned to the Section-IV oracle.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <latch>
#include <thread>
#include <vector>

#include "check/fuzzer.hh"
#include "harness.hh"

using namespace terp;

namespace {

/** The quick Fig 11 table as printed with @p jobs workers. */
std::string
fig11Text(unsigned jobs)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *out = open_memstream(&buf, &len);
    EXPECT_NE(out, nullptr);
    bench::fig11(true, jobs, out);
    std::fclose(out);
    std::string text(buf, len);
    std::free(buf);
    return text;
}

TEST(BenchHarness, Fig11ParallelMatchesSerialByteForByte)
{
    const std::string serial = fig11Text(1);
    const std::string parallel = fig11Text(8);
    // Sanity: the run actually produced the figure.
    EXPECT_NE(serial.find("=== Fig 11"), std::string::npos);
    EXPECT_NE(serial.find("avg total overhead"), std::string::npos);
    EXPECT_EQ(serial, parallel);
}

TEST(BenchHarness, TallyCountsSimulations)
{
    const bench::SimTally before = bench::tallySnapshot();
    bench::noteSim(123);
    bench::noteSim(77);
    const bench::SimTally after = bench::tallySnapshot();
    EXPECT_EQ(after.sims - before.sims, 2u);
    EXPECT_EQ(after.simCycles - before.simCycles, 200u);
}

TEST(BenchHarness, RunnerExecutesEveryTaskIntoItsSlot)
{
    const std::size_t n = 100;
    std::vector<int> out(n, 0);
    ParallelRunner pool(8);
    for (std::size_t i = 0; i < n; ++i)
        pool.add([&out, i] { out[i] = static_cast<int>(i) + 1; });
    pool.run();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) + 1);
}

TEST(BenchHarness, RunnerSerialRunsInOrder)
{
    std::vector<int> order;
    ParallelRunner pool(1);
    for (int i = 0; i < 5; ++i)
        pool.add([&order, i] { order.push_back(i); });
    pool.run();
    ASSERT_EQ(order.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(BenchHarness, RunnerRethrowsTaskException)
{
    ParallelRunner pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.add([&ran] { ran.fetch_add(1); });
    pool.add([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.run(), std::runtime_error);
}

// The pool's tasks run at once: n tasks that each wait for all n on
// one latch all see it open (a pool that ran them one after another
// would time out instead).
TEST(BenchHarness, RunnerTasksRunConcurrently)
{
    const unsigned n = 4;
    std::latch all(n);
    std::atomic<unsigned> opened{0};
    ParallelRunner pool(n);
    for (unsigned i = 0; i < n; ++i)
        pool.add([&] {
            all.count_down();
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::seconds(10);
            while (!all.try_wait() &&
                   std::chrono::steady_clock::now() < until)
                std::this_thread::yield();
            if (all.try_wait())
                opened.fetch_add(1);
        });
    pool.run();
    EXPECT_EQ(opened.load(), n);
}

// Every task runs on a CPU of the caller's current mask.
TEST(BenchHarness, RunnerStaysInCallersMask)
{
    cpu_set_t all;
    ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
    if (CPU_COUNT(&all) < 2)
        GTEST_SKIP() << "needs two CPUs";
    cpu_set_t two;
    CPU_ZERO(&two);
    for (int c = 0, k = 0; c < CPU_SETSIZE && k < 2; ++c)
        if (CPU_ISSET(c, &all)) {
            CPU_SET(c, &two);
            ++k;
        }
    ASSERT_EQ(sched_setaffinity(0, sizeof two, &two), 0);
    std::vector<int> cpu(8, -1);
    ParallelRunner pool(static_cast<unsigned>(cpu.size()));
    for (std::size_t i = 0; i < cpu.size(); ++i)
        pool.add([&cpu, i] { cpu[i] = sched_getcpu(); });
    pool.run();
    sched_setaffinity(0, sizeof all, &all);
    for (int c : cpu)
        EXPECT_TRUE(c >= 0 && CPU_ISSET(c, &two)) << "cpu " << c;
}

TEST(BenchHarness, RunnerBackToBackRunsFillEverySlot)
{
    for (int r = 0; r < 1000; ++r) {
        std::vector<int> out(4, 0);
        ParallelRunner pool(4);
        for (std::size_t i = 0; i < out.size(); ++i)
            pool.add([&out, i] { out[i] = 1; });
        pool.run();
        ASSERT_EQ(out, std::vector<int>(4, 1)) << "run " << r;
    }
}

TEST(BenchHarness, RunnerUsableAfterThrowingRun)
{
    {
        ParallelRunner pool(4);
        for (int i = 0; i < 8; ++i)
            pool.add([] { throw std::runtime_error("boom"); });
        EXPECT_THROW(pool.run(), std::runtime_error);
    }
    std::atomic<int> ran{0};
    ParallelRunner pool(4);
    for (int i = 0; i < 16; ++i)
        pool.add([&ran] { ran.fetch_add(1); });
    pool.run();
    EXPECT_EQ(ran.load(), 16);
}

TEST(BenchHarness, RunnerNestedRunCompletes)
{
    std::atomic<int> ran{0};
    ParallelRunner outer(4);
    for (int i = 0; i < 4; ++i)
        outer.add([&ran] {
            ParallelRunner inner(4);
            for (int j = 0; j < 4; ++j)
                inner.add([&ran] { ran.fetch_add(1); });
            inner.run();
        });
    outer.run();
    EXPECT_EQ(ran.load(), 16);
}

// Enabling metrics must not perturb the simulation: recording never
// charges simulated cycles and never prints, so every number the
// fig11/table4 print phases consume — cycle totals, per-charge
// breakdowns, exposure statistics, silent fractions — is identical
// with the registry on or off. Byte-identical figure output follows,
// since the tables are pure functions of these results.
TEST(BenchHarness, MetricsOnOffLeavesSpecRunIdentical)
{
    workloads::SpecParams p;
    p.threads = 2;
    p.scale = 0.05;
    const core::RuntimeConfig on = core::RuntimeConfig::tt();
    const workloads::RunResult a =
        workloads::runSpec("mcf", on, p);
    const workloads::RunResult b =
        workloads::runSpec("mcf", on.withoutMetrics(), p);
    ASSERT_EQ(b.metrics, nullptr);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.report.total, b.report.total);
    EXPECT_EQ(a.report.work, b.report.work);
    EXPECT_EQ(a.report.attach, b.report.attach);
    EXPECT_EQ(a.report.detach, b.report.detach);
    EXPECT_EQ(a.report.rand, b.report.rand);
    EXPECT_EQ(a.report.cond, b.report.cond);
    EXPECT_EQ(a.report.other, b.report.other);
    EXPECT_EQ(a.report.silentFraction, b.report.silentFraction);
    EXPECT_EQ(a.exposure.ewCount, b.exposure.ewCount);
    EXPECT_EQ(a.exposure.ewMaxUs, b.exposure.ewMaxUs);
    EXPECT_EQ(a.exposure.er, b.exposure.er);
    EXPECT_EQ(a.exposure.ter, b.exposure.ter);
}

TEST(BenchHarness, MetricsOnOffLeavesWhisperRunIdentical)
{
    workloads::WhisperParams p;
    p.sections = 30;
    for (const core::RuntimeConfig &cfg :
         {core::RuntimeConfig::mm(), core::RuntimeConfig::tt()}) {
        const workloads::RunResult a =
            workloads::runWhisper("hashmap", cfg, p);
        const workloads::RunResult b = workloads::runWhisper(
            "hashmap", cfg.withoutMetrics(), p);
        EXPECT_EQ(a.totalCycles, b.totalCycles);
        EXPECT_EQ(a.report.total, b.report.total);
        EXPECT_EQ(a.report.silentFraction, b.report.silentFraction);
        EXPECT_EQ(a.exposure.ewAvgUs, b.exposure.ewAvgUs);
        EXPECT_EQ(a.exposure.tewAvgUs, b.exposure.tewAvgUs);
    }
}

// The hot-path work behind the benches (interpreter dispatch, cache
// indexing, runtime counters) must not change protection semantics:
// replay a seeded schedule matrix against the Section-IV oracle.
TEST(BenchHarness, SeededFuzzAgainstOptimizedRuntime)
{
    check::FuzzOptions opt;
    opt.seeds = 6;
    opt.firstSeed = 20260805;
    opt.gen.events = 40;
    opt.gen.threads = 3;
    opt.gen.pmos = 2;
    opt.gen.ewTarget = usToCycles(5.0);
    check::FuzzResult res = check::fuzz(opt);
    EXPECT_GT(res.executed, 0u);
    for (const check::Divergence &d : res.divergences)
        ADD_FAILURE() << "divergence: scheme=" << d.scheme
                      << " seed=" << d.seed;
    EXPECT_TRUE(res.ok());
}

} // namespace
