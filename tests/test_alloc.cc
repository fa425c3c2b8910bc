/**
 * @file
 * Heap allocations per crash point. This executable replaces the
 * global operator new with one that counts its calls, so it is built
 * on its own and not under the sanitizers (which bring their own
 * allocator).
 *
 * A crash point is a scratch world and ledger assigned from its
 * driver's, into the storage the last point left, then crashed,
 * recovered and checked. In steady state the assignment allocates
 * next to nothing; what is left is the crash path's own work (the
 * recovery, the probe transaction, the resumed trace audit).
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "check/crash.hh"
#include "common/parallel.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

void *
counted(std::size_t n, std::size_t align = 0)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = nullptr;
    if (align > alignof(std::max_align_t)) {
        if (posix_memalign(&p, align, n) != 0)
            p = nullptr;
    } else {
        p = std::malloc(n);
    }
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return counted(n); }
void *operator new[](std::size_t n) { return counted(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return counted(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return counted(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace terp {
namespace {

/** Restores the process's CPU mask when it goes out of scope. */
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

/** Allocations and points of one tt enumeration of @p workload. */
struct Census
{
    std::uint64_t allocs = 0;
    std::uint64_t points = 0;
};

Census
census(const char *workload, unsigned txns)
{
    check::CrashOptions opt;
    opt.scheme = "tt";
    opt.workload = workload;
    opt.txns = txns;
    const std::uint64_t before = allocations.load();
    const check::CrashResult r = check::enumerateCrashPoints(opt);
    Census c;
    c.allocs = allocations.load() - before;
    c.points = r.pointsRun;
    EXPECT_TRUE(r.ok()) << check::crashResultJson(opt, r);
    return c;
}

/**
 * Into @p marginal, the allocations a steady-state point of
 * @p workload/tt makes, pinned to one CPU: the marginal cost of the points that 16 more
 * transactions add past --txns 16, driver run included. On one CPU
 * there is one driver and the points run inline, in order, so the
 * count does not depend on scheduling.
 */
void
allocsPerPoint(const char *workload, double &marginal)
{
    cpu_set_t all;
    ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
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

    const Census a = census(workload, 16);
    const Census b = census(workload, 32);
    ASSERT_GT(b.points, a.points);
    marginal = static_cast<double>(b.allocs - a.allocs) /
                            static_cast<double>(b.points - a.points);
    const double whole = static_cast<double>(a.allocs) /
                         static_cast<double>(a.points);
    ::testing::Test::RecordProperty("allocs_per_point_marginal",
                                    std::to_string(marginal));
    ::testing::Test::RecordProperty("allocs_per_point_whole",
                                    std::to_string(whole));
    std::printf("%s/tt --txns 16: %llu allocations over %llu points "
                "(%.1f a point); %.1f a point between 16 and 32\n",
                workload, static_cast<unsigned long long>(a.allocs),
                static_cast<unsigned long long>(a.points), whole,
                marginal);
}

} // namespace

/**
 * A steady-state bank/tt point allocates at most 10 times. It
 * measures 2.9 (13.0 when the resumed audit kept its replay in maps
 * and spent it, 17.0 when it also merged through a temporary buffer);
 * a fresh world copied at each point measured 197.
 */
TEST(AllocationBudget, SteadyStateCrashPointStaysSmall)
{
    double marginal = 0;
    ASSERT_NO_FATAL_FAILURE(allocsPerPoint("bank", marginal));
    EXPECT_LE(marginal, 10);
}

/**
 * A steady-state txnest/tt point: nested undo and redo TxManager
 * transactions over two PMOs, with an open flight at most points.
 * It measures 7.5 (25.5 when the resumed audit kept its replay in
 * maps, 36.0 when the ledger also kept its flights in a std::map,
 * each with a std::map of new values); the bound keeps bank's margin
 * of 7.
 */
TEST(AllocationBudget, SteadyStateTxnestPointStaysSmall)
{
    double marginal = 0;
    ASSERT_NO_FATAL_FAILURE(allocsPerPoint("txnest", marginal));
    EXPECT_LE(marginal, 14.5);
}

} // namespace terp
