/**
 * @file
 * Unit tests for src/sim: cache, TLB, thread contexts and the
 * machine scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/cache.hh"
#include "sim/machine.hh"
#include "sim/thread.hh"
#include "sim/tlb.hh"

using namespace terp;
using namespace terp::sim;

// -------------------------------------------------------------- cache

TEST(Cache, MissThenHit)
{
    Cache c(4 * KiB, 4);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1020)); // same 64B line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // Direct construct a tiny cache: 2 sets x 2 ways of 64B lines.
    Cache c(256, 2);
    ASSERT_EQ(c.sets(), 2u);
    // Three distinct lines mapping to set 0: line addrs 0, 2, 4.
    EXPECT_FALSE(c.access(0 * 64));
    EXPECT_FALSE(c.access(2 * 64));
    EXPECT_FALSE(c.access(4 * 64)); // evicts line 0
    EXPECT_FALSE(c.access(0 * 64)); // line 0 gone
    EXPECT_TRUE(c.access(4 * 64));  // line 4 retained
}

TEST(Cache, LruRefreshOnHit)
{
    Cache c(256, 2);
    c.access(0 * 64);
    c.access(2 * 64);
    c.access(0 * 64);       // refresh line 0
    c.access(4 * 64);       // evicts line 2, not line 0
    EXPECT_TRUE(c.access(0 * 64));
    EXPECT_FALSE(c.access(2 * 64));
}

TEST(Cache, InvalidateAll)
{
    // The whole address space as one range drops every line.
    Cache c(4 * KiB, 4);
    c.access(0x0);
    c.access(0x40);
    c.invalidateRange(0, ~0ULL << lineShift);
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x40));
}

TEST(Cache, InvalidateRangeIsSelective)
{
    Cache c(64 * KiB, 8);
    c.access(0x1000);
    c.access(0x8000);
    c.invalidateRange(0x0, 0x4000);
    EXPECT_FALSE(c.access(0x1000)); // invalidated
    EXPECT_TRUE(c.access(0x8000));  // untouched
}

TEST(Cache, InvalidationClearsMruHint)
{
    // The fast path hits on the last line accessed without looking
    // at the set. Narrow and wide invalidations must drop that hint
    // when they drop its line: after invalidating the hinted line,
    // the very next access to it must miss.
    Cache c(64 * KiB, 8);
    c.access(0x1000);
    EXPECT_TRUE(c.access(0x1000)); // hint now points at 0x1000
    c.invalidateRange(0x1000, 0x1040);
    EXPECT_FALSE(c.access(0x1000))
        << "stale MRU hint produced a hit on an invalidated line";

    c.access(0x2000);
    EXPECT_TRUE(c.access(0x2000));
    c.invalidateRange(0, ~0ULL << lineShift);
    EXPECT_FALSE(c.access(0x2000))
        << "stale MRU hint survived a whole-space invalidation";

    // An empty-range invalidation takes the early return; the hint
    // is still required to be consistent afterwards.
    c.access(0x3000);
    c.invalidateRange(0x5000, 0x5000); // hi <= lo: no-op
    EXPECT_TRUE(c.access(0x3000));
}

TEST(Cache, RejectsBadGeometry)
{
    // 3 sets is not a power of two.
    EXPECT_THROW(Cache(3 * 64 * 2, 2), std::logic_error);
    EXPECT_THROW(Cache(4 * KiB, 0), std::logic_error);
    // The recency word ranks at most 16 ways; 17 is refused even
    // though 17 ways x 1 set is a power-of-two set count.
    EXPECT_THROW(Cache(17 * 64, 17), std::logic_error);
    EXPECT_THROW(Cache(32 * 64, 32), std::logic_error);
    Cache widest(16 * 64, 16);
    EXPECT_EQ(widest.sets(), 1u);
}

TEST(Cache, OversizedTagIsRefusedNotAliased)
{
    // 16 sets, so tag = paddr >> 10. Ways store tag + 1 in 32 bits.
    Cache c(4 * KiB, 4);
    const std::uint64_t max_tag = 0xFFFFFFFEULL;
    auto addr = [](std::uint64_t tag, std::uint64_t set) {
        return ((tag << 4) | set) << 6;
    };
    // The largest storable tag is an ordinary line.
    EXPECT_FALSE(c.access(addr(max_tag, 3)));
    EXPECT_TRUE(c.access(addr(max_tag, 3)));
    EXPECT_FALSE(c.access(addr(0, 3)));
    // Tags 2^32 - 1 and 2^32 would wrap tag + 1 onto the empty marker
    // and onto tag 0's key; both must fail loudly.
    EXPECT_THROW(c.access(addr(max_tag + 1, 3)), std::logic_error);
    EXPECT_THROW(c.access(addr(max_tag + 2, 3)), std::logic_error);
    EXPECT_THROW(c.access(addr(1ULL << 40, 0)), std::logic_error);
    // The refused accesses left no trace: both lines still hit, and
    // only the three accepted lookups above were counted.
    EXPECT_EQ(c.hits() + c.misses(), 3u);
    EXPECT_TRUE(c.access(addr(0, 3)));
    EXPECT_TRUE(c.access(addr(max_tag, 3)));
    // A range reaching past the storable tags drops what it covers.
    c.invalidateRange(addr(max_tag, 0), addr(max_tag + 4, 0));
    EXPECT_FALSE(c.access(addr(max_tag, 3)));
    EXPECT_TRUE(c.access(addr(0, 3)));
}

// Reference model: each set is a list of resident tags from most to
// least recently used, at most `ways` long.
class RecencyListModel
{
  public:
    RecencyListModel(std::uint64_t nsets, unsigned ways)
        : ways(ways), setsOf(nsets)
    {
    }

    bool
    access(std::uint64_t line)
    {
        auto &set = setsOf[line % setsOf.size()];
        const std::uint64_t tag = line / setsOf.size();
        auto it = std::find(set.begin(), set.end(), tag);
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == ways)
            set.pop_back();
        set.insert(set.begin(), tag);
        ++(hit ? hits : misses);
        return hit;
    }

    void
    invalidateLines(std::uint64_t first, std::uint64_t last)
    {
        for (std::size_t s = 0; s < setsOf.size(); ++s) {
            std::erase_if(setsOf[s], [&](std::uint64_t tag) {
                const std::uint64_t line = tag * setsOf.size() + s;
                return line >= first && line <= last;
            });
        }
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    std::size_t ways;
    std::vector<std::vector<std::uint64_t>> setsOf;
};

class CacheModelTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheModelTest, MatchesRecencyListModel)
{
    struct Geometry
    {
        std::uint64_t size;
        unsigned ways;
    };
    const Geometry geometries[] = {
        {32 * KiB, 8},         // L1D
        {1 * MiB, 16},         // L2
        {64 * lineSize, 4},    // L1 TLB
        {1536 * lineSize, 6},  // L2 TLB
        {4 * KiB, 1},          // direct mapped
        {4 * KiB, 16},         // 4 sets x 16 ways
        {16 * lineSize, 16},   // one set, widest
        {3 * lineSize, 3},     // one set, padded slots
        {16 * lineSize, 2},    // 2-slot sets, eight to a block
        {160 * lineSize, 5},   // 32 sets x 5 ways, 8-slot stride
        {7 * lineSize, 7},     // one set of 8 slots in a 16-slot block
    };
    const std::uint64_t max_tag = 0xFFFFFFFEULL;
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(::testing::Message()
                     << g.size << " bytes, " << g.ways << " ways");
        Rng rng(GetParam() * 131 + g.ways);
        Cache c(g.size, g.ways);
        const std::uint64_t nsets = c.sets();
        RecencyListModel m(nsets, g.ways);
        // A few hot sets see more tags than they have ways, so they
        // hit, evict and refill; cold lines land anywhere. Some tags
        // sit just below the largest storable one.
        std::uint64_t hot[4];
        for (auto &h : hot)
            h = rng.nextBelow(nsets);
        auto pick_tag = [&]() -> std::uint64_t {
            const std::uint64_t t = rng.nextBelow(2 * g.ways + 2);
            return rng.nextBelow(16) == 0 ? max_tag - t : t;
        };
        std::uint64_t prev = 0;
        for (int op = 0; op < 6000; ++op) {
            const std::uint64_t kind = rng.nextBelow(100);
            if (kind < 88) {
                std::uint64_t line;
                if (kind < 15)
                    line = prev; // the MRU fast path
                else if (kind < 70)
                    line = pick_tag() * nsets + hot[rng.nextBelow(4)];
                else
                    line = pick_tag() * nsets + rng.nextBelow(nsets);
                const bool want = m.access(line);
                ASSERT_EQ(c.access(line * lineSize + rng.nextBelow(64)),
                          want)
                    << "op " << op << " line " << line;
                prev = line;
            } else if (kind < 99) {
                // Narrow (span < sets), wide (span >= sets) or empty,
                // starting near a recent line.
                const std::uint64_t back = rng.nextBelow(4);
                const std::uint64_t first =
                    prev >= back ? prev - back : 0;
                std::uint64_t span;
                switch (rng.nextBelow(3)) {
                case 0:
                    span = rng.nextBelow(std::min<std::uint64_t>(
                        nsets, 2 * g.ways + 2));
                    break;
                case 1:
                    span = nsets + rng.nextBelow(3 * nsets);
                    break;
                default:
                    span = (max_tag + 2) * nsets; // everything
                    break;
                }
                if (span > 0)
                    m.invalidateLines(first, first + span - 1);
                c.invalidateRange(first * lineSize,
                                  (first + span) * lineSize);
            } else {
                // The whole address space.
                m.invalidateLines(0, (~0ULL >> lineShift) - 1);
                c.invalidateRange(0, ~0ULL << lineShift);
            }
        }
        EXPECT_EQ(c.hits(), m.hits);
        EXPECT_EQ(c.misses(), m.misses);
        EXPECT_GT(m.hits, 500u);
        EXPECT_GT(m.misses, 500u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelTest,
                         ::testing::Range<std::uint64_t>(1, 17));

struct CacheGeometry
{
    std::uint64_t size;
    unsigned ways;
};

/**
 * "4KiB_2way": the case's printout, free of the struct's padding. ctest
 * names each case by it (".../FillsToCapacityWithoutConflict/4KiB_2way").
 */
std::string
geometryName(const CacheGeometry &g)
{
    return (g.size >= MiB ? std::to_string(g.size / MiB) + "MiB"
                          : std::to_string(g.size / KiB) + "KiB") +
           "_" + std::to_string(g.ways) + "way";
}

void
PrintTo(const CacheGeometry &g, std::ostream *os)
{
    *os << geometryName(g);
}

class CacheGeometryTest : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheGeometryTest, FillsToCapacityWithoutConflict)
{
    auto [size, ways] = GetParam();
    Cache c(size, ways);
    const std::uint64_t lines = size / lineSize;
    // Sequential fill touches each line once: all misses.
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_FALSE(c.access(i * lineSize));
    // Re-touch: all hits (LRU never evicted within capacity).
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(i * lineSize));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(CacheGeometry{4 * KiB, 2},
                      CacheGeometry{32 * KiB, 8},
                      CacheGeometry{1 * MiB, 16},
                      CacheGeometry{64 * KiB, 1}));

// ---------------------------------------------------------------- tlb

TEST(Tlb, MissCostsWalkThenHitsL1)
{
    TlbHierarchy t;
    TlbResult r = t.lookup(0x10000);
    EXPECT_EQ(r.where, TlbResult::Where::Walk);
    EXPECT_EQ(r.cycles, latency::tlbL2 + latency::tlbMiss);
    r = t.lookup(0x10008); // same page
    EXPECT_EQ(r.where, TlbResult::Where::L1);
    EXPECT_EQ(t.walkCount(), 1u);
}

TEST(Tlb, L2CatchesL1Evictions)
{
    TlbHierarchy t;
    // Fill well past the 64-entry L1 but within the 1536-entry L2.
    for (std::uint64_t p = 0; p < 512; ++p)
        t.lookup(p * pageSize);
    // The first page fell out of L1 but should be in L2.
    TlbResult r = t.lookup(0);
    EXPECT_EQ(r.where, TlbResult::Where::L2);
}

TEST(Tlb, ShootdownRangeForcesRewalk)
{
    TlbHierarchy t;
    t.lookup(0x4000);
    t.lookup(0x400000);
    t.shootdownRange(0x0, 0x10000);
    EXPECT_EQ(t.lookup(0x4000).where, TlbResult::Where::Walk);
    EXPECT_EQ(t.lookup(0x400000).where, TlbResult::Where::L1);
}

// Both TLB levels beside recency-list models: lookups that overfill
// some sets of both levels, interleaved with narrow, wide and
// whole-space shootdowns, must hit, miss and walk exactly as the
// models say.
TEST(Tlb, MatchesRecencyListModels)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed);
        TlbHierarchy t;
        RecencyListModel m1(16, 4), m2(256, 6);
        // Eight 64-page ranges that share their L1 and L2 sets, so
        // eight pages contend for each 6-way L2 set; the last range
        // ends just below the highest page the 16-set L1 can tag.
        const std::uint64_t bases[] = {
            0,           1ULL << 20,  2ULL << 20,  3ULL << 20,
            0x7f0000000, 0x7f0000100, 0x7f0000200, (1ULL << 36) - 128};
        std::uint64_t prev = 0;
        std::uint64_t walks = 0;
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t kind = rng.nextBelow(1000);
            if (kind < 980) {
                std::uint64_t page = prev;
                if (kind >= 200)
                    page = bases[rng.nextBelow(8)] + rng.nextBelow(64);
                TlbResult::Where want = TlbResult::Where::Walk;
                if (m1.access(page))
                    want = TlbResult::Where::L1;
                else if (m2.access(page))
                    want = TlbResult::Where::L2;
                walks += want == TlbResult::Where::Walk;
                ASSERT_EQ(t.lookup(page * pageSize + rng.nextBelow(
                                                       pageSize)).where,
                          want)
                    << "op " << op << " page " << page;
                prev = page;
            } else if (kind < 998) {
                // Narrow (under 16 pages), middling or wide (256 and
                // up), starting near the last page looked up.
                const std::uint64_t spans[] = {1 + rng.nextBelow(15),
                                               16 + rng.nextBelow(240),
                                               256 + rng.nextBelow(512)};
                const std::uint64_t span = spans[rng.nextBelow(3)];
                const std::uint64_t first =
                    prev - std::min<std::uint64_t>(prev,
                                                   rng.nextBelow(8));
                m1.invalidateLines(first, first + span - 1);
                m2.invalidateLines(first, first + span - 1);
                // The range may end anywhere in its last page.
                t.shootdownRange(first * pageSize,
                                 (first + span - 1) * pageSize + 1 +
                                     rng.nextBelow(pageSize));
            } else {
                m1.invalidateLines(0, ~0ULL);
                m2.invalidateLines(0, ~0ULL);
                t.shootdownRange(0, ~0ULL);
            }
        }
        EXPECT_EQ(t.walkCount(), walks);
        EXPECT_GT(m1.hits, 4000u);
        EXPECT_GT(m2.hits, 2000u);
        EXPECT_GT(walks, 5000u);
    }
}

// The L1 TLB has 16 sets and the L2 TLB 256. Spans below, between and
// above those counts map a range onto some sets, onto every L1 set,
// or onto every set of both levels.
class TlbShootdownSpanTest : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static std::uint64_t va(std::uint64_t page) { return page * pageSize; }

    // Where a lookup of page would land, without disturbing t.
    static TlbResult::Where
    where(const TlbHierarchy &t, std::uint64_t page)
    {
        TlbHierarchy probe = t;
        return probe.lookup(va(page)).where;
    }

    // Leave page in the L2 TLB only: four later pages in its L1 set
    // (far from any range under test) push it out of the 4-way L1.
    static void
    loadL2Only(TlbHierarchy &t, std::uint64_t page)
    {
        t.lookup(va(page));
        for (std::uint64_t k = 1; k <= 4; ++k)
            t.lookup(va((1ULL << 24) + page % 16 + 16 * k));
    }
};

TEST_P(TlbShootdownSpanTest, RewalksExactlyTheRange)
{
    const std::uint64_t span = GetParam();
    const std::uint64_t lo = 1024;
    const std::uint64_t end = lo + span;
    const std::uint64_t in_l2[] = {lo + 1, lo + span / 2};
    const std::uint64_t out_l2[] = {lo - 2, end + 1};
    const std::uint64_t in_l1[] = {lo, end - 1};
    const std::uint64_t out_l1[] = {lo - 1, end};

    TlbHierarchy t;
    for (std::uint64_t p : in_l2)
        loadL2Only(t, p);
    for (std::uint64_t p : out_l2)
        loadL2Only(t, p);
    for (std::uint64_t p : in_l1)
        t.lookup(va(p));
    for (std::uint64_t p : out_l1)
        t.lookup(va(p));
    for (std::uint64_t p : in_l2)
        ASSERT_EQ(where(t, p), TlbResult::Where::L2) << "page " << p;
    for (std::uint64_t p : out_l2)
        ASSERT_EQ(where(t, p), TlbResult::Where::L2) << "page " << p;
    for (std::uint64_t p : in_l1)
        ASSERT_EQ(where(t, p), TlbResult::Where::L1) << "page " << p;
    for (std::uint64_t p : out_l1)
        ASSERT_EQ(where(t, p), TlbResult::Where::L1) << "page " << p;

    t.shootdownRange(va(lo), va(end));
    for (std::uint64_t p : in_l1)
        EXPECT_EQ(where(t, p), TlbResult::Where::Walk) << "page " << p;
    for (std::uint64_t p : in_l2)
        EXPECT_EQ(where(t, p), TlbResult::Where::Walk) << "page " << p;
    for (std::uint64_t p : out_l1)
        EXPECT_EQ(where(t, p), TlbResult::Where::L1) << "page " << p;
    for (std::uint64_t p : out_l2)
        EXPECT_EQ(where(t, p), TlbResult::Where::L2) << "page " << p;
    // A range that ends mid-page still covers that page.
    t.shootdownRange(va(lo - 1), va(lo - 1) + 8);
    EXPECT_EQ(where(t, lo - 1), TlbResult::Where::Walk);
    EXPECT_EQ(where(t, end), TlbResult::Where::L1);
}

INSTANTIATE_TEST_SUITE_P(Spans, TlbShootdownSpanTest,
                         ::testing::Values(4, 15, 16, 100, 255, 256,
                                           600));

TEST(Tlb, ShootdownAll)
{
    TlbHierarchy t;
    t.lookup(0x4000);
    t.shootdownRange(0, ~0ULL); // every page
    EXPECT_EQ(t.lookup(0x4000).where, TlbResult::Where::Walk);
}

// ------------------------------------------------------------- thread

TEST(Thread, ChargeAccumulatesPerCategory)
{
    ThreadContext tc(0, 0);
    tc.work(100);
    tc.charge(Charge::Attach, 50);
    tc.charge(Charge::Cond, 7);
    EXPECT_EQ(tc.now(), 157u);
    EXPECT_EQ(tc.charged(Charge::Work), 100u);
    EXPECT_EQ(tc.charged(Charge::Attach), 50u);
    EXPECT_EQ(tc.overheadTotal(), 57u);
}

TEST(Thread, SyncToOnlyMovesForward)
{
    ThreadContext tc(0, 0);
    tc.work(100);
    tc.syncTo(150, Charge::Rand);
    EXPECT_EQ(tc.now(), 150u);
    EXPECT_EQ(tc.charged(Charge::Rand), 50u);
    tc.syncTo(120, Charge::Rand); // no-op: in the past
    EXPECT_EQ(tc.now(), 150u);
}

TEST(Thread, BlockUnblock)
{
    ThreadContext tc(3, 1);
    EXPECT_FALSE(tc.blocked());
    tc.blockOn(77);
    EXPECT_TRUE(tc.blocked());
    EXPECT_EQ(tc.blockToken(), 77u);
    EXPECT_THROW(tc.blockOn(78), std::logic_error); // double block
    tc.unblock();
    EXPECT_FALSE(tc.blocked());
}

// ------------------------------------------------------------ machine

namespace {

/** Job performing fixed work per step for a given number of steps. */
class WorkJob : public Job
{
  public:
    WorkJob(Cycles per_step, int steps) : per(per_step), left(steps) {}

    bool
    step(ThreadContext &tc) override
    {
        tc.work(per);
        return --left > 0;
    }

    Cycles per;
    int left;
};

} // namespace

TEST(Machine, ExecuteHonoursCpiWithCarry)
{
    Machine m;
    ThreadContext &tc = m.spawnThread();
    m.execute(tc, 1); // 0.5 cycles: carried, not lost
    m.execute(tc, 1);
    EXPECT_EQ(tc.now(), 1u);
    m.execute(tc, 100);
    EXPECT_EQ(tc.now(), 51u);
}

TEST(Machine, ColdNvmAccessCostsFullLatency)
{
    Machine m;
    ThreadContext &tc = m.spawnThread();
    MemAccess a{0x100000, 0x200000, false, MemKind::Nvm};
    Cycles c = m.access(tc, a);
    // walk (4+30) + L1 miss (1) + L2 miss (8) + NVM (360)
    EXPECT_EQ(c, latency::tlbL2 + latency::tlbMiss + latency::l1Hit +
                     latency::l2Hit + latency::nvm);
    // Hot access: L1 TLB + L1 hit = 1 cycle.
    c = m.access(tc, a);
    EXPECT_EQ(c, latency::l1Hit);
}

TEST(Machine, DramCheaperThanNvm)
{
    Machine m;
    ThreadContext &tc = m.spawnThread();
    Cycles dram = m.access(
        tc, MemAccess{0x1000, 0x1000, false, MemKind::Dram});
    Cycles nvm = m.access(
        tc, MemAccess{0x900000, 0x900000, false, MemKind::Nvm});
    EXPECT_EQ(nvm - dram, latency::nvm - latency::dram);
}

TEST(Machine, SchedulerPicksMinClockThread)
{
    Machine m;
    m.spawnThread();
    m.spawnThread();
    WorkJob fast(10, 100);
    WorkJob slow(1000, 100);
    std::vector<Job *> jobs{&slow, &fast};
    m.run(jobs);
    // Both ran to completion; total times reflect their work.
    EXPECT_EQ(m.thread(0).now(), 100u * 1000u);
    EXPECT_EQ(m.thread(1).now(), 100u * 10u);
    EXPECT_EQ(m.maxClock(), 100u * 1000u);
}

TEST(Machine, HookFiresAtPeriodBoundaries)
{
    MachineConfig cfg;
    cfg.hookPeriod = 100;
    Machine m(cfg);
    m.spawnThread();
    WorkJob job(250, 4); // 1000 cycles of work
    std::vector<Cycles> fired;
    std::vector<Job *> jobs{&job};
    m.run(jobs, [&](Cycles t) { fired.push_back(t); });
    ASSERT_GE(fired.size(), 7u);
    EXPECT_EQ(fired[0], 100u);
    EXPECT_EQ(fired[1], 200u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_EQ(fired[i] - fired[i - 1], 100u);
}

TEST(Machine, WakeReleasesBlockedThread)
{
    Machine m;
    ThreadContext &a = m.spawnThread();
    a.blockOn(5);
    m.wake(5, 1234);
    EXPECT_FALSE(a.blocked());
    EXPECT_EQ(a.now(), 1234u);
}

TEST(Machine, AllBlockedIsDeadlockPanic)
{
    Machine m;
    ThreadContext &a = m.spawnThread();

    class BlockJob : public Job
    {
      public:
        bool
        step(ThreadContext &tc) override
        {
            tc.blockOn(1);
            return true;
        }
    } job;

    (void)a;
    std::vector<Job *> jobs{&job};
    EXPECT_THROW(m.run(jobs), std::logic_error);
}

TEST(Machine, SuspendAllChargesEveryLiveThread)
{
    Machine m;
    m.spawnThread();
    m.spawnThread();
    m.thread(0).work(10);
    m.suspendAllUntil(500, Charge::Rand);
    EXPECT_EQ(m.thread(0).now(), 500u);
    EXPECT_EQ(m.thread(1).now(), 500u);
    EXPECT_EQ(m.thread(0).charged(Charge::Rand), 490u);
}

TEST(Machine, ShootdownRangeAffectsAllCores)
{
    Machine m;
    ThreadContext &t0 = m.spawnThread(); // core 0
    ThreadContext &t1 = m.spawnThread(); // core 1
    MemAccess a{0x40000, 0x40000, false, MemKind::Dram};
    m.access(t0, a);
    m.access(t1, a);
    m.shootdownRange(0x40000, 0x41000);
    // Both cores must re-walk.
    std::uint64_t walks_before = m.totalWalks();
    m.access(t0, a);
    m.access(t1, a);
    EXPECT_EQ(m.totalWalks(), walks_before + 2);
}
