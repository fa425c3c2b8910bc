/**
 * @file
 * Unit tests for src/arch: MPK thread domains, the MERR permission
 * matrix and the TERP circular buffer (CONDAT/CONDDT cases 1-6,
 * sweep behaviour, hardware cost).
 */

#include <gtest/gtest.h>

#include "arch/circular_buffer.hh"
#include "arch/mpk.hh"
#include "arch/perm_matrix.hh"
#include "common/rng.hh"

using namespace terp;
using namespace terp::arch;

// ----------------------------------------------------------------- mpk

TEST(Mpk, GrantRevokeAllows)
{
    ThreadDomains d;
    EXPECT_FALSE(d.allows(0, 1, false));
    d.grant(0, 1, pm::Mode::Read);
    EXPECT_TRUE(d.allows(0, 1, false));
    EXPECT_FALSE(d.allows(0, 1, true)); // read-only
    d.grant(0, 1, pm::Mode::ReadWrite);
    EXPECT_TRUE(d.allows(0, 1, true));
    d.revoke(0, 1);
    EXPECT_FALSE(d.allows(0, 1, false));
}

TEST(Mpk, PermissionsArePerThreadPerPmo)
{
    ThreadDomains d;
    d.grant(0, 1, pm::Mode::ReadWrite);
    EXPECT_FALSE(d.allows(1, 1, false)); // other thread
    EXPECT_FALSE(d.allows(0, 2, false)); // other PMO
    EXPECT_TRUE(d.holds(0, 1));
    EXPECT_FALSE(d.holds(1, 1));
}

TEST(Mpk, HolderCountAndRevokeAll)
{
    ThreadDomains d;
    d.grant(0, 1, pm::Mode::Read);
    d.grant(1, 1, pm::Mode::ReadWrite);
    d.grant(2, 2, pm::Mode::Read);
    EXPECT_EQ(d.holderCount(1), 2u);
    EXPECT_EQ(d.holderCount(2), 1u);
    d.revokeAll(1);
    EXPECT_EQ(d.holderCount(1), 0u);
    EXPECT_EQ(d.holderCount(2), 1u);
}

// --------------------------------------------------------- perm matrix

TEST(PermMatrix, CheckCoversRangeAndRights)
{
    PermissionMatrix m;
    m.add(1, 0x10000, 0x1000, pm::Mode::Read);
    MatrixHit h = m.check(0x10800, false);
    EXPECT_TRUE(h.present);
    EXPECT_TRUE(h.permitted);
    EXPECT_EQ(h.pmo, 1u);
    h = m.check(0x10800, true);
    EXPECT_TRUE(h.present);
    EXPECT_FALSE(h.permitted); // write to read-only
    h = m.check(0x20000, false);
    EXPECT_FALSE(h.present); // outside every entry
}

TEST(PermMatrix, RemoveAndRebase)
{
    PermissionMatrix m;
    m.add(1, 0x10000, 0x1000, pm::Mode::ReadWrite);
    m.rebase(1, 0x50000);
    EXPECT_FALSE(m.check(0x10100, false).present);
    EXPECT_TRUE(m.check(0x50100, true).permitted);
    m.remove(1);
    EXPECT_FALSE(m.check(0x50100, false).present);
    EXPECT_EQ(m.entryCount(), 0u);
}

TEST(PermMatrix, GuardsDoubleAddAndMissingRemove)
{
    PermissionMatrix m;
    m.add(1, 0, 64, pm::Mode::Read);
    EXPECT_THROW(m.add(1, 100, 64, pm::Mode::Read),
                 std::logic_error);
    EXPECT_THROW(m.remove(9), std::logic_error);
    EXPECT_THROW(m.rebase(9, 0), std::logic_error);
}

// ------------------------------------------------------ circular buffer

TEST(CircularBuffer, Case1FirstAttachAllocates)
{
    CircularBuffer cb;
    EXPECT_EQ(cb.condAttach(1, 100), CondAttachCase::FirstAttach);
    EXPECT_TRUE(cb.resident(1));
    EXPECT_EQ(cb.counter(1), 1u);
    EXPECT_FALSE(cb.delayed(1));
    EXPECT_EQ(cb.timestamp(1), 100u);
}

TEST(CircularBuffer, Case2SubsequentAttachIncrements)
{
    CircularBuffer cb;
    cb.condAttach(1, 100);
    EXPECT_EQ(cb.condAttach(1, 200),
              CondAttachCase::SubsequentAttach);
    EXPECT_EQ(cb.counter(1), 2u);
    // The window timestamp is NOT refreshed.
    EXPECT_EQ(cb.timestamp(1), 100u);
}

TEST(CircularBuffer, Case4PartialDetach)
{
    CircularBuffer cb;
    cb.condAttach(1, 0);
    cb.condAttach(1, 10);
    EXPECT_EQ(cb.condDetach(1, 20, 1000),
              CondDetachCase::PartialDetach);
    EXPECT_EQ(cb.counter(1), 1u);
    EXPECT_TRUE(cb.resident(1));
}

TEST(CircularBuffer, Case6DelayedDetachThenCase3SilentAttach)
{
    CircularBuffer cb;
    cb.condAttach(1, 0);
    // Last thread leaves before the EW target: delay the detach.
    EXPECT_EQ(cb.condDetach(1, 100, 1000),
              CondDetachCase::DelayedDetach);
    EXPECT_TRUE(cb.resident(1));
    EXPECT_TRUE(cb.delayed(1));
    EXPECT_EQ(cb.counter(1), 0u);
    // Re-attach while delayed: a detach+attach syscall pair elided.
    EXPECT_EQ(cb.condAttach(1, 200), CondAttachCase::SilentAttach);
    EXPECT_FALSE(cb.delayed(1));
    EXPECT_EQ(cb.counter(1), 1u);
}

TEST(CircularBuffer, Case5FullDetachWhenWindowExpired)
{
    CircularBuffer cb;
    cb.condAttach(1, 0);
    EXPECT_EQ(cb.condDetach(1, 2000, 1000),
              CondDetachCase::FullDetach);
    EXPECT_FALSE(cb.resident(1));
}

TEST(CircularBuffer, SweepDetachesIdleExpiredEntries)
{
    CircularBuffer cb;
    cb.condAttach(1, 0);
    cb.condDetach(1, 10, 1000); // delayed (DD=1, Ctr=0)
    auto actions = cb.sweep(500, 1000);
    EXPECT_TRUE(actions.empty()); // window not expired yet
    actions = cb.sweep(1100, 1000);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].pmo, 1u);
    EXPECT_TRUE(actions[0].detach);
    EXPECT_FALSE(cb.resident(1));
}

TEST(CircularBuffer, SweepRandomizesBusyExpiredEntries)
{
    CircularBuffer cb;
    cb.condAttach(1, 0); // thread stays inside the region
    auto actions = cb.sweep(1100, 1000);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_FALSE(actions[0].detach); // randomize, keep attached
    EXPECT_TRUE(cb.resident(1));
    // The window restarted: nothing to do for a while.
    EXPECT_EQ(cb.timestamp(1), 1100u);
    EXPECT_TRUE(cb.sweep(1500, 1000).empty());
}

TEST(CircularBuffer, PaperExampleFigure7)
{
    // Fig 7(a): current time 15, max EW 10. PMO1 (ts=3, Ctr=0, DD=1)
    // is detached; PMO2 (ts=5, Ctr=3) is randomized; PMO3 (ts=12)
    // and PMO4 (ts=15) are left alone.
    CircularBuffer cb;
    cb.condAttach(1, 3);
    cb.condDetach(1, 4, 10); // delayed
    cb.condAttach(2, 5);
    cb.condAttach(2, 5);
    cb.condAttach(2, 5);
    cb.condAttach(3, 12);
    cb.condAttach(4, 15);
    auto actions = cb.sweep(15, 10);
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[0].pmo, 1u);
    EXPECT_TRUE(actions[0].detach);
    EXPECT_EQ(actions[1].pmo, 2u);
    EXPECT_FALSE(actions[1].detach);
    EXPECT_TRUE(cb.resident(3));
    EXPECT_TRUE(cb.resident(4));
}

TEST(CircularBuffer, SilentFractionCountsElisions)
{
    CircularBuffer cb;
    cb.condAttach(1, 0);              // case 1 (real)
    for (int i = 0; i < 9; ++i) {
        cb.condDetach(1, 10, 100000); // case 6 (silent)
        cb.condAttach(1, 20);         // case 3 (silent)
    }
    cb.condDetach(1, 200000, 100000); // case 5 (real)
    const auto &st = cb.stats();
    EXPECT_EQ(st.case1, 1u);
    EXPECT_EQ(st.case3, 9u);
    EXPECT_EQ(st.case6, 9u);
    EXPECT_EQ(st.case5, 1u);
    EXPECT_NEAR(st.silentFraction(), 18.0 / 20.0, 1e-9);
}

TEST(CircularBuffer, HardwareCostMatchesPaper)
{
    EXPECT_EQ(CircularBuffer::capacity, 32u);
    EXPECT_EQ(CircularBuffer::entryBits, 34u);
    // ~140 bytes of on-chip state (paper: 140 bytes, 0.006% of die).
    EXPECT_GE(CircularBuffer::storageBytes, 136u);
    EXPECT_LE(CircularBuffer::storageBytes, 144u);
}

TEST(CircularBuffer, CapacityOverflowPanics)
{
    CircularBuffer cb;
    for (pm::PmoId p = 1; p <= CircularBuffer::capacity; ++p)
        cb.condAttach(p, 0);
    EXPECT_THROW(cb.condAttach(99, 0), std::logic_error);
}

TEST(CircularBuffer, DetachOfUnknownPmoPanics)
{
    CircularBuffer cb;
    EXPECT_THROW(cb.condDetach(7, 0, 10), std::logic_error);
}

TEST(CircularBuffer, EvictRemovesEntry)
{
    CircularBuffer cb;
    cb.condAttach(1, 0);
    cb.evict(1);
    EXPECT_FALSE(cb.resident(1));
    EXPECT_EQ(cb.liveEntries(), 0u);
}

/**
 * liveEntries() is the O(1) nLive count the cb.occupancy gauge reads
 * on every conditional attach and sweep tick; it must equal a scan of
 * the valid entries after every kind of mutation.
 */
TEST(CircularBuffer, LiveEntriesMatchesScanUnderRandomOps)
{
    constexpr pm::PmoId pmos = 24; // below capacity: allocate never fails
    constexpr Cycles maxEw = 40;
    Rng rng(0xcb0cc);
    CircularBuffer cb;
    Cycles now = 0;
    for (int op = 0; op < 20000; ++op) {
        now += rng.nextBelow(8);
        pm::PmoId pmo = static_cast<pm::PmoId>(rng.nextBelow(pmos));
        switch (rng.nextBelow(4)) {
          case 0:
            cb.condAttach(pmo, now);
            break;
          case 1:
            if (cb.counter(pmo) > 0)
                cb.condDetach(pmo, now, maxEw);
            break;
          case 2:
            cb.sweep(now, maxEw);
            break;
          default:
            if (rng.nextBelow(4) == 0)
                cb.evict(pmo);
            break;
        }
        ASSERT_EQ(cb.liveEntries(), cb.residentPmos().size())
            << "after op " << op;
    }
    // The sequence reached every path that adds or drops an entry.
    const CircularBuffer::Stats &st = cb.stats();
    EXPECT_GT(st.case1, 0u);
    EXPECT_GT(st.case5, 0u);
    EXPECT_GT(st.sweepDetach, 0u);
    EXPECT_GT(st.sweepRandomize, 0u);
}

class CbThreadCountTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CbThreadCountTest, CounterTracksConcurrentThreads)
{
    unsigned n = GetParam();
    CircularBuffer cb;
    cb.condAttach(1, 0);
    for (unsigned i = 1; i < n; ++i)
        cb.condAttach(1, i);
    EXPECT_EQ(cb.counter(1), n);
    // All but the last detach are partial.
    for (unsigned i = 0; i + 1 < n; ++i) {
        EXPECT_EQ(cb.condDetach(1, 100 + i, 1000000),
                  CondDetachCase::PartialDetach);
    }
    EXPECT_EQ(cb.condDetach(1, 200, 1000000),
              CondDetachCase::DelayedDetach);
}

INSTANTIATE_TEST_SUITE_P(Threads, CbThreadCountTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));
