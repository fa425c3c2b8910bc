/**
 * @file
 * Unit tests for src/pm: ObjectIDs, the embedded page-table subtree,
 * PMOs, the pool allocator and the PMO manager.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "pm/mem_image.hh"
#include "pm/oid.hh"
#include "pm/page_table.hh"
#include "pm/palloc.hh"
#include "pm/pmo_manager.hh"

using namespace terp;
using namespace terp::pm;

// --------------------------------------------------------------- oid

TEST(Oid, PacksPoolAndOffset)
{
    Oid o(5, 0x123456);
    EXPECT_EQ(o.pool(), 5u);
    EXPECT_EQ(o.offset(), 0x123456u);
    EXPECT_FALSE(o.isNull());
    EXPECT_TRUE(nullOid.isNull());
}

TEST(Oid, PlusStaysInPool)
{
    Oid o(3, 100);
    Oid p = o.plus(28);
    EXPECT_EQ(p.pool(), 3u);
    EXPECT_EQ(p.offset(), 128u);
}

TEST(Oid, RawRoundTrip)
{
    Oid o(7, 0xdeadbeef);
    Oid r = Oid::fromRaw(o.raw);
    EXPECT_EQ(r, o);
}

TEST(Oid, HashUsableInContainers)
{
    std::unordered_map<Oid, int> m;
    m[Oid(1, 2)] = 3;
    EXPECT_EQ(m.at(Oid(1, 2)), 3);
}

// --------------------------------------------------------- mem image

TEST(MemImage, PeekPokeDefaultZero)
{
    MemImage img;
    EXPECT_EQ(img.peek(0x40), 0u);
    img.poke(0x40, 99);
    EXPECT_EQ(img.peek(0x40), 99u);
    EXPECT_EQ(img.wordCount(), 1u);
}

TEST(MemImage, RoundTripsAcrossEveryGrowth)
{
    // Word i's key: 0 first, then alternating DRAM offsets and
    // ObjectIDs with pool bits set; all distinct.
    auto key = [](std::uint64_t i) -> std::uint64_t {
        if (i == 0)
            return 0;
        return i % 2 ? Oid(static_cast<PmoId>(1 + i % 5), 8 * i).raw
                     : 8 * i;
    };
    auto value = [](std::uint64_t i, std::uint64_t round) {
        return i * 0x9e3779b97f4a7c15ULL + round + 1;
    };

    MemImage img;
    // Starts small; the 717th word (load 0.7 of 1 Ki slots) jumps
    // straight to 64 Ki, then the table doubles at the same load.
    const struct
    {
        std::uint64_t words;
        std::size_t slots;
    } steps[] = {
        {0, 1u << 10},      {1, 1u << 10},       {716, 1u << 10},
        {717, 1u << 16},    {45875, 1u << 16},   {45876, 1u << 17},
        {91750, 1u << 17},  {91751, 1u << 18},   {100000, 1u << 18},
    };
    std::uint64_t n = 0;
    for (const auto &st : steps) {
        for (; n < st.words; ++n)
            img.poke(key(n), value(n, 0));
        ASSERT_EQ(img.wordCount(), st.words);
        ASSERT_EQ(img.slotCount(), st.slots) << st.words << " words";
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(img.peek(key(i)), value(i, 0)) << "word " << i;
        // Keys not (yet) poked read 0 at every size, key 0 included.
        for (std::uint64_t i = n; i < n + 64; ++i)
            ASSERT_EQ(img.peek(key(i)), 0u) << "absent word " << i;
        EXPECT_EQ(img.peek(Oid(9, 8).raw), 0u);
    }
    // Overwrites keep the word count and the geometry.
    for (std::uint64_t i = 0; i < n; i += 7)
        img.poke(key(i), value(i, 1));
    EXPECT_EQ(img.wordCount(), n);
    EXPECT_EQ(img.slotCount(), 1u << 18);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(img.peek(key(i)), value(i, i % 7 == 0 ? 1 : 0));
}

TEST(MemImage, PmoPointerDiscrimination)
{
    EXPECT_TRUE(MemImage::isPmoPointer(Oid(1, 0).raw));
    EXPECT_FALSE(MemImage::isPmoPointer(0x1000));
}

// --------------------------------------------------------- page table

TEST(EmbeddedSubtree, OnePageNeedsOnePte)
{
    EmbeddedSubtree t(pageSize);
    EXPECT_EQ(t.subtreePteCount(), 1u);
}

TEST(EmbeddedSubtree, LinearConventionalCostVsConstantEmbedded)
{
    EmbeddedSubtree small(1 * MiB);
    EmbeddedSubtree big(1 * GiB);
    // Conventional attach cost grows ~linearly with size...
    EXPECT_GT(big.conventionalAttachPtes(),
              900 * small.conventionalAttachPtes());
    // ...while the embedded attach is always a single PTE install.
    EXPECT_EQ(EmbeddedSubtree::embeddedAttachPtes, 1u);
}

TEST(EmbeddedSubtree, PteCountMatchesGeometry)
{
    // 2 MB = 512 leaf PTEs + 1 L2 entry.
    EmbeddedSubtree t(2 * MiB);
    EXPECT_EQ(t.subtreePteCount(), 512u + 1u);
    EXPECT_EQ(t.rootLevel(), 2u);
}

class SubtreeSizeTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SubtreeSizeTest, LeafCountCoversSize)
{
    std::uint64_t size = GetParam();
    EmbeddedSubtree t(size);
    std::uint64_t leaves = (size + pageSize - 1) / pageSize;
    EXPECT_GE(t.subtreePteCount(), leaves);
    // Interior overhead is < 1% for multi-megabyte PMOs.
    EXPECT_LE(t.subtreePteCount(), leaves + leaves / 100 + 4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SubtreeSizeTest,
                         ::testing::Values(4 * KiB, 64 * KiB, 1 * MiB,
                                           16 * MiB, 1 * GiB));

// ----------------------------------------------------------- allocator

TEST(PoolAllocator, AllocatesAlignedDistinctBlocks)
{
    PoolAllocator a(1, 1 * MiB);
    Oid x = a.pmalloc(100);
    Oid y = a.pmalloc(100);
    ASSERT_FALSE(x.isNull());
    ASSERT_FALSE(y.isNull());
    EXPECT_NE(x, y);
    EXPECT_EQ(x.offset() % 16, 0u);
    EXPECT_GE(y.offset(), x.offset() + 112); // aligned size
    EXPECT_EQ(a.liveBlocks(), 2u);
}

TEST(PoolAllocator, FreeAndReuse)
{
    PoolAllocator a(1, 4 * KiB);
    Oid x = a.pmalloc(128);
    a.pfree(x);
    EXPECT_EQ(a.liveBytes(), 0u);
    Oid y = a.pmalloc(128);
    EXPECT_EQ(y.offset(), x.offset()); // first fit reuses the hole
}

TEST(PoolAllocator, CoalescesNeighbours)
{
    PoolAllocator a(1, 4 * KiB);
    Oid x = a.pmalloc(512);
    Oid y = a.pmalloc(512);
    Oid z = a.pmalloc(512);
    a.pfree(x);
    a.pfree(z);
    a.pfree(y); // middle free must merge with both neighbours
    // The whole span is again allocatable as one block.
    Oid big = a.pmalloc(1536);
    EXPECT_FALSE(big.isNull());
    EXPECT_EQ(big.offset(), x.offset());
}

TEST(PoolAllocator, ExhaustionReturnsNull)
{
    PoolAllocator a(1, 1 * KiB);
    Oid x = a.pmalloc(2 * KiB);
    EXPECT_TRUE(x.isNull());
}

TEST(PoolAllocator, DoubleFreePanics)
{
    PoolAllocator a(1, 4 * KiB);
    Oid x = a.pmalloc(64);
    a.pfree(x);
    EXPECT_THROW(a.pfree(x), std::logic_error);
}

TEST(PoolAllocator, WrongPoolPanics)
{
    PoolAllocator a(1, 4 * KiB);
    EXPECT_THROW(a.pfree(Oid(2, 64)), std::logic_error);
}

TEST(PoolAllocator, BlockSizeQuery)
{
    PoolAllocator a(1, 4 * KiB);
    Oid x = a.pmalloc(100);
    EXPECT_EQ(a.blockSize(x), 112u); // 16-byte aligned
    a.pfree(x);
    EXPECT_EQ(a.blockSize(x), 0u);
}

TEST(PoolAllocator, ReservePrefixExcludesLayoutRegion)
{
    PoolAllocator a(1, 1 * MiB);
    a.reservePrefix(64 * KiB);
    for (int i = 0; i < 100; ++i) {
        Oid x = a.pmalloc(256);
        ASSERT_FALSE(x.isNull());
        EXPECT_GE(x.offset(), 64 * KiB);
    }
}

class AllocatorPropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorPropertyTest, RandomAllocFreeNeverOverlaps)
{
    Rng rng(GetParam());
    PoolAllocator a(1, 256 * KiB);
    std::map<std::uint64_t, std::uint64_t> live; // offset -> end
    std::vector<Oid> handles;

    for (int step = 0; step < 2000; ++step) {
        if (handles.empty() || rng.nextBool(0.6)) {
            std::uint64_t size = rng.nextRange(1, 700);
            Oid o = a.pmalloc(size);
            if (o.isNull())
                continue;
            std::uint64_t lo = o.offset();
            std::uint64_t hi = lo + a.blockSize(o);
            // No overlap with any live block.
            auto next = live.lower_bound(lo);
            if (next != live.end()) {
                ASSERT_GE(next->first, hi);
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->second, lo);
            }
            live[lo] = hi;
            handles.push_back(o);
        } else {
            std::size_t i = rng.nextBelow(handles.size());
            a.pfree(handles[i]);
            live.erase(handles[i].offset());
            handles.erase(handles.begin() +
                          static_cast<std::ptrdiff_t>(i));
        }
    }
    // Accounting is consistent.
    EXPECT_EQ(a.liveBlocks(), handles.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 42, 97));

// ------------------------------------------------------------ manager

TEST(PmoManager, CreateOpenClose)
{
    PmoManager m;
    Pmo &p = m.create("data", 1 * MiB);
    EXPECT_EQ(p.name(), "data");
    EXPECT_EQ(p.size(), 1 * MiB);
    EXPECT_TRUE(m.exists(p.id()));

    Pmo *o = m.open("data", Mode::ReadWrite);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(o->id(), p.id());

    m.close(p);
    EXPECT_EQ(m.open("data", Mode::Read), nullptr);
}

TEST(PmoManager, OpenChecksPermissions)
{
    PmoManager m;
    m.create("ro", 1 * MiB, Mode::Read);
    EXPECT_NE(m.open("ro", Mode::Read), nullptr);
    EXPECT_EQ(m.open("ro", Mode::ReadWrite), nullptr);
}

TEST(PmoManager, DuplicateNameRejected)
{
    PmoManager m;
    m.create("x", 1 * MiB);
    EXPECT_THROW(m.create("x", 1 * MiB), std::logic_error);
}

TEST(PmoManager, MappingLandsInAlignedArenaSlot)
{
    PmoManager m(123);
    Pmo &p = m.create("x", 8 * MiB);
    MapChange ch = m.mapRandomized(p);
    EXPECT_GE(ch.newBase, PmoManager::arenaBase);
    EXPECT_LT(ch.newBase + p.size(),
              PmoManager::arenaBase + PmoManager::arenaSize);
    EXPECT_EQ(ch.newBase % PmoManager::slotAlign, 0u);
    EXPECT_TRUE(p.attached());
}

TEST(PmoManager, RerandomizeMovesTheBase)
{
    PmoManager m(5);
    Pmo &p = m.create("x", 4 * MiB);
    m.mapRandomized(p);
    std::uint64_t base1 = p.vaddrBase();
    MapChange ch = m.rerandomize(p);
    EXPECT_EQ(ch.oldBase, base1);
    EXPECT_NE(p.vaddrBase(), base1);
    EXPECT_EQ(p.physBase(), m.pmo(p.id()).physBase());
    EXPECT_EQ(p.mapCount, 2u);
}

TEST(PmoManager, AttachedPmosNeverOverlap)
{
    PmoManager m(9);
    for (int i = 0; i < 16; ++i) {
        Pmo &p = m.create(std::string("p").append(std::to_string(i)),
                          16 * MiB);
        m.mapRandomized(p);
    }
    for (unsigned i = 1; i <= 16; ++i) {
        for (unsigned j = i + 1; j <= 16; ++j) {
            const Pmo &a = m.pmo(i);
            const Pmo &b = m.pmo(j);
            bool disjoint =
                a.vaddrBase() + a.size() <= b.vaddrBase() ||
                b.vaddrBase() + b.size() <= a.vaddrBase();
            EXPECT_TRUE(disjoint) << i << " vs " << j;
        }
    }
}

TEST(PmoManager, OidDirectTranslation)
{
    PmoManager m;
    Pmo &p = m.create("x", 1 * MiB);
    m.mapRandomized(p);
    Oid o(p.id(), 0x480);
    EXPECT_EQ(m.oidDirect(o), p.vaddrBase() + 0x480);
    sim::MemAccess a = m.accessFor(o, true);
    EXPECT_EQ(a.vaddr, p.vaddrBase() + 0x480);
    EXPECT_EQ(a.paddr, p.physBase() + 0x480);
    EXPECT_TRUE(a.write);
    EXPECT_EQ(a.kind, sim::MemKind::Nvm);
}

TEST(PmoManager, OidDirectOnDetachedPanics)
{
    PmoManager m;
    Pmo &p = m.create("x", 1 * MiB);
    EXPECT_THROW(m.oidDirect(Oid(p.id(), 0)), std::logic_error);
}

TEST(PmoManager, FindByVaddrResolvesOnlyAttached)
{
    PmoManager m(77);
    Pmo &p = m.create("x", 1 * MiB);
    EXPECT_EQ(m.findByVaddr(PmoManager::arenaBase), nullptr);
    m.mapRandomized(p);
    EXPECT_EQ(m.findByVaddr(p.vaddrBase() + 100), &p);
    std::uint64_t stale = p.vaddrBase();
    m.rerandomize(p);
    EXPECT_EQ(m.findByVaddr(stale), nullptr);
}

TEST(PmoManager, EntropyMatchesPaperAssumption)
{
    // 1 TB arena / 4 MB slots = 2^18 placements (Table V).
    EXPECT_EQ(PmoManager::arenaSize / PmoManager::slotAlign,
              1ULL << PmoManager::entropyBits);
    EXPECT_EQ(PmoManager::entropyBits, 18u);
}

TEST(PmoManager, PlacementIsUniformish)
{
    PmoManager m(31337);
    Pmo &p = m.create("x", 4 * MiB);
    std::uint64_t lo = 0, n = 2000;
    for (std::uint64_t i = 0; i < n; ++i) {
        m.mapRandomized(p);
        if (p.vaddrBase() - PmoManager::arenaBase <
            PmoManager::arenaSize / 2) {
            ++lo;
        }
        m.unmap(p);
    }
    EXPECT_NEAR(lo / double(n), 0.5, 0.05);
}

TEST(Pmo, BoundsCheckedAddressing)
{
    PmoManager m;
    Pmo &p = m.create("x", 1 * MiB);
    m.mapRandomized(p);
    EXPECT_NO_THROW(p.vaddrOf(1 * MiB - 1));
    EXPECT_THROW(p.vaddrOf(1 * MiB), std::logic_error);
}
