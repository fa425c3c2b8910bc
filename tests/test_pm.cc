/**
 * @file
 * Unit tests for src/pm: ObjectIDs, the embedded page-table subtree,
 * PMOs, the pool allocator and the PMO manager.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

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
    // The DRAM words (16 bytes apart) fill their blocks and turn
    // dense; each pool's words lie 80 bytes apart, at most 7 to a
    // block, and stay sparse. The table starts at 1 Ki slots and
    // doubles at load 0.7 of sparse words plus dense tags, about
    // every 1390 words per 1 Ki slots.
    const struct
    {
        std::uint64_t words;
        std::size_t slots;
    } steps[] = {
        {0, 1u << 10},      {1, 1u << 10},      {1389, 1u << 10},
        {1390, 1u << 11},   {2780, 1u << 12},   {5562, 1u << 13},
        {11122, 1u << 14},  {22242, 1u << 15},  {44482, 1u << 15},
        {44483, 1u << 16},  {88965, 1u << 16},  {88966, 1u << 17},
        {100000, 1u << 17},
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
    EXPECT_EQ(img.slotCount(), 1u << 17);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(img.peek(key(i)), value(i, i % 7 == 0 ? 1 : 0));
}

TEST(MemImage, ExtremeKeysAndZeroValuesAreOrdinaryWords)
{
    // Address 0 and ~0 are both valid store targets, and a poke of 0
    // creates a word like any other.
    MemImage img;
    img.poke(0, 0);
    EXPECT_EQ(img.wordCount(), 1u);
    EXPECT_EQ(img.peek(0), 0u);
    img.poke(~0ULL, 0);
    img.poke(0x40, 0);
    EXPECT_EQ(img.wordCount(), 3u);
    img.poke(0, 7);
    img.poke(~0ULL, 9);
    EXPECT_EQ(img.wordCount(), 3u);
    EXPECT_EQ(img.peek(~0ULL - 8), 0u);
    // Both survive growth, and the words at 0 and 0x40 survive their
    // block turning dense: the words below are 16 bytes apart, so
    // every block they touch is promoted, block 0 included.
    for (std::uint64_t i = 1; i <= 50000; ++i)
        img.poke(16 * i + 8, i);
    EXPECT_EQ(img.wordCount(), 50003u);
    EXPECT_EQ(img.slotCount(), 1u << 12);
    EXPECT_EQ(img.peek(0), 7u);
    EXPECT_EQ(img.peek(~0ULL), 9u);
    EXPECT_EQ(img.peek(0x40), 0u);
    img.poke(0, 0);
    EXPECT_EQ(img.peek(0), 0u);
    EXPECT_EQ(img.wordCount(), 50003u);
}

TEST(MemImage, KeysSharingAHomeSlotSurviveGrowth)
{
    // MemImage's slot hash of a word's 512-byte block, so the keys
    // below (one word in each of 64 blocks) share one home slot at
    // every capacity up to 128 Ki and build the longest probe runs a
    // table can have. (Were the table's hash to change, the test
    // would still check every value, only on shorter runs.)
    auto mix = [](std::uint64_t x) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return x;
    };
    const std::uint64_t mask = (1u << 17) - 1;
    std::vector<std::uint64_t> shared;
    for (std::uint64_t b = 1; shared.size() < 64; ++b)
        if ((mix(b) & mask) == (mix(1) & mask))
            shared.push_back(b << 9 | 8 * (b % 64));
    // The first 48 are poked, the last 16 never are.
    const std::size_t poked = 48;

    MemImage img;
    // Fillers take one block each, so every word is one sparse slot
    // and the table doubles from 1 Ki at load 0.7.
    std::uint64_t filler = 1ULL << 40;
    std::size_t next = 0;
    auto check = [&](std::size_t slots) {
        ASSERT_EQ(img.slotCount(), slots);
        for (std::size_t i = 0; i < next; ++i)
            ASSERT_EQ(img.peek(shared[i]), shared[i] ^ 0x5a) << i;
        for (std::size_t i = poked; i < shared.size(); ++i)
            ASSERT_EQ(img.peek(shared[i]), 0u) << i;
    };
    // Interleave 16 shared keys with fillers up to each growth point.
    for (std::size_t words : {700u, 45000u, 91000u}) {
        for (std::size_t j = 0; j < 16; ++j, ++next)
            img.poke(shared[next], shared[next] ^ 0x5a);
        while (img.wordCount() < words)
            img.poke(filler += 512, 1);
        check(words < 717 ? 1u << 10 : words < 45876 ? 1u << 16 : 1u << 17);
        img.poke(filler += 512, 1);
        img.poke(filler += 512, 1);
    }
    while (img.wordCount() < 91751)
        img.poke(filler += 512, 1);
    check(1u << 18);
}

class MemImageModelTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemImageModelTest, MatchesMap)
{
    Rng rng(GetParam());
    const auto aligned = [&] { return rng.next() & ~7ULL; };
    // The pool the ops draw keys from.
    std::vector<std::uint64_t> keys{0, ~0ULL, ~7ULL, 8};
    // Sparse: single words of random blocks.
    for (int i = 0; i < 2500; ++i)
        keys.push_back(aligned());
    // Strided cells: 8- to 64-byte strides fill their blocks, 72
    // leaves seven or eight words to a block, 520 one.
    for (std::uint64_t stride : {8u, 24u, 64u, 72u, 520u}) {
        const auto pool = static_cast<PmoId>(1 + stride % 7);
        const std::uint64_t base = Oid(pool, 8 * rng.nextBelow(1 << 20)).raw;
        for (std::uint64_t k = 0; k < 200; ++k)
            keys.push_back(base + k * stride);
    }
    // Dense: every word of a few blocks, plus unaligned words there,
    // one at the block base | 1 that tags a dense block in the table.
    for (int b = 0; b < 6; ++b) {
        const std::uint64_t base = aligned() >> 9 << 9;
        for (std::uint64_t w = 0; w < 64; ++w)
            keys.push_back(base + 8 * w);
        for (std::uint64_t u : {1u, 3u, 7u, 511u})
            keys.push_back(base + u);
    }
    for (int i = 0; i < 100; ++i)
        keys.push_back(aligned() | (1 + rng.nextBelow(7)));

    MemImage img;
    std::map<std::uint64_t, std::uint64_t> model;
    std::map<std::uint64_t, unsigned> blockWords; // aligned words
    std::set<std::uint64_t> reserved;             // reserveDense blocks
    unsigned growths = 0, promotions = 0;
    // reserveDense calls by the blocks they touched (empty, sparse or
    // already dense) and by ranges not starting or ending on a block.
    unsigned touched[3] = {}, ragged[2] = {};
    // fill() calls by the path they must take (a dense block's array,
    // poke for a sparse block, poke for an unaligned address), and
    // fills that straddle a table growth in their block.
    unsigned fills[3] = {}, fillGrowths = 0;
    std::size_t slots = img.slotCount();
    const auto isDense = [&](std::uint64_t block) {
        const auto it = blockWords.find(block);
        return reserved.count(block) ||
               (it != blockWords.end() && it->second >= 8);
    };
    // Models a store; @return whether it promotes the word's block.
    const auto store = [&](std::uint64_t k, std::uint64_t v) {
        const bool fresh = model.insert_or_assign(k, v).second;
        return fresh && (k & 7) == 0 && ++blockWords[k >> 9] == 8 &&
               !reserved.count(k >> 9);
    };
    const auto fill = [&](std::uint64_t k, std::uint64_t v) {
        ++fills[(k & 7) ? 2 : isDense(k >> 9) ? 0 : 1];
        img.fill(k, v);
        return store(k, v);
    };
    const auto checkAll = [&] {
        for (const auto &[k, v] : model) {
            ASSERT_EQ(img.peek(k), v) << std::hex << k;
            if (!model.count(k + 8)) {
                ASSERT_EQ(img.peek(k + 8), 0u) << std::hex << k + 8;
            }
        }
        // One array per dense block: a reserve over a block that is
        // already dense must not give it a second.
        std::size_t dense = reserved.size();
        for (const auto &[b, n] : blockWords)
            dense += n >= 8 && !reserved.count(b);
        ASSERT_EQ(img.denseBlocks(), dense);
    };
    // Reserves draw from their own stream, so the word ops are the
    // same with and without them.
    Rng rrng(GetParam() + 1000);
    for (int op = 0; op < 20000; ++op) {
        if (rrng.nextBelow(500) == 0) {
            // Reserve up to four blocks around a pool key, or at a
            // fresh address, below the top 4 KB of the space.
            const std::uint64_t at =
                rrng.nextBool(0.2) ? rrng.next() & ~7ULL
                                   : keys[rrng.nextBelow(keys.size())];
            const std::uint64_t lo = std::min<std::uint64_t>(
                at - std::min(at, rrng.nextBelow(768)), ~0ULL << 12);
            const std::uint64_t bytes = 1 + rrng.nextBelow(1536);
            for (std::uint64_t b = lo >> 9; b <= (lo + bytes - 1) >> 9;
                 ++b) {
                const unsigned n = blockWords.count(b) ? blockWords[b] : 0;
                ++touched[reserved.count(b) || n >= 8 ? 2 : n > 0];
                reserved.insert(b);
            }
            ragged[0] += lo % 512 != 0;
            ragged[1] += (lo + bytes) % 512 != 0;
            img.reserveDense(lo, bytes);
            ASSERT_EQ(img.wordCount(), model.size());
            for (const auto &[key, v] : model)
                ASSERT_EQ(img.exchange(key, v), v) << std::hex << key;
            ASSERT_EQ(img.wordCount(), model.size());
            // Fill about half the range's words in address order, with
            // sparse pokes and unaligned fills between them. While the
            // table is small, fresh words poked after one fill grow it
            // before the next fill of the same block, so the block
            // fill() remembers must outlive the rehash.
            const std::uint64_t end = lo + bytes;
            const std::uint64_t mid = (lo + end) / 2;
            bool grown = img.slotCount() > 1u << 12;
            for (std::uint64_t w = (lo + 7) & ~7ULL; w < end; w += 8) {
                const std::uint64_t v = rrng.next();
                if (!grown && w >= mid) {
                    fill(w, v);
                    for (const std::size_t s = img.slotCount();
                         img.slotCount() == s;) {
                        const std::uint64_t f = rrng.next() & ~7ULL;
                        img.poke(f, f);
                        store(f, f);
                    }
                    fill(w, ~v);
                    ++fillGrowths;
                    ++growths;
                    grown = true;
                }
                const std::uint64_t r = rrng.nextBelow(16);
                if (r < 8)
                    fill(w, v);
                else if (r < 10)
                    fill(w | (1 + rrng.nextBelow(7)), v);
                else if (r < 12) {
                    const std::uint64_t f = rrng.next() & ~7ULL;
                    img.poke(f, v);
                    store(f, v);
                }
                ASSERT_EQ(img.wordCount(), model.size());
            }
            checkAll();
            if (HasFatalFailure())
                return;
            slots = img.slotCount();
        }
        const std::uint64_t k = rng.nextBelow(10) == 0
                                    ? aligned()
                                    : keys[rng.nextBelow(keys.size())];
        const std::uint64_t v = rng.nextBelow(4) == 0 ? 0 : rng.next();
        const auto it = model.find(k);
        const std::uint64_t want = it == model.end() ? 0 : it->second;
        const std::uint64_t kind = rng.nextBelow(10);
        if (kind < 3) {
            ASSERT_EQ(img.peek(k), want) << std::hex << k;
            continue;
        }
        bool promoted;
        if (kind == 9) {
            promoted = fill(k, v);
        } else {
            if (kind < 8)
                ASSERT_EQ(img.exchange(k, v), want) << std::hex << k;
            else
                img.poke(k, v);
            promoted = store(k, v);
        }
        ASSERT_EQ(img.wordCount(), model.size());
        promotions += promoted;
        if (img.slotCount() != slots) {
            slots = img.slotCount();
            ++growths;
        } else if (!promoted) {
            continue;
        }
        checkAll();
        if (HasFatalFailure())
            return;
    }
    checkAll();
    // Every seed grows the table three times and promotes dozens of
    // blocks, so the checks above ran on each.
    EXPECT_GE(growths, 3u);
    EXPECT_GE(promotions, 30u);
    for (unsigned c : touched)
        EXPECT_GT(c, 0u);
    for (unsigned c : ragged)
        EXPECT_GT(c, 0u);
    for (unsigned c : fills)
        EXPECT_GT(c, 0u);
    EXPECT_GT(fillGrowths, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemImageModelTest,
                         ::testing::Range<std::uint64_t>(0, 16));

TEST(MemImage, ReserveDenseClampsAtTheTopOfTheSpace)
{
    MemImage img;
    const std::uint64_t top = ~7ULL; // the last aligned word
    img.poke(top, 5);
    img.poke(top - 512, 6);
    // The range runs past 2^64: it ends at the last block.
    img.reserveDense(top - 600, 4096);
    EXPECT_EQ(img.wordCount(), 2u);
    EXPECT_EQ(img.peek(top), 5u);
    EXPECT_EQ(img.peek(top - 512), 6u);
    EXPECT_EQ(img.peek(top - 8), 0u);
    EXPECT_EQ(img.exchange(top - 8, 7), 0u);
    EXPECT_EQ(img.wordCount(), 3u);
    EXPECT_EQ(img.peek(top - 8), 7u);
    img.reserveDense(top, 0); // empty: no effect
    EXPECT_EQ(img.wordCount(), 3u);
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
    EXPECT_TRUE(a.pmalloc(~0ULL).isNull());
    EXPECT_EQ(a.liveBlocks(), 0u);
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

/**
 * First-fit reference model written without the allocator's code: one
 * map of coalesced free ranges, the space up to the end of the pool
 * included, and one map of live blocks.
 */
class FirstFitModel
{
  public:
    static constexpr std::uint64_t none = ~0ULL;

    FirstFitModel(std::uint64_t cap, std::uint64_t reserve) : cap(cap)
    {
        std::uint64_t start = std::min(round16(reserve), cap);
        if (start < cap)
            free[start] = cap - start;
    }

    std::uint64_t
    malloc(std::uint64_t size)
    {
        size = round16(std::max<std::uint64_t>(size, 1));
        for (auto [off, len] : free) {
            if (len < size)
                continue;
            free.erase(off);
            if (len > size)
                free[off + size] = len - size;
            blocks[off] = size;
            return off;
        }
        return none;
    }

    /** n mallocs of @p size, all or none: their offsets, or none. */
    std::vector<std::uint64_t>
    mallocRun(std::uint64_t n, std::uint64_t size)
    {
        FirstFitModel trial = *this;
        std::vector<std::uint64_t> offs;
        for (std::uint64_t i = 0; i < n; ++i) {
            offs.push_back(trial.malloc(size));
            if (offs.back() == none)
                return {};
        }
        *this = trial;
        return offs;
    }

    void
    release(std::uint64_t off)
    {
        std::uint64_t len = blocks.at(off);
        blocks.erase(off);
        auto it = free.emplace(off, len).first;
        auto nx = std::next(it);
        if (nx != free.end() && off + len == nx->first) {
            it->second += nx->second;
            free.erase(nx);
        }
        if (it != free.begin()) {
            auto pv = std::prev(it);
            if (pv->first + pv->second == it->first) {
                pv->second += it->second;
                free.erase(it);
            }
        }
    }

    void
    reservePrefix(std::uint64_t up_to)
    {
        up_to = round16(up_to);
        std::map<std::uint64_t, std::uint64_t> kept;
        for (auto [off, len] : free) {
            std::uint64_t lo = std::max(off, up_to);
            if (lo < off + len)
                kept[lo] = off + len - lo;
        }
        free = kept;
    }

    std::uint64_t
    liveBytes() const
    {
        std::uint64_t n = 0;
        for (auto [off, len] : blocks)
            n += len;
        return n;
    }

    /** The length of a random free range: an exact-fit request. */
    std::uint64_t
    someHole(Rng &rng) const
    {
        if (free.empty())
            return 16;
        auto it = free.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.nextBelow(free.size())));
        return it->second;
    }

    std::uint64_t cap;
    std::map<std::uint64_t, std::uint64_t> free;   //!< off -> len
    std::map<std::uint64_t, std::uint64_t> blocks; //!< off -> len

  private:
    static std::uint64_t round16(std::uint64_t v) { return (v + 15) / 16 * 16; }
};

class AllocatorModelTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorModelTest, MatchesFirstFitModel)
{
    Rng rng(GetParam());
    // Small pools exhaust and refill; odd sizes leave a tail that no
    // 16-byte block fills.
    const std::uint64_t caps[] = {2 * KiB, 8 * KiB, 64 * KiB + 8,
                                  256 * KiB};
    const std::uint64_t cap = caps[GetParam() % 4];
    const std::uint64_t reserve = rng.nextBelow(100);
    PoolAllocator a(3, cap, reserve);
    FirstFitModel m(cap, reserve);

    // Every other seed reserves a prefix: inside the pool, at its end
    // or past it.
    if (GetParam() % 2) {
        const std::uint64_t ups[] = {rng.nextBelow(cap / 2), cap,
                                     cap + 40, 0};
        std::uint64_t up = ups[GetParam() / 2 % 4];
        a.reservePrefix(up);
        m.reservePrefix(up);
    }

    std::vector<std::uint64_t> held; // live offsets in model order
    // Two of three seeds start with one to three runs. A run's live
    // members map to its index, so each pfree of one is classed by
    // which of its neighbours in the run are still live.
    std::map<std::uint64_t, unsigned> runMember;
    unsigned runFrees[4] = {}; // only, first, last, middle member
    const auto noteFree = [&](std::uint64_t off) {
        auto it = runMember.find(off);
        if (it == runMember.end())
            return;
        const std::uint64_t len = m.blocks.at(off);
        const auto inRun = [&](std::uint64_t o) {
            auto n = runMember.find(o);
            return n != runMember.end() && n->second == it->second;
        };
        ++runFrees[2 * inRun(off - len) + inRun(off + len)];
        runMember.erase(it);
    };
    // An offset inside a live run member is no block.
    const auto checkInterior = [&](std::uint64_t off) {
        const std::uint64_t len = m.blocks.at(off);
        const std::uint64_t in =
            off + (len > 16 ? 16 * rng.nextRange(1, len / 16 - 1) : 8);
        ASSERT_EQ(a.blockSize(Oid(3, in)), 0u) << std::hex << in;
        ASSERT_THROW(a.pfree(Oid(3, in)), std::logic_error);
    };
    const bool withRuns = GetParam() % 3 != 0;
    unsigned runsMade = 0;
    for (unsigned r = 0, nRuns = withRuns ? 1 + rng.nextBelow(3) : 0;
         r < nRuns; ++r) {
        // Each run takes up to a third of the pool (more than is left
        // once a prefix is reserved), so the mix has room beside it.
        const std::uint64_t n = rng.nextRange(1, 48);
        const std::uint64_t size = rng.nextRange(1, cap / (3 * n));
        Oid o = a.pmallocRun(n, size);
        std::vector<std::uint64_t> want = m.mallocRun(n, size);
        if (want.empty()) {
            ASSERT_TRUE(o.isNull()) << "run " << r;
        } else {
            ASSERT_EQ(o, Oid(3, want[0])) << "run " << r;
            for (std::uint64_t off : want) {
                ASSERT_EQ(a.blockSize(Oid(3, off)), m.blocks.at(off));
                runMember[off] = r;
                held.push_back(off);
            }
            checkInterior(want[rng.nextBelow(want.size())]);
            ++runsMade;
        }
        ASSERT_EQ(a.liveBytes(), m.liveBytes()) << "run " << r;
        ASSERT_EQ(a.liveBlocks(), m.blocks.size()) << "run " << r;
    }

    std::uint64_t lastFreed = FirstFitModel::none;
    for (int step = 0; step < 3000; ++step) {
        double roll = rng.nextDouble();
        if (held.empty() || roll < 0.55) {
            std::uint64_t size = rng.nextBool(0.2)
                                     ? std::max<std::uint64_t>(
                                           m.someHole(rng), 16) -
                                           rng.nextBelow(16)
                                     : rng.nextRange(1, 700);
            if (rng.nextBool(0.02))
                size = cap; // never fits
            Oid o = a.pmalloc(size);
            std::uint64_t want = m.malloc(size);
            if (want == FirstFitModel::none) {
                ASSERT_TRUE(o.isNull()) << "step " << step;
            } else {
                ASSERT_EQ(o, Oid(3, want)) << "step " << step;
                ASSERT_EQ(a.blockSize(o), m.blocks.at(want));
                held.push_back(want);
            }
        } else {
            // Free a random block, or the one ending at the tail.
            std::size_t i = rng.nextBelow(held.size());
            if (roll > 0.9)
                i = static_cast<std::size_t>(
                    std::max_element(held.begin(), held.end()) -
                    held.begin());
            lastFreed = held[i];
            a.pfree(Oid(3, lastFreed));
            noteFree(lastFreed);
            m.release(lastFreed);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
            ASSERT_EQ(a.blockSize(Oid(3, lastFreed)), 0u);
        }
        ASSERT_EQ(a.liveBytes(), m.liveBytes()) << "step " << step;
        ASSERT_EQ(a.liveBlocks(), m.blocks.size()) << "step " << step;
    }
    for (auto [off, len] : m.blocks)
        EXPECT_EQ(a.blockSize(Oid(3, off)), len);
    EXPECT_EQ(a.allocCount() - a.freeCount(), held.size());
    for (auto [off, r] : runMember) {
        checkInterior(off);
        if (HasFatalFailure())
            return;
    }

    if (lastFreed != FirstFitModel::none &&
        !m.blocks.count(lastFreed)) {
        EXPECT_THROW(a.pfree(Oid(3, lastFreed)), std::logic_error);
    }
    if (!held.empty()) {
        EXPECT_THROW(a.pfree(Oid(4, held[0])), std::logic_error);
    }
    // Freeing everything leaves one free range: the whole pool above
    // the reserved prefix is again one block.
    for (std::uint64_t off : held) {
        a.pfree(Oid(3, off));
        noteFree(off);
        m.release(off);
    }
    // Each seed that made a run freed an only, a first, a last and a
    // middle member of one.
    if (runsMade > 0) {
        for (unsigned c = 0; c < 4; ++c)
            EXPECT_GT(runFrees[c], 0u) << "case " << c;
    }
    EXPECT_LE(m.free.size(), 1u);
    std::uint64_t whole = m.free.empty() ? 0 : m.free.begin()->second;
    if (whole >= 16) {
        Oid o = a.pmalloc(whole & ~15ULL);
        EXPECT_EQ(o, Oid(3, m.malloc(whole & ~15ULL)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorModelTest,
                         ::testing::Range<std::uint64_t>(1, 17));

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
    sim::MemAccess a = p.accessAt(o.offset(), true);
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
