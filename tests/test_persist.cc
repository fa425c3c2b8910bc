/**
 * @file
 * Tests for the crash-consistency substrate: the probing table behind
 * the side table of not-yet-durable lines, persistence ordering
 * (store -> CLWB -> SFENCE) checked directly and against a textbook
 * model of the persist path, crash/recovery behaviour (a line stored
 * again after its record went), the undo-log transaction protocol, the watch-register alternative hardware
 * design, and a property test crashing transactions at random points
 * and requiring atomicity after recovery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "arch/watch_regs.hh"
#include "common/rng.hh"
#include "pm/persist.hh"
#include "sim/thread.hh"

using namespace terp;
using namespace terp::pm;

namespace {

sim::ThreadContext
makeTc()
{
    return sim::ThreadContext(0, 0);
}

} // namespace

// ------------------------------------------------------ ProbeTable

TEST(ProbeTable, InsertFindsOrAddsAndCountsKeys)
{
    ProbeTable<SideLine> t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(0x100), nullptr);
    auto [a, fresh] = t.insert(0x100);
    EXPECT_TRUE(fresh);
    // A slot never used holds a default value.
    EXPECT_FALSE(a.dirty);
    EXPECT_FALSE(a.pending);
    EXPECT_TRUE(a.words.empty());
    a.dirty = true;
    a.words.push_back({0x108, 1, 1, false});
    auto again = t.insert(0x100);
    EXPECT_FALSE(again.second);
    EXPECT_EQ(&again.first, &a) << "a second insert finds the value";
    EXPECT_TRUE(t.insert(0x0).second); // key 0 is an ordinary key
    EXPECT_EQ(t.size(), 2u);
    ASSERT_NE(t.find(0x0), nullptr);
    const ProbeTable<SideLine> &ct = t;
    ASSERT_NE(ct.find(0x100), nullptr);
    EXPECT_TRUE(ct.find(0x100)->dirty);
    EXPECT_EQ(ct.find(0x100)->words.at(0).addr, 0x108u);
    EXPECT_EQ(ct.find(0x140), nullptr);
}

TEST(ProbeTable, EraseKeepsProbeChainsReachable)
{
    // Eight keys in the sixteen starting slots form clusters, some
    // wrapping round the array's end. Erase each one in turn from a
    // fresh table, so the backward shift runs from every position of
    // every cluster, and require every other key intact.
    const unsigned n = 8;
    Rng rng(11);
    for (int set = 0; set < 64; ++set) {
        std::vector<std::uint64_t> keys;
        while (keys.size() < n) {
            const std::uint64_t k = 64 * rng.nextBelow(1u << 20);
            if (std::find(keys.begin(), keys.end(), k) == keys.end())
                keys.push_back(k);
        }
        for (unsigned gone = 0; gone < n; ++gone) {
            ProbeTable<std::uint64_t> t;
            for (unsigned i = 0; i < n; ++i)
                t.insert(keys[i]).first = i;
            const std::uint64_t *erased = t.erase(keys[gone]);
            ASSERT_NE(erased, nullptr);
            EXPECT_EQ(*erased, gone) << "erase hands back the value";
            EXPECT_EQ(t.erase(keys[gone]), nullptr); // absent: no-op
            EXPECT_EQ(t.size(), n - 1);
            EXPECT_EQ(t.find(keys[gone]), nullptr);
            for (unsigned i = 0; i < n; ++i) {
                if (i == gone)
                    continue;
                const std::uint64_t *v = t.find(keys[i]);
                ASSERT_NE(v, nullptr) << "key " << i << " of set " << set
                                      << " lost after erasing " << gone;
                EXPECT_EQ(*v, i);
            }
            EXPECT_TRUE(t.insert(keys[gone]).second);
            EXPECT_EQ(t.size(), n);
        }
    }
}

TEST(ProbeTable, GrowthAndEraseChurnMatchesMap)
{
    // Random inserts and erases against a std::map, growing the table
    // several times over and draining it again, then clear().
    ProbeTable<std::uint64_t> t;
    std::map<std::uint64_t, std::uint64_t> model;
    Rng rng(7);
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t line = 64 * rng.nextBelow(900);
        if (op < 12000 && rng.nextBelow(3) != 0) {
            t.insert(line).first = std::uint64_t(op);
            model[line] = std::uint64_t(op);
        } else {
            const std::uint64_t *v = t.erase(line);
            auto it = model.find(line);
            ASSERT_EQ(v != nullptr, it != model.end()) << "op " << op;
            if (v) {
                EXPECT_EQ(*v, it->second);
                model.erase(it);
            }
        }
        ASSERT_EQ(t.size(), model.size()) << "op " << op;
    }
    for (std::uint64_t i = 0; i < 900; ++i) {
        const std::uint64_t *v = t.find(64 * i);
        auto it = model.find(64 * i);
        ASSERT_EQ(v != nullptr, it != model.end()) << "line " << i;
        if (v) {
            EXPECT_EQ(*v, it->second);
        }
    }
    std::map<std::uint64_t, std::uint64_t> seen;
    t.forEach([&](std::uint64_t k, std::uint64_t v) { seen[k] = v; });
    EXPECT_EQ(seen, model);

    // Refill, then clear.
    for (std::uint64_t i = 0; i < 300; ++i) {
        t.insert(64 * i);
        model[64 * i];
    }
    EXPECT_EQ(t.size(), model.size());
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    for (std::uint64_t i = 0; i < 300; ++i)
        EXPECT_EQ(t.find(64 * i), nullptr) << "line " << i << " outlived clear";
    seen.clear();
    t.forEach([&](std::uint64_t k, std::uint64_t v) { seen[k] = v; });
    EXPECT_TRUE(seen.empty());
    EXPECT_TRUE(t.insert(64 * 5).second); // usable after clear
    EXPECT_EQ(t.size(), 1u);
}

TEST(ProbeTable, CopiesAreIndependent)
{
    ProbeTable<SideLine> t;
    for (std::uint64_t i = 0; i < 20; ++i)
        t.insert(64 * i).first.words.push_back({64 * i, i, 0, false});
    const auto contents = [](const ProbeTable<SideLine> &x) {
        std::map<std::uint64_t, std::vector<std::uint64_t>> m;
        x.forEach([&](std::uint64_t k, const SideLine &l) {
            for (const SideLine::Word &w : l.words)
                m[k].push_back(w.old);
        });
        return m;
    };
    const auto before = contents(t);

    // Changes to the copy leave the original as it was ...
    ProbeTable<SideLine> u = t;
    EXPECT_EQ(contents(u), before);
    u.insert(64 * 3).first.words.push_back({64 * 3, 99, 0, false});
    u.insert(64 * 100);
    u.erase(64 * 7);
    EXPECT_EQ(contents(t), before);
    u.clear();
    EXPECT_EQ(contents(t), before);
    EXPECT_EQ(t.size(), 20u);

    // ... and changes to the original leave a copy as it was.
    ProbeTable<SideLine> v = t;
    t.insert(64 * 4).first.words.clear();
    t.erase(64 * 8);
    EXPECT_EQ(contents(v), before);
    t.clear();
    EXPECT_EQ(contents(v), before);
    EXPECT_EQ(v.size(), 20u);
    EXPECT_EQ(u.size(), 0u);
}

// ------------------------------------------------ persist controller

TEST(Persist, ErasedLineIsStoredAgainAsAFreshLine)
{
    auto tc = makeTc();
    const Oid a(1, 0x100), b(1, 0x108); // one line

    // Record erased at a fence.
    {
        PersistController ctl;
        ctl.persistentStore(tc, a, 1);
        ctl.sfence(tc);
        ctl.store(a, 2);
        EXPECT_EQ(ctl.persistedLoad(a), 1u);
        ctl.crash();
        EXPECT_EQ(ctl.load(a), 1u);
    }
    // Record cleared by crash() while dirty.
    {
        PersistController ctl;
        ctl.store(a, 1);
        ctl.store(b, 1);
        ctl.crash();
        ctl.persistentStore(tc, a, 2);
        ctl.sfence(tc);
        EXPECT_EQ(ctl.persistedLoad(a), 2u);
        EXPECT_EQ(ctl.persistedLoad(b), 0u);
        ctl.store(b, 3);
        ctl.crash();
        EXPECT_EQ(ctl.load(a), 2u);
        EXPECT_EQ(ctl.load(b), 0u);
    }
    // Record cleared by crash() while pending: the next CLWB queues
    // the line again, so the fence makes it durable.
    {
        PersistController ctl;
        ctl.persistentStore(tc, a, 1);
        ctl.crash();
        ctl.persistentStore(tc, a, 3);
        Cycles before = tc.now();
        ctl.sfence(tc);
        EXPECT_EQ(tc.now() - before, PersistController::drainCostPerLine);
        EXPECT_EQ(ctl.persistedLoad(a), 3u);
        ctl.crash();
        EXPECT_EQ(ctl.load(a), 3u);
    }
    // Records cleared by crash() go to whichever lines take their
    // slots next; none of their words may follow. 64 lines are lost,
    // 64 others are stored, then the lost lines are made durable
    // anew: a crash must roll back only the second set.
    {
        PersistController ctl;
        const auto lost = [](std::uint64_t i) { return Oid(1, 64 * i); };
        const auto other = [](std::uint64_t i) {
            return Oid(1, 0x10000 + 64 * i);
        };
        for (std::uint64_t i = 0; i < 64; ++i)
            ctl.store(lost(i), 1);
        ctl.crash();
        for (std::uint64_t i = 0; i < 64; ++i)
            ctl.store(other(i), 2);
        for (std::uint64_t i = 0; i < 64; ++i)
            ctl.persistentStore(tc, lost(i), 9);
        ctl.sfence(tc);
        ctl.crash();
        for (std::uint64_t i = 0; i < 64; ++i) {
            EXPECT_EQ(ctl.load(lost(i)), 9u) << "line " << i;
            EXPECT_EQ(ctl.load(other(i)), 0u) << "line " << i;
        }
    }
}


TEST(Persist, StoreVisibleButNotDurable)
{
    PersistController ctl;
    auto tc = makeTc();
    Oid a(1, 0x100);
    ctl.store(a, 42);
    EXPECT_EQ(ctl.load(a), 42u);
    EXPECT_EQ(ctl.persistedLoad(a), 0u);
    ctl.crash();
    EXPECT_EQ(ctl.load(a), 0u); // lost with power
    (void)tc;
}

TEST(Persist, ClwbAloneIsNotDurable)
{
    PersistController ctl;
    auto tc = makeTc();
    Oid a(1, 0x100);
    ctl.store(a, 42);
    ctl.clwb(tc, a);
    // Write-back issued but not fenced: a crash may still lose it.
    ctl.crash();
    EXPECT_EQ(ctl.load(a), 0u);
}

TEST(Persist, ClwbPlusFenceIsDurable)
{
    PersistController ctl;
    auto tc = makeTc();
    Oid a(1, 0x100);
    ctl.store(a, 42);
    ctl.clwb(tc, a);
    ctl.sfence(tc);
    EXPECT_EQ(ctl.persistedLoad(a), 42u);
    ctl.crash();
    EXPECT_EQ(ctl.load(a), 42u); // survived
}

TEST(Persist, ClwbCoversWholeLine)
{
    PersistController ctl;
    auto tc = makeTc();
    Oid a(1, 0x100), b(1, 0x108); // same 64-byte line
    ctl.store(a, 1);
    ctl.store(b, 2);
    ctl.clwb(tc, a); // one CLWB drains both words
    ctl.sfence(tc);
    ctl.crash();
    EXPECT_EQ(ctl.load(a), 1u);
    EXPECT_EQ(ctl.load(b), 2u);
}

TEST(Persist, LinesAreIndependent)
{
    PersistController ctl;
    auto tc = makeTc();
    Oid a(1, 0x100), b(1, 0x200); // different lines
    ctl.store(a, 1);
    ctl.store(b, 2);
    ctl.clwb(tc, a);
    ctl.sfence(tc);
    ctl.crash();
    EXPECT_EQ(ctl.load(a), 1u);
    EXPECT_EQ(ctl.load(b), 0u); // never written back
}

TEST(Persist, FenceCostScalesWithPendingLines)
{
    PersistController ctl;
    auto tc = makeTc();
    for (int i = 0; i < 8; ++i) {
        Oid o(1, 0x1000 + 64ULL * i);
        ctl.store(o, i);
        ctl.clwb(tc, o);
    }
    Cycles before = tc.now();
    ctl.sfence(tc);
    EXPECT_GE(tc.now() - before,
              8 * PersistController::drainCostPerLine);
}

// ------------------------------------------------------- undo log

TEST(UndoLog, CommittedTransactionSurvivesCrash)
{
    PersistController ctl;
    auto tc = makeTc();
    UndoLog log(ctl, 1, 0x10000);
    Oid x(1, 0x100), y(1, 0x200);
    ctl.persistentStore(tc, x, 10);
    ctl.persistentStore(tc, y, 20);
    ctl.sfence(tc);

    log.begin(tc);
    log.write(tc, x, 11);
    log.write(tc, y, 21);
    log.commit(tc);

    ctl.crash();
    log.recover(tc);
    EXPECT_EQ(ctl.load(x), 11u);
    EXPECT_EQ(ctl.load(y), 21u);
}

TEST(UndoLog, UncommittedTransactionRollsBack)
{
    PersistController ctl;
    auto tc = makeTc();
    UndoLog log(ctl, 1, 0x10000);
    Oid x(1, 0x100), y(1, 0x200);
    ctl.persistentStore(tc, x, 10);
    ctl.persistentStore(tc, y, 20);
    ctl.sfence(tc);

    log.begin(tc);
    log.write(tc, x, 11);
    log.write(tc, y, 21);
    // Crash before commit.
    ctl.crash();
    log.recover(tc);
    EXPECT_EQ(ctl.load(x), 10u);
    EXPECT_EQ(ctl.load(y), 20u);
}

TEST(UndoLog, NestedBeginPanics)
{
    PersistController ctl;
    auto tc = makeTc();
    UndoLog log(ctl, 1, 0x10000);
    log.begin(tc);
    EXPECT_THROW(log.begin(tc), std::logic_error);
}

TEST(UndoLog, DuplicateWritesDedupeAndChargeOnce)
{
    // A transaction that stores repeatedly to one location needs one
    // undo record — the oldest value — not one per store. The repeat
    // writes must also cost nothing: the first write already paid for
    // the log entry's persist (both entry words share one line).
    PersistController ctl;
    auto tc = makeTc();
    UndoLog log(ctl, 1, 0x10000);
    Oid x(1, 0x100);
    ctl.persistentStore(tc, x, 10);
    ctl.sfence(tc);

    constexpr Cycles unit = PersistController::clwbCost +
                            PersistController::drainCostPerLine;
    log.begin(tc);
    Cycles t0 = tc.now();
    log.write(tc, x, 11);
    EXPECT_EQ(tc.now() - t0, 2 * PersistController::clwbCost +
                                 PersistController::drainCostPerLine +
                                 unit);
    t0 = tc.now();
    log.write(tc, x, 12);
    log.write(tc, x, 13);
    EXPECT_EQ(tc.now() - t0, 0u) << "duplicate writes must be free";
    log.commit(tc);
    EXPECT_EQ(ctl.persistedLoad(x), 13u);

    // Crash mid-transaction: recovery examines ONE durable entry and
    // rolls back to the pre-transaction value, not an intermediate.
    log.begin(tc);
    log.write(tc, x, 21);
    log.write(tc, x, 22);
    ctl.crash();
    EXPECT_EQ(log.recover(tc), 1u);
    EXPECT_EQ(ctl.load(x), 13u);
}

TEST(UndoLog, RecoverIsIdempotentAndChargesOnce)
{
    // A crash can land between commit's data-flush fence and the
    // durable header clear; the header then still marks the
    // transaction in-flight and recovery rolls it back. A second
    // recover() pass (e.g. a crash during recovery itself) must find
    // a clean log and charge nothing — no double-applied rollback.
    PersistController ctl;
    auto tc = makeTc();
    UndoLog log(ctl, 1, 0x10000);
    Oid x(1, 0x100);
    ctl.persistentStore(tc, x, 5);
    ctl.sfence(tc);

    log.begin(tc);
    log.write(tc, x, 6);
    ctl.crash();
    EXPECT_TRUE(log.recoveryPending());
    EXPECT_EQ(log.recover(tc), 1u);
    EXPECT_EQ(ctl.persistedLoad(x), 5u);
    EXPECT_FALSE(log.recoveryPending());

    Cycles t0 = tc.now();
    EXPECT_EQ(log.recover(tc), 0u);
    EXPECT_EQ(tc.now() - t0, 0u);
    EXPECT_EQ(ctl.persistedLoad(x), 5u);
}

TEST(UndoLog, TransactionsAtomicAtEveryPersistBoundary)
{
    // Exhaustive fault injection: a baseline run of a fixed 4-txn
    // workload counts its persist boundaries B, then the workload is
    // re-run B times with the fault plan armed at every n in 1..B.
    // After each modeled power failure the durable image must equal
    // the image after exactly the commits that returned, and a fresh
    // transaction must still commit durably.
    struct Workload
    {
        PersistController ctl;
        UndoLog log{ctl, 1, 0x10000};
        std::map<std::uint64_t, std::uint64_t> committed;

        void
        run(sim::ThreadContext &tc)
        {
            for (unsigned t = 1; t <= 4; ++t) {
                std::vector<std::pair<Oid, std::uint64_t>> writes;
                for (unsigned w = 0; w <= t % 3; ++w) {
                    writes.push_back({Oid(1, 0x100 + 64ULL *
                                                     ((t + w) % 5)),
                                      100ULL * t + w});
                }
                if (t == 2) // a duplicate store, exercising dedupe
                    writes.push_back({writes.front().first, 299});
                log.begin(tc);
                for (const auto &[o, v] : writes)
                    log.write(tc, o, v);
                log.commit(tc);
                for (const auto &[o, v] : writes)
                    committed[o.raw] = v;
            }
        }
    };

    auto tcBase = makeTc();
    std::uint64_t bounds = 0;
    {
        Workload base;
        base.run(tcBase);
        bounds = base.ctl.boundaryCount();
        ASSERT_GT(bounds, 0u);
    }

    for (std::uint64_t n = 1; n <= bounds; ++n) {
        Workload w;
        auto tc = makeTc();
        w.ctl.armFault(n);
        bool crashed = false;
        try {
            w.run(tc);
        } catch (const PowerFailure &pf) {
            crashed = true;
            EXPECT_EQ(pf.boundary, n);
        }
        ASSERT_TRUE(crashed) << "fault " << n << " never fired";
        w.log.recover(tc);

        // All-or-nothing: exactly the committed prefix is durable.
        for (const auto &[raw, v] : w.committed) {
            EXPECT_EQ(w.ctl.load(Oid::fromRaw(raw)), v)
                << "boundary " << n << " oid 0x" << std::hex << raw;
        }
        for (unsigned c = 0; c < 5; ++c) {
            Oid o(1, 0x100 + 64ULL * c);
            if (!w.committed.count(o.raw)) {
                EXPECT_EQ(w.ctl.load(o), 0u)
                    << "boundary " << n << " leaked cell " << c;
            }
        }

        // Liveness: the recovered log accepts a new transaction.
        w.log.begin(tc);
        w.log.write(tc, Oid(1, 0x400), 999);
        w.log.commit(tc);
        EXPECT_EQ(w.ctl.persistedLoad(Oid(1, 0x400)), 999u);
    }
}

TEST(Persist, FaultPlanFiresBeforeTheArmedBoundary)
{
    // "Crash before boundary n": the n-th boundary's effect must not
    // be visible. Boundary 1 of a fresh controller is the store
    // itself — arming it loses even the volatile value.
    PersistController ctl;
    Oid a(1, 0x100);
    ctl.armFault(1);
    EXPECT_THROW(ctl.store(a, 42), PowerFailure);
    EXPECT_FALSE(ctl.faultArmed()) << "plans are one-shot";
    EXPECT_EQ(ctl.load(a), 0u);
    EXPECT_EQ(ctl.boundaryCount(), 1u);
    ctl.store(a, 43); // disarmed: the substrate keeps working
    EXPECT_EQ(ctl.load(a), 43u);
}

TEST(Persist, MoreThanEightWordsInOneLine)
{
    // Unaligned keys give one 64-byte line more than eight distinct
    // words; each keeps its own durable value through a fence and a
    // crash.
    PersistController ctl;
    auto tc = makeTc();
    const std::uint64_t base = Oid(1, 0x1000).raw;
    for (unsigned i = 0; i < 12; ++i)
        ctl.store(Oid::fromRaw(base + 5 * i), 100 + i);
    ctl.clwb(tc, Oid::fromRaw(base));
    ctl.store(Oid::fromRaw(base + 5), 999); // after the write-back
    ctl.store(Oid::fromRaw(base + 61), 7);  // a thirteenth word
    ctl.sfence(tc);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(ctl.persistedLoad(Oid::fromRaw(base + 5 * i)), 100 + i);
    EXPECT_EQ(ctl.persistedLoad(Oid::fromRaw(base + 61)), 0u);
    ctl.crash();
    EXPECT_EQ(ctl.load(Oid::fromRaw(base + 5)), 101u);
    EXPECT_EQ(ctl.load(Oid::fromRaw(base + 61)), 0u);
    EXPECT_EQ(ctl.load(Oid::fromRaw(base + 55)), 111u);
}

namespace {

/**
 * The textbook persistence model: full volatile and durable images,
 * and per-line maps of the dirty words (stored since the line's last
 * CLWB) and of the pending ones (written back, not yet fenced), each
 * holding the value the store or the write-back carried.
 */
struct TextbookPersist
{
    using Words = std::map<std::uint64_t, std::uint64_t>;
    Words vol, dur;
    std::map<std::uint64_t, Words> dirty, pending;
    std::uint64_t clwbs = 0, fences = 0, boundaries = 0, faultAt = 0;
    Cycles clock = 0;

    static std::uint64_t
    get(const Words &w, std::uint64_t addr)
    {
        auto it = w.find(addr);
        return it == w.end() ? 0 : it->second;
    }

    /** Count a boundary; false if the armed fault fired instead. */
    bool
    boundary()
    {
        ++boundaries;
        if (faultAt == 0 || boundaries != faultAt)
            return true;
        faultAt = 0;
        crash();
        return false;
    }

    void
    store(std::uint64_t addr, std::uint64_t v)
    {
        vol[addr] = v;
        dirty[lineKeyOf(addr)][addr] = v;
    }

    void
    clwb(std::uint64_t addr)
    {
        clock += PersistController::clwbCost;
        ++clwbs;
        auto it = dirty.find(lineKeyOf(addr));
        if (it == dirty.end())
            return;
        for (const auto &[a, v] : it->second)
            pending[it->first][a] = v;
        dirty.erase(it);
    }

    void
    sfence()
    {
        ++fences;
        clock += PersistController::drainCostPerLine * pending.size();
        for (const auto &[line, words] : pending)
            for (const auto &[a, v] : words)
                dur[a] = v;
        pending.clear();
    }

    void
    crash()
    {
        vol = dur;
        dirty.clear();
        pending.clear();
    }
};

} // namespace

class PersistModelTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PersistModelTest, MatchesTextbookModel)
{
    // A few lines of two PMOs plus address 0; each line has its eight
    // aligned words and four unaligned ones, so a line can hold more
    // than eight distinct words.
    std::vector<std::uint64_t> addrs{0};
    for (std::uint64_t line : {Oid(1, 0x0).raw, Oid(1, 0x40).raw,
                               Oid(1, 0x1000).raw, Oid(2, 0x40).raw}) {
        for (unsigned w = 0; w < 8; ++w)
            addrs.push_back(line + 8 * w);
        for (unsigned u : {3u, 17u, 42u, 63u})
            addrs.push_back(line + u);
    }

    Rng rng(GetParam());
    PersistController ctl;
    TextbookPersist m;
    sim::ThreadContext tc = makeTc();
    // Coverage of the cases the model exists for, over the whole run.
    unsigned storeToPending = 0, reClwbPending = 0, clwbClean = 0,
             crowdedLines = 0, crashes = 0, faults = 0;
    // Now and then a burst stores all twelve words of one line in a
    // row, so the line holds more than eight dirty words.
    std::size_t burst = 0, burstLeft = 0;
    for (int op = 0; op < 3000; ++op) {
        if (burstLeft == 0 && rng.nextBelow(100) == 0) {
            burst = 1 + 12 * rng.nextBelow(4);
            burstLeft = 12;
        }
        const bool inBurst = burstLeft > 0;
        const std::uint64_t addr =
            inBurst ? addrs[burst + 12 - burstLeft--]
                    : addrs[rng.nextBelow(addrs.size())];
        const std::uint64_t line = lineKeyOf(addr);
        const std::uint64_t value =
            rng.nextBelow(4) == 0 ? 0 : rng.nextBelow(1000);
        const std::uint64_t kind = inBurst ? 44 : rng.nextBelow(100);
        if (kind < 3 && !ctl.faultArmed()) {
            const std::uint64_t at =
                ctl.boundaryCount() + 1 + rng.nextBelow(12);
            ctl.armFault(at);
            m.faultAt = at;
            continue;
        }
        // The model steps first; the controller must raise a
        // PowerFailure exactly when the model's fault fired.
        const Oid oid = Oid::fromRaw(addr);
        std::function<void()> step;
        bool fired = false;
        if (kind < 45) {
            storeToPending += m.pending.count(line);
            fired = !m.boundary();
            if (!fired)
                m.store(addr, value);
            step = [&] { ctl.store(oid, value); };
        } else if (kind < 65) {
            reClwbPending += m.pending.count(line) && m.dirty.count(line);
            clwbClean += !m.dirty.count(line);
            fired = !m.boundary();
            if (!fired)
                m.clwb(addr);
            step = [&] { ctl.clwb(tc, oid); };
        } else if (kind < 77) {
            fired = !m.boundary();
            if (!fired) {
                m.store(addr, value);
                fired = !m.boundary();
                if (!fired)
                    m.clwb(addr);
            }
            step = [&] { ctl.persistentStore(tc, oid, value); };
        } else if (kind < 98) {
            fired = !m.boundary();
            if (!fired)
                m.sfence();
            step = [&] { ctl.sfence(tc); };
        } else {
            m.crash();
            ++crashes;
            step = [&] { ctl.crash(); };
        }
        bool threw = false;
        try {
            step();
        } catch (const PowerFailure &) {
            threw = true;
        }
        ASSERT_EQ(threw, fired) << "op " << op;
        faults += fired;
        for (const auto &[l, words] : m.dirty)
            crowdedLines += words.size() > 8;
        ASSERT_EQ(ctl.boundaryCount(), m.boundaries) << "op " << op;
        ASSERT_EQ(tc.now(), m.clock) << "op " << op;
        ASSERT_EQ(ctl.clwbCount(), m.clwbs) << "op " << op;
        ASSERT_EQ(ctl.fenceCount(), m.fences) << "op " << op;
        for (std::uint64_t a : addrs) {
            ASSERT_EQ(ctl.load(Oid::fromRaw(a)), m.get(m.vol, a))
                << "op " << op << " addr " << std::hex << a;
            ASSERT_EQ(ctl.persistedLoad(Oid::fromRaw(a)), m.get(m.dur, a))
                << "op " << op << " addr " << std::hex << a;
        }
    }
    EXPECT_GT(storeToPending, 20u);
    EXPECT_GT(reClwbPending, 5u);
    EXPECT_GT(clwbClean, 20u);
    EXPECT_GT(crowdedLines, 0u);
    EXPECT_GT(crashes, 10u);
    EXPECT_GT(faults, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistModelTest,
                         ::testing::Range<std::uint64_t>(1, 17));

class UndoLogCrashPointTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(UndoLogCrashPointTest, TransactionsAreAtomicAtAnyCrashPoint)
{
    // Run a sequence of transactions, crash after a random number of
    // transactional writes, recover, and require that every cell
    // reflects a prefix of COMMITTED transactions only (all-or-
    // nothing per transaction).
    Rng rng(GetParam());
    PersistController ctl;
    auto tc = makeTc();
    UndoLog log(ctl, 1, 0x10000);

    constexpr int nCells = 8;
    std::vector<std::uint64_t> committed(nCells, 0);
    for (int c = 0; c < nCells; ++c) {
        ctl.persistentStore(tc, Oid(1, 0x100 + 64ULL * c), 0);
    }
    ctl.sfence(tc);

    std::uint64_t ops_until_crash = 1 + rng.nextBelow(40);
    bool crashed = false;
    for (int txn = 1; txn <= 10 && !crashed; ++txn) {
        log.begin(tc);
        std::vector<std::uint64_t> staged = committed;
        unsigned writes = 1 + static_cast<unsigned>(rng.nextBelow(4));
        for (unsigned w = 0; w < writes; ++w) {
            int cell = static_cast<int>(rng.nextBelow(nCells));
            staged[cell] = static_cast<std::uint64_t>(txn) * 100 + w;
            log.write(tc, Oid(1, 0x100 + 64ULL * cell),
                      staged[cell]);
            if (--ops_until_crash == 0) {
                ctl.crash();
                crashed = true;
                break;
            }
        }
        if (!crashed) {
            log.commit(tc);
            committed = staged;
        }
    }

    if (crashed) {
        log.recover(tc);
        for (int c = 0; c < nCells; ++c) {
            EXPECT_EQ(ctl.load(Oid(1, 0x100 + 64ULL * c)),
                      committed[c])
                << "cell " << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndoLogCrashPointTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// -------------------------------------------------- watch registers

TEST(WatchRegs, EquivalentToConditionalInstructions)
{
    // The same call pattern through the watch-register front end and
    // through direct CONDAT/CONDDT must produce identical case
    // sequences and identical syscall decisions.
    arch::CircularBuffer cb_instr, cb_watch;
    arch::WatchRegisterFile wrf;
    const std::uint64_t attach_pc = 0x400100, detach_pc = 0x400200;
    ASSERT_TRUE(wrf.watchAttach(attach_pc, 1, pm::Mode::ReadWrite));
    ASSERT_TRUE(wrf.watchDetach(detach_pc, 1));

    Cycles t = 0;
    for (int i = 0; i < 50; ++i) {
        t += 500;
        arch::CondAttachCase ai = cb_instr.condAttach(1, t);
        arch::InterceptResult aw =
            wrf.onFetch(attach_pc, cb_watch, t, 40000);
        ASSERT_TRUE(aw.intercepted);
        EXPECT_EQ(ai, aw.attachCase.value());
        EXPECT_EQ(aw.performCall,
                  ai == arch::CondAttachCase::FirstAttach);

        t += 500;
        arch::CondDetachCase di = cb_instr.condDetach(1, t, 40000);
        arch::InterceptResult dw =
            wrf.onFetch(detach_pc, cb_watch, t, 40000);
        ASSERT_TRUE(dw.intercepted);
        EXPECT_EQ(di, dw.detachCase.value());
        EXPECT_EQ(dw.performCall,
                  di == arch::CondDetachCase::FullDetach);
    }
    EXPECT_EQ(cb_instr.stats().silentFraction(),
              cb_watch.stats().silentFraction());
}

TEST(WatchRegs, UnwatchedPcPassesThrough)
{
    arch::CircularBuffer cb;
    arch::WatchRegisterFile wrf;
    wrf.watchAttach(0x400100, 1, pm::Mode::ReadWrite);
    arch::InterceptResult r = wrf.onFetch(0x999999, cb, 0, 1000);
    EXPECT_FALSE(r.intercepted);
}

TEST(WatchRegs, CapacityBounded)
{
    arch::WatchRegisterFile wrf;
    for (unsigned i = 0; i < arch::WatchRegisterFile::capacity; ++i)
        EXPECT_TRUE(wrf.watchAttach(0x1000 + i, 1 + i % 3,
                                    pm::Mode::Read));
    EXPECT_FALSE(wrf.watchAttach(0x9999, 1, pm::Mode::Read));
    wrf.unwatch(0x1000);
    EXPECT_TRUE(wrf.watchDetach(0x9999, 1));
}
