/**
 * @file
 * Large undo- and redo-log transactions. Each write's dedupe, and
 * each commit's line dedupe, must take O(1) expected time: a scan of
 * the write set per write makes these transactions take many
 * seconds, past the ctest TIMEOUT that tests/CMakeLists.txt gives
 * this file.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "pm/persist.hh"
#include "sim/thread.hh"

using namespace terp;
using namespace terp::pm;

namespace {

// A 200k-write transaction over a pool of 512k words, 8 to a line:
// about 166k distinct words, so most words are written once, many
// twice, and most lines hold several.
struct BigTxn
{
    static constexpr std::uint64_t pool = 1 << 19;
    static constexpr unsigned writes = 200000;

    std::vector<std::uint64_t> order; //!< word index of each write
    std::vector<std::uint64_t> words; //!< distinct, first-write order
    std::vector<std::uint64_t> last;  //!< per word: its last write
    std::uint64_t distinctLines = 0;

    BigTxn() : last(pool, ~0ULL)
    {
        Rng rng(7);
        std::vector<char> lineSeen(pool / 8);
        for (unsigned j = 0; j < writes; ++j) {
            const std::uint64_t w = rng.nextBelow(pool);
            order.push_back(w);
            if (last[w] == ~0ULL)
                words.push_back(w);
            last[w] = j;
            distinctLines += !lineSeen[w / 8];
            lineSeen[w / 8] = 1;
        }
    }

    static Oid word(std::uint64_t w) { return Oid(1, 0x10000 + 8 * w); }
    static std::uint64_t old(std::uint64_t w) { return 3 * w + 1; }

    /** Every written word durable at old(w). */
    void
    prefill(PersistController &ctl, sim::ThreadContext &tc) const
    {
        for (std::uint64_t w : words) {
            ctl.store(word(w), old(w));
            ctl.clwb(tc, word(w));
        }
        ctl.sfence(tc);
    }

    template <class Log>
    void
    run(Log &log, sim::ThreadContext &tc) const
    {
        log.begin(tc);
        for (unsigned j = 0; j < writes; ++j)
            log.write(tc, word(order[j]), j);
    }
};

} // namespace

TEST(UndoLog, LargeTransactionIsLinear)
{
    const BigTxn t;
    PersistController ctl;
    sim::ThreadContext tc(0, 0);
    t.prefill(ctl, tc);
    UndoLog log(ctl, 1, 1ULL << 32);

    // Abort: one undo record per word, and every word comes back.
    t.run(log, tc);
    EXPECT_EQ(log.entriesLogged(), t.words.size());
    log.abort(tc);
    for (std::uint64_t w : t.words)
        ASSERT_EQ(ctl.load(BigTxn::word(w)), BigTxn::old(w)) << w;

    // Commit: one clwb per distinct line, plus the header's.
    t.run(log, tc);
    EXPECT_EQ(log.entriesLogged(), 2 * t.words.size());
    const std::uint64_t clwbs = ctl.clwbCount();
    log.commit(tc);
    EXPECT_EQ(ctl.clwbCount() - clwbs, t.distinctLines + 1);
    for (std::uint64_t w : t.words)
        ASSERT_EQ(ctl.persistedLoad(BigTxn::word(w)), t.last[w]) << w;
}

TEST(RedoLog, LargeTransactionIsLinear)
{
    const BigTxn t;
    PersistController ctl;
    sim::ThreadContext tc(0, 0);
    t.prefill(ctl, tc);
    RedoLog log(ctl, 1, 1ULL << 32);

    // Abort: one redo record per word, each read back at its last
    // value, and the data image never touched.
    t.run(log, tc);
    EXPECT_EQ(log.entriesLogged(), t.words.size());
    for (std::uint64_t w : t.words) {
        std::uint64_t v = 0;
        ASSERT_TRUE(log.lookup(BigTxn::word(w), v)) << w;
        ASSERT_EQ(v, t.last[w]) << w;
    }
    log.abort(tc);
    for (std::uint64_t w : t.words)
        ASSERT_EQ(ctl.load(BigTxn::word(w)), BigTxn::old(w)) << w;

    // Commit: one clwb per distinct line, plus the header's two.
    t.run(log, tc);
    const std::uint64_t clwbs = ctl.clwbCount();
    log.commit(tc);
    EXPECT_EQ(ctl.clwbCount() - clwbs, t.distinctLines + 2);
    for (std::uint64_t w : t.words)
        ASSERT_EQ(ctl.persistedLoad(BigTxn::word(w)), t.last[w]) << w;
}
