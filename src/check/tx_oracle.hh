/**
 * @file
 * Lockstep spec oracle for the transaction layer (pm::TxManager).
 *
 * Two pieces:
 *
 *  - PersistMirror replays the PersistController's cache-state
 *    machine at line granularity: stores dirty a line, CLWBs move it
 *    to pending (charging clwbCost whether or not the line was
 *    dirty), fences drain *every* pending line at drainCostPerLine
 *    each. The mirror is global — exactly like the controller — so
 *    a fence issued by one transaction pays for write-backs another
 *    transaction left unfenced (redo writes do exactly that). This
 *    is why per-op charges can't be closed-form once redo is in the
 *    mix: they depend on the global pending set, which the mirror
 *    tracks and a formula can't.
 *
 *  - TxOracle mirrors TxManager's semantic state (per-thread nesting
 *    depth, abort poisoning, per-PMO locks, anchor log write-sets)
 *    and, for each transaction op, simulates the exact persist
 *    sequence the undo/redo protocol performs against the mirror.
 *    The returned TxEffects — expected success, cycle charge, CLWB
 *    and fence counts — are compared by the differ against the real
 *    run. The simulation is structural: it depends on the shape of
 *    the write-set (distinct locations, distinct lines, log-entry
 *    addresses), never on data values, which is the design rule the
 *    pm layer's abort/commit paths follow so this prediction can be
 *    exact.
 */

#ifndef TERP_CHECK_TX_ORACLE_HH
#define TERP_CHECK_TX_ORACLE_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/units.hh"
#include "pm/oid.hh"
#include "pm/persist.hh"

namespace terp {
namespace check {

/** Line-granularity mirror of the PersistController cache state. */
class PersistMirror
{
  public:
    void
    store(std::uint64_t raw)
    {
        dirty.insert(pm::lineKeyOf(raw));
    }

    void
    clwb(std::uint64_t raw)
    {
        ++nClwb;
        charge_ += pm::PersistController::clwbCost;
        auto it = dirty.find(pm::lineKeyOf(raw));
        if (it == dirty.end())
            return; // clean line: the issue still costs
        pending.insert(*it);
        dirty.erase(it);
    }

    void
    sfence()
    {
        ++nFence;
        charge_ += pm::PersistController::drainCostPerLine *
                   static_cast<Cycles>(pending.size());
        pending.clear();
    }

    void
    persistentStore(std::uint64_t raw)
    {
        store(raw);
        clwb(raw);
    }

    /** Power failure: unfenced state is lost. */
    void
    crash()
    {
        dirty.clear();
        pending.clear();
    }

    Cycles charge() const { return charge_; }
    std::uint64_t clwbs() const { return nClwb; }
    std::uint64_t fences() const { return nFence; }

  private:
    std::set<std::uint64_t> dirty;
    std::set<std::uint64_t> pending;
    Cycles charge_ = 0;
    std::uint64_t nClwb = 0;
    std::uint64_t nFence = 0;
};

/** What the oracle expects one transaction op to do and cost. */
struct TxEffects
{
    bool ok = true; //!< expected return of the TxManager call
    Cycles charge = 0;
    std::uint64_t clwbs = 0;
    std::uint64_t fences = 0;
};

/** Spec mirror of pm::TxManager plus the two log protocols. */
class TxOracle
{
  public:
    TxOracle(std::uint64_t undo_off, std::uint64_t redo_off)
        : undoOff(undo_off), redoOff(redo_off)
    {
    }

    // ---- skip predicates (shrinker-safe replay rules) ----------------

    /** Can a TxWrite to @p pmo be replayed on @p tid? */
    bool canWrite(unsigned tid, pm::PmoId pmo) const;
    bool canCommit(unsigned tid) const { return depthView(tid) > 0; }
    bool canAbort(unsigned tid) const { return depthView(tid) > 0; }
    /** No transaction open anywhere (CrashRecover's gate). */
    bool idle() const { return txs.empty(); }
    /** Is @p pmo in any open transaction's lock set (TxPut gate)? */
    bool locked(pm::PmoId pmo) const { return owner_.count(pmo); }

    // ---- lockstep ops ------------------------------------------------

    TxEffects onBegin(unsigned tid, std::vector<pm::PmoId> pmos,
                      bool redo);
    TxEffects onWrite(unsigned tid, std::uint64_t raw,
                      std::uint64_t value);
    TxEffects onCommit(unsigned tid);
    TxEffects onAbort(unsigned tid);

    /**
     * The legacy TxPut op: a begin / N writes / commit burst on
     * @p pmo's undo log, with @p writes the issued (key, value)
     * stores in order.
     */
    TxEffects onTxPut(
        pm::PmoId pmo,
        const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes);

    /** Power failure: open transactions and locks evaporate. */
    void onCrash();

    // ---- state views -------------------------------------------------

    unsigned depthView(unsigned tid) const;
    bool abortedView(unsigned tid) const;
    /** Lock holder of @p pmo, or -1. */
    int ownerView(pm::PmoId pmo) const;

    /**
     * What TxManager::read must return for @p tid at @p raw: the
     * transaction's own write when one is buffered (and the tx is
     * healthy), else the last committed value (0 if never written).
     */
    std::uint64_t expectedRead(unsigned tid,
                               std::uint64_t raw) const;

    /** Expected durable image: raw -> last committed value. */
    const std::map<std::uint64_t, std::uint64_t> &
    committed() const
    {
        return committed_;
    }

  private:
    struct Tx
    {
        unsigned depth = 0;
        bool redo = false;
        bool aborted = false;
        std::vector<pm::PmoId> locks; //!< ascending
        pm::PmoId anchor = 0;
        //! distinct logged raws, in log-entry order
        std::vector<std::uint64_t> entries;
        //! raw -> value the tx would commit
        std::map<std::uint64_t, std::uint64_t> values;
    };

    std::uint64_t undoOff;
    std::uint64_t redoOff;
    PersistMirror mirror;
    std::map<unsigned, Tx> txs;
    std::map<pm::PmoId, unsigned> owner_;
    std::map<std::uint64_t, std::uint64_t> committed_;

    std::uint64_t entryRaw(pm::PmoId anchor, std::uint64_t logOff,
                           std::uint64_t i, unsigned word) const
    {
        return pm::Oid(anchor, logOff + 64 + i * 16 + word * 8).raw;
    }

    /** Snapshot-and-delta helper around a protocol simulation. */
    template <typename Fn>
    TxEffects
    measure(bool ok, Fn &&fn)
    {
        Cycles c0 = mirror.charge();
        std::uint64_t w0 = mirror.clwbs(), f0 = mirror.fences();
        fn();
        TxEffects e;
        e.ok = ok;
        e.charge = mirror.charge() - c0;
        e.clwbs = mirror.clwbs() - w0;
        e.fences = mirror.fences() - f0;
        return e;
    }

    void simulateUndoCommit(Tx &tx);
    void simulateRedoCommit(Tx &tx);
};

} // namespace check
} // namespace terp

#endif // TERP_CHECK_TX_ORACLE_HH
