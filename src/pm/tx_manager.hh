/**
 * @file
 * Transactional PM API over the persistence substrate.
 *
 * pm::TxManager grows the per-PMO UndoLog/RedoLog primitives into a
 * transaction layer with PMDK TX_BEGIN semantics ("Intel PMDK
 * Transactions: Specification, Validation and Concurrency"):
 *
 *  - Nested transactions are flattened into the outermost one. An
 *    inner commit is just a nesting-depth decrement; only the
 *    outermost commit is a durable point. An abort at any depth
 *    rolls the *whole* transaction back immediately and poisons the
 *    enclosing levels: their commits unwind without doing work and
 *    the outermost commit reports failure.
 *  - Concurrent transactions from different threads are isolated by
 *    per-PMO locks. A transaction names its PMO set at begin();
 *    locks are acquired in ascending PmoId order and the acquisition
 *    never blocks — any conflict fails the begin with nothing
 *    acquired (Busy). Non-blocking acquisition in a global order is
 *    what makes the scheme deadlock-free. Locks are held until the
 *    outermost commit (or the crash), including across an abort —
 *    exactly PMDK's "locks are released at the end of the outermost
 *    transaction".
 *  - The logging variant is selectable per transaction: Undo (old
 *    values persisted before each data update; cheap commit,
 *    expensive writes) or Redo (new values buffered in the log;
 *    cheap writes and near-free abort, one big durable point at
 *    commit). A transaction anchors one log — on its lowest locked
 *    PmoId — and since log records carry full Oid raws (pool id in
 *    the top 16 bits), that single log protects writes to every PMO
 *    in the transaction's lock set.
 *
 * All persistence traffic goes through the PersistController, so
 * every durable commit point is charged through the Table-2 cost
 * model (clwbCost per write-back, drainCostPerLine per fenced line)
 * and interrupted by the same crash-point fault plans as raw stores.
 */

#ifndef TERP_PM_TX_MANAGER_HH
#define TERP_PM_TX_MANAGER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "pm/persist.hh"

namespace terp {
namespace semantics {
class EwTracker;
} // namespace semantics
namespace pm {

/** Which log protocol a transaction runs under. */
enum class TxKind : std::uint8_t
{
    Undo, //!< log old values; data updated in place during the tx
    Redo, //!< buffer new values; data untouched until commit
};

/** Observable state of a thread's transaction. */
enum class TxStatus : std::uint8_t
{
    None,    //!< no transaction open
    Active,  //!< open and healthy
    Aborted, //!< rolled back, unwinding towards the outermost end
};

const char *txKindName(TxKind k);

/**
 * Per-process transaction manager. One instance per PersistDomain
 * (Runtime::attachPersistence creates it); threads are identified by
 * their simulated tid.
 */
class TxManager
{
  public:
    /** Undo-log region offset in every PMO (the crash harness's). */
    static constexpr std::uint64_t undoLogOff = 1ULL << 32;
    /** Redo-log region offset in every PMO (disjoint from undo). */
    static constexpr std::uint64_t redoLogOff = 1ULL << 33;

    /**
     * @param exposure The tracker that lock contention re-attributes
     *                 windows in (null: nobody is told). A Busy begin
     *                 marks each conflicting lock's PMO held for
     *                 txn_lock_wait, and the outermost commit clears
     *                 the mark on each lock it releases. Never done
     *                 from onCrash (the crash path resets attribution
     *                 wholesale). Purely observational: no charges.
     */
    explicit TxManager(PersistDomain &domain,
                       semantics::EwTracker *exposure = nullptr);

    /**
     * A copy, or an assignment, takes every member, the domain, the
     * tracker and each open transaction's anchor log included;
     * rebind() moves them to the copy's own.
     */
    TxManager(const TxManager &) = default;
    TxManager &operator=(const TxManager &) = default;

    /**
     * Run over @p domain, a copy of the domain this manager ran over,
     * and report to @p exposure: each open transaction's anchor log
     * becomes @p domain's log of the same PMO.
     */
    void rebind(PersistDomain &domain, semantics::EwTracker *exposure);

    /**
     * Open a transaction level on @p tid.
     *
     * Outermost (no transaction open): @p pmos (non-empty) names the
     * lock set; duplicates are fine. All locks are try-acquired in
     * ascending PmoId order; if any is held by another thread the
     * begin fails with *nothing* acquired and returns false (Busy).
     * On success the transaction anchors its @p kind log on the
     * lowest locked PmoId and returns true.
     *
     * Nested (transaction already open): increments the nesting
     * depth; @p pmos may add PMOs to the lock set (same try-acquire
     * rule — a conflict fails the nested begin with the depth and
     * the outer lock set unchanged) and @p kind is ignored (the
     * flattened transaction keeps the outermost kind). A nested
     * begin inside an already-aborted transaction fails (PMDK's
     * TX_BEGIN after abort does not execute its body).
     */
    bool begin(sim::ThreadContext &tc, unsigned tid,
               std::vector<PmoId> pmos, TxKind kind = TxKind::Undo);

    /**
     * Transactional store of @p value at @p oid. The PMO must be in
     * the transaction's lock set. Returns false (and charges
     * nothing) when the transaction is already aborted.
     */
    bool write(sim::ThreadContext &tc, unsigned tid, Oid oid,
               std::uint64_t value);

    /**
     * Transactional load. Undo reads the (in-place updated)
     * volatile image; Redo reads its own buffered writes first.
     * Outside a transaction this is a plain volatile load.
     */
    std::uint64_t read(unsigned tid, Oid oid) const;

    /**
     * Close the innermost level. Nested: depth decrement only, no
     * persist traffic. Outermost of a healthy transaction: the
     * durable point — the anchor log commits and all locks release;
     * returns true. Outermost of an aborted transaction: the
     * rollback already happened at abort time, so this just releases
     * the locks and returns false. A nested commit returns whether
     * the transaction is still healthy.
     */
    bool commit(sim::ThreadContext &tc, unsigned tid);

    /**
     * Abort the transaction from any nesting depth: immediate full
     * rollback (undo: restore logged values, retire the log; redo:
     * discard the buffer) and the transaction is poisoned until the
     * outermost commit unwinds it. Idempotent at deeper levels —
     * aborting an already-aborted transaction is a no-op.
     */
    void abort(sim::ThreadContext &tc, unsigned tid);

    // ---- state probes (for oracles and tests) ------------------------

    TxStatus status(unsigned tid) const;
    /** Nesting depth of @p tid's transaction (0 = none open). */
    unsigned depth(unsigned tid) const;
    /** Kind of @p tid's open transaction (Undo when none). */
    TxKind kind(unsigned tid) const;
    /** Lock holder of @p pmo, or -1 when free. */
    int lockOwner(PmoId pmo) const;
    bool holdsLock(unsigned tid, PmoId pmo) const;
    /** Any transaction open on any thread? */
    bool anyActive() const { return !txs.empty(); }

    /**
     * Power failure: every open transaction's volatile state and all
     * locks evaporate (the logs' own volatile loss is handled by
     * PersistDomain::crash). Durable in-flight undo records are
     * rolled back by Runtime::recover; durable redo commit records
     * are rolled forward.
     */
    void onCrash();

    // ---- lifetime totals (monotonic, for metrics) --------------------

    std::uint64_t outermostBegins() const { return nOutermost; }
    std::uint64_t nestedBegins() const { return nNested; }
    /** begin() calls that failed on a lock conflict. */
    std::uint64_t busyRejections() const { return nBusy; }
    /** Outermost commits that were durable points. */
    std::uint64_t durableCommits() const { return nDurableCommits; }
    /** Outermost commits that unwound an aborted transaction. */
    std::uint64_t abortedCommits() const { return nAbortedCommits; }
    std::uint64_t aborts() const { return nAborts; }

  private:
    struct Tx
    {
        unsigned depth = 0;
        TxKind kind = TxKind::Undo;
        bool aborted = false;
        std::vector<PmoId> locks; //!< ascending
        UndoLog *ulog = nullptr;  //!< anchor (kind == Undo)
        RedoLog *rlog = nullptr;  //!< anchor (kind == Redo)
    };

    PersistDomain *dom;
    semantics::EwTracker *ew; //!< null = nobody listening
    std::map<unsigned, Tx> txs;       //!< tid -> open transaction
    std::map<PmoId, unsigned> owner_; //!< pmo -> locking tid

    std::uint64_t nOutermost = 0;
    std::uint64_t nNested = 0;
    std::uint64_t nBusy = 0;
    std::uint64_t nDurableCommits = 0;
    std::uint64_t nAbortedCommits = 0;
    std::uint64_t nAborts = 0;

    /**
     * Try to acquire every PMO in @p want (sorted, deduped) for
     * @p tid that it doesn't already hold. All-or-nothing; returns
     * false on any conflict with nothing acquired (reporting each
     * conflicting lock as held for txn_lock_wait at @p now).
     */
    bool acquire(unsigned tid, Tx &tx, std::vector<PmoId> want,
                 Cycles now);
    void releaseAll(unsigned tid, Tx &tx, Cycles now);
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_TX_MANAGER_HH
