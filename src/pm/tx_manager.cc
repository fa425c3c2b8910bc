#include "pm/tx_manager.hh"

#include <algorithm>

#include "common/logging.hh"
#include "semantics/ew_tracker.hh"

namespace terp {
namespace pm {

const char *
txKindName(TxKind k)
{
    switch (k) {
      case TxKind::Undo: return "undo";
      case TxKind::Redo: return "redo";
      default: return "?";
    }
}

TxManager::TxManager(PersistDomain &domain,
                     semantics::EwTracker *exposure)
    : dom(&domain), ew(exposure)
{
}

void
TxManager::rebind(PersistDomain &domain, semantics::EwTracker *exposure)
{
    dom = &domain;
    ew = exposure;
    for (auto &[tid, tx] : txs) {
        (void)tid;
        if (tx.ulog)
            tx.ulog = domain.findLog(tx.ulog->pmoId());
        if (tx.rlog)
            tx.rlog = domain.redoLogs().at(tx.rlog->pmoId()).get();
    }
}

bool
TxManager::acquire(unsigned tid, Tx &tx, std::vector<PmoId> want,
                   Cycles now)
{
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    // All-or-nothing: scan for conflicts before taking anything, so
    // a Busy begin leaves no partial lock set behind. Acquisition
    // never blocks, and the scan/take order is ascending PmoId —
    // together these rule out deadlock by construction.
    bool conflict = false;
    for (PmoId pmo : want) {
        auto it = owner_.find(pmo);
        if (it != owner_.end() && it->second != tid) {
            conflict = true;
            if (ew)
                ew->setHoldCause(pmo, semantics::BlameCause::TxnLockWait,
                                 now);
        }
    }
    if (conflict)
        return false;
    for (PmoId pmo : want) {
        if (owner_.emplace(pmo, tid).second) {
            tx.locks.insert(std::lower_bound(tx.locks.begin(),
                                             tx.locks.end(), pmo),
                            pmo);
        }
    }
    return true;
}

void
TxManager::releaseAll(unsigned tid, Tx &tx, Cycles now)
{
    for (PmoId pmo : tx.locks) {
        auto it = owner_.find(pmo);
        TERP_ASSERT(it != owner_.end() && it->second == tid,
                    "TxManager: releasing a lock not held by tid ",
                    tid);
        owner_.erase(it);
        if (ew)
            ew->clearHoldCause(pmo, now);
    }
    tx.locks.clear();
}

bool
TxManager::begin(sim::ThreadContext &tc, unsigned tid,
                 std::vector<PmoId> pmos, TxKind kind)
{
    auto it = txs.find(tid);
    if (it != txs.end()) {
        // Nested level of the flattened transaction.
        Tx &tx = it->second;
        if (tx.aborted)
            return false; // the body after an abort never runs
        if (!acquire(tid, tx, std::move(pmos), tc.now())) {
            ++nBusy;
            return false;
        }
        ++tx.depth;
        ++nNested;
        return true;
    }

    TERP_ASSERT(!pmos.empty(),
                "TxManager: outermost begin with an empty PMO set");
    Tx tx;
    tx.kind = kind;
    if (!acquire(tid, tx, std::move(pmos), tc.now())) {
        ++nBusy;
        return false;
    }
    tx.depth = 1;
    PmoId anchor = tx.locks.front();
    if (kind == TxKind::Undo) {
        tx.ulog = &dom->openLog(anchor, undoLogOff);
        tx.ulog->begin(tc);
    } else {
        tx.rlog = &dom->openRedoLog(anchor, redoLogOff);
        tx.rlog->begin(tc);
    }
    ++nOutermost;
    txs.emplace(tid, std::move(tx));
    return true;
}

bool
TxManager::write(sim::ThreadContext &tc, unsigned tid, Oid oid,
                 std::uint64_t value)
{
    auto it = txs.find(tid);
    TERP_ASSERT(it != txs.end(),
                "TxManager: write outside a transaction (tid ", tid,
                ")");
    Tx &tx = it->second;
    if (tx.aborted)
        return false;
    TERP_ASSERT(std::binary_search(tx.locks.begin(), tx.locks.end(),
                                   oid.pool()),
                "TxManager: write to PMO ", oid.pool(),
                " outside the transaction's lock set");
    if (tx.kind == TxKind::Undo)
        tx.ulog->write(tc, oid, value);
    else
        tx.rlog->write(tc, oid, value);
    return true;
}

std::uint64_t
TxManager::read(unsigned tid, Oid oid) const
{
    auto it = txs.find(tid);
    if (it != txs.end() && it->second.kind == TxKind::Redo &&
        !it->second.aborted) {
        std::uint64_t buffered;
        if (it->second.rlog->lookup(oid, buffered))
            return buffered;
    }
    return dom->controller().load(oid);
}

bool
TxManager::commit(sim::ThreadContext &tc, unsigned tid)
{
    auto it = txs.find(tid);
    TERP_ASSERT(it != txs.end(),
                "TxManager: commit outside a transaction (tid ", tid,
                ")");
    Tx &tx = it->second;
    if (--tx.depth > 0)
        return !tx.aborted; // inner level: unwind only

    bool healthy = !tx.aborted;
    if (healthy) {
        // The durable point of the whole flattened transaction.
        if (tx.kind == TxKind::Undo)
            tx.ulog->commit(tc);
        else
            tx.rlog->commit(tc);
        ++nDurableCommits;
    } else {
        // The rollback already ran at abort(); the log is retired.
        ++nAbortedCommits;
    }
    releaseAll(tid, tx, tc.now());
    txs.erase(it);
    return healthy;
}

void
TxManager::abort(sim::ThreadContext &tc, unsigned tid)
{
    auto it = txs.find(tid);
    TERP_ASSERT(it != txs.end(),
                "TxManager: abort outside a transaction (tid ", tid,
                ")");
    Tx &tx = it->second;
    if (tx.aborted)
        return; // already rolled back; keep unwinding
    // Immediate full rollback of the flattened transaction; the
    // depth and the lock set stay until the outermost commit
    // unwinds (PMDK holds locks to the outermost TX_END).
    if (tx.kind == TxKind::Undo)
        tx.ulog->abort(tc);
    else
        tx.rlog->abort(tc);
    tx.aborted = true;
    ++nAborts;
}

TxStatus
TxManager::status(unsigned tid) const
{
    auto it = txs.find(tid);
    if (it == txs.end())
        return TxStatus::None;
    return it->second.aborted ? TxStatus::Aborted : TxStatus::Active;
}

unsigned
TxManager::depth(unsigned tid) const
{
    auto it = txs.find(tid);
    return it == txs.end() ? 0 : it->second.depth;
}

TxKind
TxManager::kind(unsigned tid) const
{
    auto it = txs.find(tid);
    return it == txs.end() ? TxKind::Undo : it->second.kind;
}

int
TxManager::lockOwner(PmoId pmo) const
{
    auto it = owner_.find(pmo);
    return it == owner_.end() ? -1 : static_cast<int>(it->second);
}

bool
TxManager::holdsLock(unsigned tid, PmoId pmo) const
{
    auto it = owner_.find(pmo);
    return it != owner_.end() && it->second == tid;
}

void
TxManager::onCrash()
{
    txs.clear();
    owner_.clear();
}

} // namespace pm
} // namespace terp
