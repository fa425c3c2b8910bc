#include "check/tx_oracle.hh"

#include <algorithm>

namespace terp {
namespace check {

bool
TxOracle::canWrite(unsigned tid, pm::PmoId pmo) const
{
    auto it = txs.find(tid);
    if (it == txs.end())
        return false;
    if (it->second.aborted)
        return true; // the real write is a charge-free no-op
    return std::binary_search(it->second.locks.begin(),
                              it->second.locks.end(), pmo);
}

TxEffects
TxOracle::onBegin(unsigned tid, std::vector<pm::PmoId> pmos,
                  bool redo)
{
    std::sort(pmos.begin(), pmos.end());
    pmos.erase(std::unique(pmos.begin(), pmos.end()), pmos.end());

    auto it = txs.find(tid);
    if (it != txs.end()) {
        Tx &tx = it->second;
        if (tx.aborted)
            return measure(false, [] {});
        for (pm::PmoId pmo : pmos) {
            auto o = owner_.find(pmo);
            if (o != owner_.end() && o->second != tid)
                return measure(false, [] {});
        }
        for (pm::PmoId pmo : pmos) {
            if (owner_.emplace(pmo, tid).second) {
                tx.locks.insert(
                    std::lower_bound(tx.locks.begin(),
                                     tx.locks.end(), pmo),
                    pmo);
            }
        }
        ++tx.depth;
        return measure(true, [] {}); // nesting is free
    }

    for (pm::PmoId pmo : pmos) {
        auto o = owner_.find(pmo);
        if (o != owner_.end() && o->second != tid)
            return measure(false, [] {});
    }
    Tx tx;
    tx.depth = 1;
    tx.redo = redo;
    tx.locks = pmos;
    tx.anchor = pmos.front();
    for (pm::PmoId pmo : pmos)
        owner_.emplace(pmo, tid);
    TxEffects e = measure(true, [&] {
        if (!redo) {
            // UndoLog::begin: durable header clear.
            mirror.persistentStore(
                pm::Oid(tx.anchor, undoOff).raw);
            mirror.sfence();
        }
        // RedoLog::begin is volatile arming only.
    });
    txs.emplace(tid, std::move(tx));
    return e;
}

TxEffects
TxOracle::onWrite(unsigned tid, std::uint64_t raw,
                  std::uint64_t value)
{
    Tx &tx = txs.at(tid);
    if (tx.aborted)
        return measure(false, [] {});

    auto pos = std::find(tx.entries.begin(), tx.entries.end(), raw);
    std::uint64_t logOff = tx.redo ? redoOff : undoOff;
    TxEffects e = measure(true, [&] {
        if (pos == tx.entries.end()) {
            std::uint64_t i = tx.entries.size();
            mirror.persistentStore(
                entryRaw(tx.anchor, logOff, i, 0));
            mirror.persistentStore(
                entryRaw(tx.anchor, logOff, i, 1));
            if (!tx.redo) {
                // Undo publishes each record durably before the
                // data update; redo leaves the record unfenced.
                mirror.sfence();
                mirror.persistentStore(
                    pm::Oid(tx.anchor, undoOff).raw);
                mirror.sfence();
            }
            tx.entries.push_back(raw);
        } else if (tx.redo) {
            // Repeat store: redo updates the record's value word in
            // place (persistently, unfenced).
            std::uint64_t i = static_cast<std::uint64_t>(
                pos - tx.entries.begin());
            mirror.persistentStore(
                entryRaw(tx.anchor, logOff, i, 1));
        }
        // Undo stores the data in place; redo only buffers.
        if (!tx.redo)
            mirror.store(raw);
    });
    tx.values[raw] = value;
    return e;
}

void
TxOracle::simulateUndoCommit(Tx &tx)
{
    // UndoLog::commit: one write-back per distinct data line (in
    // write-set order), fence, durable header clear.
    std::vector<std::uint64_t> lines;
    for (std::uint64_t raw : tx.entries) {
        std::uint64_t line = pm::lineKeyOf(raw);
        if (std::find(lines.begin(), lines.end(), line) ==
            lines.end()) {
            lines.push_back(line);
            mirror.clwb(raw);
        }
    }
    mirror.sfence();
    mirror.persistentStore(pm::Oid(tx.anchor, undoOff).raw);
    mirror.sfence();
}

void
TxOracle::simulateRedoCommit(Tx &tx)
{
    if (tx.entries.empty())
        return; // nothing logged: commit is free
    // RedoLog::commit: drain the records, durable commit record,
    // in-place apply + write-back, durable retire.
    mirror.sfence();
    mirror.persistentStore(pm::Oid(tx.anchor, redoOff).raw);
    mirror.sfence();
    std::vector<std::uint64_t> lines;
    for (std::uint64_t raw : tx.entries)
        mirror.store(raw);
    for (std::uint64_t raw : tx.entries) {
        std::uint64_t line = pm::lineKeyOf(raw);
        if (std::find(lines.begin(), lines.end(), line) ==
            lines.end()) {
            lines.push_back(line);
            mirror.clwb(raw);
        }
    }
    mirror.sfence();
    mirror.persistentStore(pm::Oid(tx.anchor, redoOff).raw);
    mirror.sfence();
}

TxEffects
TxOracle::onCommit(unsigned tid)
{
    auto it = txs.find(tid);
    Tx &tx = it->second;
    if (--tx.depth > 0)
        return measure(!tx.aborted, [] {});

    bool healthy = !tx.aborted;
    TxEffects e = measure(healthy, [&] {
        if (!healthy)
            return; // rollback already ran at abort
        if (tx.redo)
            simulateRedoCommit(tx);
        else
            simulateUndoCommit(tx);
    });
    if (healthy) {
        for (const auto &[raw, val] : tx.values)
            committed_[raw] = val;
    }
    for (pm::PmoId pmo : tx.locks)
        owner_.erase(pmo);
    txs.erase(it);
    return e;
}

TxEffects
TxOracle::onAbort(unsigned tid)
{
    Tx &tx = txs.at(tid);
    if (tx.aborted)
        return measure(true, [] {});
    TxEffects e = measure(true, [&] {
        if (tx.redo) {
            // RedoLog::abort: one fence retires the unfenced
            // records, iff any were written.
            if (!tx.entries.empty())
                mirror.sfence();
        } else {
            // UndoLog::abort: restore each logged location (plain
            // stores, reverse order), then durable header clear.
            for (std::uint64_t i = tx.entries.size(); i-- > 0;)
                mirror.store(tx.entries[i]);
            mirror.persistentStore(pm::Oid(tx.anchor, undoOff).raw);
            mirror.sfence();
        }
    });
    tx.aborted = true;
    tx.values.clear();
    return e;
}

TxEffects
TxOracle::onTxPut(
    pm::PmoId pmo,
    const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes)
{
    TxEffects e = measure(true, [&] {
        // UndoLog::begin.
        mirror.persistentStore(pm::Oid(pmo, undoOff).raw);
        mirror.sfence();
        // Writes, deduped per location.
        std::vector<std::uint64_t> oids;
        for (const auto &[oid, val] : writes) {
            (void)val;
            const std::uint64_t raw = oid.raw;
            if (std::find(oids.begin(), oids.end(), raw) ==
                oids.end()) {
                std::uint64_t i = oids.size();
                mirror.persistentStore(entryRaw(pmo, undoOff, i, 0));
                mirror.persistentStore(entryRaw(pmo, undoOff, i, 1));
                mirror.sfence();
                mirror.persistentStore(pm::Oid(pmo, undoOff).raw);
                mirror.sfence();
                oids.push_back(raw);
            }
            mirror.store(raw);
        }
        // Commit.
        std::vector<std::uint64_t> lines;
        for (std::uint64_t raw : oids) {
            std::uint64_t line = pm::lineKeyOf(raw);
            if (std::find(lines.begin(), lines.end(), line) ==
                lines.end()) {
                lines.push_back(line);
                mirror.clwb(raw);
            }
        }
        mirror.sfence();
        mirror.persistentStore(pm::Oid(pmo, undoOff).raw);
        mirror.sfence();
    });
    for (const auto &[oid, val] : writes)
        committed_[oid.raw] = val;
    return e;
}

void
TxOracle::onCrash()
{
    mirror.crash();
    txs.clear();
    owner_.clear();
}

unsigned
TxOracle::depthView(unsigned tid) const
{
    auto it = txs.find(tid);
    return it == txs.end() ? 0 : it->second.depth;
}

bool
TxOracle::abortedView(unsigned tid) const
{
    auto it = txs.find(tid);
    return it != txs.end() && it->second.aborted;
}

int
TxOracle::ownerView(pm::PmoId pmo) const
{
    auto it = owner_.find(pmo);
    return it == owner_.end() ? -1 : static_cast<int>(it->second);
}

std::uint64_t
TxOracle::expectedRead(unsigned tid, std::uint64_t raw) const
{
    auto it = txs.find(tid);
    if (it != txs.end() && !it->second.aborted) {
        auto v = it->second.values.find(raw);
        if (v != it->second.values.end())
            return v->second;
    }
    auto c = committed_.find(raw);
    return c == committed_.end() ? 0 : c->second;
}

} // namespace check
} // namespace terp
