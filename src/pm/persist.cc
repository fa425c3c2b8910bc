#include "pm/persist.hh"

#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace terp {
namespace pm {

const char *
persistBoundaryName(PersistBoundary b)
{
    switch (b) {
      case PersistBoundary::Store: return "store";
      case PersistBoundary::Clwb: return "clwb";
      case PersistBoundary::Sfence: return "sfence";
      case PersistBoundary::LogHeader: return "log-header";
      default: return "?";
    }
}

namespace {

std::string
powerFailureMessage(std::uint64_t boundary, PersistBoundary kind)
{
    std::ostringstream os;
    os << "modeled power failure before boundary " << boundary
       << " (" << persistBoundaryName(kind) << ")";
    return os.str();
}

} // namespace

PowerFailure::PowerFailure(std::uint64_t boundary_,
                           PersistBoundary kind_)
    : std::runtime_error(powerFailureMessage(boundary_, kind_)),
      boundary(boundary_), kind(kind_)
{
}

// ------------------------------------------------- PersistController

void
PersistController::armFault(std::uint64_t nth)
{
    TERP_ASSERT(nth > nBoundary,
                "fault plan armed at an already-passed boundary ",
                nth, " (", nBoundary, " seen)");
    faultAt = nth;
}

void
PersistController::tapFaults(FaultTap t)
{
    armFault(nBoundary + 1);
    tap = std::move(t);
}

void
PersistController::noteBoundary(PersistBoundary k)
{
    ++nBoundary;
    if (faultAt != 0 && nBoundary == faultAt)
        fireFault(k);
}

void
PersistController::fireFault(PersistBoundary k)
{
    faultAt = 0;
    if (tap) {
        FaultTap t = std::exchange(tap, nullptr);
        t(nBoundary, k);
        tap = std::move(t);
        faultAt = nBoundary + 1;
        return;
    }
    // Power fails before the boundary takes effect: whatever it
    // would have made visible/durable never happens.
    crash();
    throw PowerFailure(nBoundary, k);
}

void
PersistController::store(Oid oid, std::uint64_t value)
{
    noteBoundary(PersistBoundary::Store);
    const std::uint64_t prev = vol.exchange(oid.raw, value);
    auto [l, fresh] = side.insert(lineKeyOf(oid.raw));
    if (fresh) {
        // The slot may hold an erased line's record: start it clean.
        l.pending = false;
        l.words.clear();
    }
    l.dirty = true;
    for (SideLine::Word &w : l.words) {
        if (w.addr == oid.raw) {
            // The word's first store since the line's CLWB: that
            // write-back holds the value this store replaces.
            if (l.pending && !w.hasWb) {
                w.wb = prev;
                w.hasWb = true;
            }
            return;
        }
    }
    // First store since the word was durable, so prev is its durable
    // value (and what a pending write-back of the line holds).
    l.words.push_back({oid.raw, prev, prev, l.pending});
}

std::uint64_t
PersistController::load(Oid oid) const
{
    return vol.peek(oid.raw);
}

std::uint64_t
PersistController::persistedLoad(Oid oid) const
{
    if (const SideLine *l = side.find(lineKeyOf(oid.raw)))
        for (const SideLine::Word &w : l->words)
            if (w.addr == oid.raw)
                return w.old;
    return vol.peek(oid.raw);
}

void
PersistController::clwb(sim::ThreadContext &tc, Oid oid)
{
    noteBoundary(PersistBoundary::Clwb);
    tc.work(clwbCost);
    ++nClwb;
    // No-op when the line is already clean.
    const std::uint64_t line = lineKeyOf(oid.raw);
    SideLine *l = side.find(line);
    if (!l || !l->dirty)
        return;
    // The write-back captures every word as it stands now.
    l->dirty = false;
    for (SideLine::Word &w : l->words)
        w.hasWb = false;
    if (!l->pending) {
        l->pending = true;
        pendingList.push_back(line);
    }
}

void
PersistController::sfence(sim::ThreadContext &tc)
{
    noteBoundary(PersistBoundary::Sfence);
    ++nFence;
    tc.work(drainCostPerLine *
            static_cast<Cycles>(pendingList.size()));
    for (std::uint64_t line : pendingList) {
        // Each word's write-back value becomes durable: a word stored
        // again since the CLWB keeps its record with wb as the new
        // durable value; every other word is durable as vol holds it.
        SideLine &l = *side.find(line);
        l.pending = false;
        std::size_t kept = 0;
        for (const SideLine::Word &w : l.words)
            if (w.hasWb)
                l.words[kept++] = {w.addr, w.wb, w.wb, false};
        l.words.resize(kept);
        if (kept == 0)
            side.erase(line);
    }
    pendingList.clear();
}

void
PersistController::persistentStore(sim::ThreadContext &tc, Oid oid,
                                   std::uint64_t value)
{
    store(oid, value);
    clwb(tc, oid);
}

void
PersistController::crash()
{
    // Unflushed and unfenced updates are lost with power.
    side.forEach([this](std::uint64_t, const SideLine &l) {
        for (const SideLine::Word &w : l.words)
            vol.poke(w.addr, w.old);
    });
    side.clear();
    pendingList.clear();
}

// --------------------------------------------------------- UndoLog

// Log layout: header word 0 = number of valid entries (0 = no
// transaction in flight); entries are (address raw, old value)
// pairs. Every log update is made durable before the corresponding
// data update, and the header is cleared (durably) only after the
// data is durable — the textbook undo protocol.

UndoLog::UndoLog(PersistController &pc, PmoId pmo_,
                 std::uint64_t log_off)
    : ctl(&pc), pmo(pmo_), logOff(log_off)
{
}

void
UndoLog::begin(sim::ThreadContext &tc)
{
    TERP_ASSERT(!active, "UndoLog: nested transaction");
    active = true;
    entries = 0;
    writeSet.clear();
    logged.clear();
    ctl->noteBoundary(PersistBoundary::LogHeader);
    ctl->persistentStore(tc, headerOid(), 0);
    ctl->sfence(tc);
}

void
UndoLog::write(sim::ThreadContext &tc, Oid oid, std::uint64_t value)
{
    TERP_ASSERT(active, "UndoLog: write outside a transaction");
    // A location already logged this transaction keeps its original
    // undo record: the oldest value is the one rollback must
    // restore, and duplicate entries would make commit CLWB (and
    // the SFENCE drain pay for) the same line once per write.
    if (!logged.find(oid.raw)) {
        // 1. Persist the undo record.
        ctl->persistentStore(tc, entryOid(entries, 0), oid.raw);
        ctl->persistentStore(tc, entryOid(entries, 1), ctl->load(oid));
        ctl->sfence(tc);
        // 2. Publish the record durably before touching the data.
        ++entries;
        ++nEntriesLogged;
        nBytesLogged += 16; // (address, old value) pair
        ctl->noteBoundary(PersistBoundary::LogHeader);
        ctl->persistentStore(tc, headerOid(), entries);
        ctl->sfence(tc);
        writeSet.push_back(oid.raw);
        logged.insert(oid.raw);
    }
    // 3. Now the data update may proceed (durable at commit).
    ctl->store(oid, value);
}

void
UndoLog::commit(sim::ThreadContext &tc)
{
    TERP_ASSERT(active, "UndoLog: commit outside a transaction");
    // Make the transaction's data updates durable. The DRAM-side
    // write-set (not volatile re-reads of the log region) names the
    // touched locations; flush each distinct cache line once, in
    // first-write order. `logged` is not read again before the
    // transaction ends, so it dedupes the lines.
    logged.clear();
    for (std::uint64_t raw : writeSet) {
        const std::uint64_t line = lineKeyOf(raw);
        if (logged.insert(line).second)
            ctl->clwb(tc, Oid::fromRaw(line));
    }
    ctl->sfence(tc);
    // Invalidate the log durably: the transaction is committed.
    ctl->noteBoundary(PersistBoundary::LogHeader);
    ctl->persistentStore(tc, headerOid(), 0);
    ctl->sfence(tc);
    active = false;
    entries = 0;
    writeSet.clear();
    logged.clear();
}

void
UndoLog::abort(sim::ThreadContext &tc)
{
    TERP_ASSERT(active, "UndoLog: abort outside a transaction");
    // Restore from the volatile image of the log, newest entry
    // first. Dedupe means each location appears once, holding the
    // value it had *before the first write* of the transaction —
    // exactly what abort must bring back. The stores are plain and
    // unconditional: the restored values equal the durable ones
    // (data write-backs only happen at commit), and skipping
    // already-equal locations would make the charge data-dependent.
    for (std::uint64_t i = entries; i-- > 0;) {
        Oid target = Oid::fromRaw(ctl->load(entryOid(i, 0)));
        ctl->store(target, ctl->load(entryOid(i, 1)));
    }
    // Durably invalidate the log: nothing in flight any more.
    ctl->noteBoundary(PersistBoundary::LogHeader);
    ctl->persistentStore(tc, headerOid(), 0);
    ctl->sfence(tc);
    ++nAborts;
    active = false;
    entries = 0;
    writeSet.clear();
    logged.clear();
}

std::uint64_t
UndoLog::recover(sim::ThreadContext &tc)
{
    abortVolatile();
    std::uint64_t valid = ctl->persistedLoad(headerOid());
    if (valid == 0)
        return 0; // nothing in flight at the crash
    ++nRollbacks;
    nEntriesRolledBack += valid;
    // Roll back in reverse order from the durable log. A location
    // whose durable image already equals the logged old value needs
    // no store — the crash landed before its data update was ever
    // flushed — and re-applying it would bill the recovering thread
    // a second full persist for data that is already durable (the
    // common case for a crash between the commit fence and the
    // durable header clear: everything is durable, the whole walk
    // is no-ops).
    for (std::uint64_t i = valid; i-- > 0;) {
        Oid target =
            Oid::fromRaw(ctl->persistedLoad(entryOid(i, 0)));
        std::uint64_t old = ctl->persistedLoad(entryOid(i, 1));
        if (ctl->persistedLoad(target) == old &&
            ctl->load(target) == old) {
            continue;
        }
        ctl->persistentStore(tc, target, old);
    }
    ctl->sfence(tc);
    ctl->noteBoundary(PersistBoundary::LogHeader);
    ctl->persistentStore(tc, headerOid(), 0);
    ctl->sfence(tc);
    return valid;
}

bool
UndoLog::recoveryPending() const
{
    return ctl->persistedLoad(headerOid()) != 0;
}

void
UndoLog::abortVolatile()
{
    active = false;
    entries = 0;
    writeSet.clear();
    logged.clear();
}

// ---------------------------------------------------------- RedoLog

RedoLog::RedoLog(PersistController &pc, PmoId pmo_,
                 std::uint64_t log_off)
    : ctl(&pc), pmo(pmo_), logOff(log_off)
{
}

void
RedoLog::begin(sim::ThreadContext &tc)
{
    (void)tc;
    TERP_ASSERT(!active, "RedoLog: nested transaction");
    // The durable header is already 0 (construction or the last
    // retire): a crash from here simply discards the transaction.
    // No persist traffic, no charge — redo defers all durability
    // cost to commit.
    active = true;
    buf.clear();
    positions.clear();
}

void
RedoLog::write(sim::ThreadContext &tc, Oid oid, std::uint64_t value)
{
    TERP_ASSERT(active, "RedoLog: write outside a transaction");
    // One record per location: a repeated store updates the value
    // word in place (the header counts entries, and rollforward
    // applies records in order, so a stale duplicate would be
    // harmless but would waste log space and commit drain).
    if (const std::uint32_t *at = positions.find(oid.raw)) {
        buf[*at].second = value;
        ctl->persistentStore(tc, entryOid(*at, 1), value);
        return;
    }
    const auto i = static_cast<std::uint32_t>(buf.size());
    ctl->persistentStore(tc, entryOid(i, 0), oid.raw);
    ctl->persistentStore(tc, entryOid(i, 1), value);
    buf.emplace_back(oid.raw, value);
    positions.insert(oid.raw).first = i;
    ++nEntriesLogged;
    nBytesLogged += 16;
}

bool
RedoLog::lookup(Oid oid, std::uint64_t &value) const
{
    if (!active)
        return false;
    const std::uint32_t *at = positions.find(oid.raw);
    if (at)
        value = buf[*at].second;
    return at != nullptr;
}

void
RedoLog::commit(sim::ThreadContext &tc)
{
    TERP_ASSERT(active, "RedoLog: commit outside a transaction");
    if (buf.empty()) {
        // Nothing written: no records to drain, nothing to apply,
        // and the durable header never left 0.
        active = false;
        return;
    }
    // 1. Drain the buffered redo records durable.
    ctl->sfence(tc);
    // 2. Durable commit record — THE durable point. A crash before
    //    this fence discards the transaction; after it, recovery
    //    rolls forward.
    ctl->noteBoundary(PersistBoundary::LogHeader);
    ctl->persistentStore(tc, headerOid(), buf.size());
    ctl->sfence(tc);
    // 3. Apply in place, then write back each distinct data line in
    //    first-write order. `positions` is not read again before the
    //    transaction ends, so it dedupes the lines.
    for (const auto &[raw, val] : buf)
        ctl->store(Oid::fromRaw(raw), val);
    positions.clear();
    for (const auto &[raw, val] : buf) {
        const std::uint64_t line = lineKeyOf(raw);
        if (positions.insert(line).second)
            ctl->clwb(tc, Oid::fromRaw(line));
    }
    ctl->sfence(tc);
    // 4. Retire the log durably.
    ctl->noteBoundary(PersistBoundary::LogHeader);
    ctl->persistentStore(tc, headerOid(), 0);
    ctl->sfence(tc);
    active = false;
    buf.clear();
    positions.clear();
}

void
RedoLog::abort(sim::ThreadContext &tc)
{
    TERP_ASSERT(active, "RedoLog: abort outside a transaction");
    // The data image was never touched; only the log region may owe
    // the controller write-backs. One fence retires them so later
    // fences don't pay for this transaction's garbage records. The
    // rule is structural — fence iff any record was written — never
    // value-dependent.
    if (!buf.empty())
        ctl->sfence(tc);
    ++nAborts;
    active = false;
    buf.clear();
    positions.clear();
}

std::uint64_t
RedoLog::recover(sim::ThreadContext &tc)
{
    abortVolatile();
    std::uint64_t valid = ctl->persistedLoad(headerOid());
    if (valid == 0)
        return 0; // no durable commit record: nothing to apply
    ++nRollForwards;
    nEntriesApplied += valid;
    // Roll forward from the durable log, in order. Idempotent: a
    // location the torn apply already persisted is skipped (same
    // compare as UndoLog::recover — recovery may re-run after its
    // own crash).
    for (std::uint64_t i = 0; i < valid; ++i) {
        Oid target =
            Oid::fromRaw(ctl->persistedLoad(entryOid(i, 0)));
        std::uint64_t val = ctl->persistedLoad(entryOid(i, 1));
        if (ctl->persistedLoad(target) == val &&
            ctl->load(target) == val) {
            continue;
        }
        ctl->persistentStore(tc, target, val);
    }
    ctl->sfence(tc);
    ctl->noteBoundary(PersistBoundary::LogHeader);
    ctl->persistentStore(tc, headerOid(), 0);
    ctl->sfence(tc);
    return valid;
}

bool
RedoLog::recoveryPending() const
{
    return ctl->persistedLoad(headerOid()) != 0;
}

void
RedoLog::abortVolatile()
{
    active = false;
    buf.clear();
    positions.clear();
}

// ---------------------------------------------------- PersistDomain

template <class Log>
void
PersistDomain::assignLogs(std::map<PmoId, std::unique_ptr<Log>> &to,
                          const std::map<PmoId, std::unique_ptr<Log>> &from)
{
    std::erase_if(to, [&from](const auto &kv) {
        return !from.count(kv.first);
    });
    for (const auto &[pmo, log] : from) {
        std::unique_ptr<Log> &mine = to[pmo];
        if (mine)
            *mine = *log;
        else
            mine.reset(new Log(*log));
        mine->ctl = &ctl;
    }
}

PersistDomain &
PersistDomain::operator=(const PersistDomain &o)
{
    ctl = o.ctl;
    assignLogs(logs_, o.logs_);
    assignLogs(redoLogs_, o.redoLogs_);
    return *this;
}

UndoLog &
PersistDomain::openLog(PmoId pmo, std::uint64_t log_off)
{
    auto it = logs_.find(pmo);
    if (it != logs_.end())
        return *it->second;
    auto [pos, inserted] = logs_.emplace(
        pmo, std::make_unique<UndoLog>(ctl, pmo, log_off));
    (void)inserted;
    return *pos->second;
}

UndoLog *
PersistDomain::findLog(PmoId pmo)
{
    auto it = logs_.find(pmo);
    return it == logs_.end() ? nullptr : it->second.get();
}

RedoLog &
PersistDomain::openRedoLog(PmoId pmo, std::uint64_t log_off)
{
    auto it = redoLogs_.find(pmo);
    if (it != redoLogs_.end())
        return *it->second;
    auto [pos, inserted] = redoLogs_.emplace(
        pmo, std::make_unique<RedoLog>(ctl, pmo, log_off));
    (void)inserted;
    return *pos->second;
}

void
PersistDomain::crash()
{
    ctl.crash();
    for (auto &[pmo, log] : logs_) {
        (void)pmo;
        log->abortVolatile();
    }
    for (auto &[pmo, log] : redoLogs_) {
        (void)pmo;
        log->abortVolatile();
    }
}

} // namespace pm
} // namespace terp
