/**
 * @file
 * Crash-consistency substrate for PMOs.
 *
 * The PMO abstraction the paper builds on requires crash consistency
 * ("a PMO remains in a consistent state even upon software crashes
 * or system power failures", Section II). This module models the
 * x86-style persistence path — stores land in volatile caches and
 * only become durable after an explicit cache-line write-back (CLWB)
 * followed by a store fence (SFENCE) — plus an undo-log transaction
 * layer on top.
 *
 * The PersistController keeps one image, the volatile view every
 * access sees, plus a side table (a ProbeTable of SideLine, keyed by
 * line) of the lines that are not yet durable, which holds the
 * durable value of each word stored in them. The persisted view,
 * what survives a crash(), is the image overlaid with the table.
 * Recovery rolls incomplete transactions back from the persisted
 * undo log. The undo and redo logs index an open transaction's write
 * set with the same table, and empty it whole with its O(1) clear().
 */

#ifndef TERP_PM_PERSIST_HH
#define TERP_PM_PERSIST_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "pm/mem_image.hh"
#include "pm/oid.hh"
#include "pm/probe_table.hh"
#include "sim/thread.hh"

namespace terp {
namespace pm {

/** Cache-line key of a word address. */
inline std::uint64_t
lineKeyOf(std::uint64_t addr)
{
    return addr & ~(lineSize - 1);
}

/**
 * Crash-point taxonomy: the persist-boundary events a fault plan can
 * interrupt. Every durability-relevant transition of the substrate
 * is exactly one of these, so enumerating boundaries 1..N covers
 * every distinguishable crash window of a run.
 */
enum class PersistBoundary : std::uint8_t
{
    Store,     //!< a store became visible in the volatile image
    Clwb,      //!< a cache-line write-back was issued
    Sfence,    //!< a fence drained pending write-backs durable
    LogHeader, //!< an undo-log header update is about to start
};

const char *persistBoundaryName(PersistBoundary b);

/**
 * Thrown by an armed FaultPlan at its trigger boundary, after the
 * controller performed the modeled power failure (crash()). Not a
 * TERP_ASSERT/logic_error: a planned power failure is an injected
 * event, not an invariant violation.
 */
class PowerFailure : public std::runtime_error
{
  public:
    PowerFailure(std::uint64_t boundary_, PersistBoundary kind_);

    std::uint64_t boundary; //!< 1-based index of the fatal boundary
    PersistBoundary kind;   //!< what the boundary would have been
};

/**
 * A line that is not yet durable, the value of the controller's side
 * table under the line's key. It holds, for every word stored since
 * the line was last durable, the word's durable value (old) and,
 * while the line is pending, the value its CLWB captured for a word
 * stored again afterwards (wb). Together with the volatile image the
 * side table is the whole persistence state: a word without a record
 * is durable as it stands.
 */
struct SideLine
{
    /** One word stored since its line was last durable. */
    struct Word
    {
        std::uint64_t addr;
        std::uint64_t old; //!< durable value
        std::uint64_t wb;  //!< value the pending write-back holds
        bool hasWb;        //!< stored again after the line's CLWB
    };

    bool dirty = false;   //!< stored since its last CLWB
    bool pending = false; //!< CLWB issued, not yet fenced
    std::vector<Word> words;
};

/**
 * Models the volatile-cache / persistent-media boundary at
 * cache-line granularity.
 *
 * Fault injection: armFault(n) plants a modeled power failure at the
 * n-th persist-boundary event (1-based, counted from controller
 * construction). The fatal boundary never takes effect — the crash
 * happens *before* it — so "crash after boundary k" is the same
 * point as "crash before boundary k+1" and enumerating n = 1..B
 * (B = boundaryCount() of an uninterrupted run) covers every crash
 * window exactly once. A plan with a tap (tapFaults) does not crash:
 * it hands each armed boundary to the tap, which may copy the world
 * there and crash the copy, and the run carries on.
 */
class PersistController
{
  public:
    /** Cost of one CLWB issue (cycles). */
    static constexpr Cycles clwbCost = 5;
    /** Cost per line drained by an SFENCE (NVM write bandwidth). */
    static constexpr Cycles drainCostPerLine = 100;

    /** A store: visible immediately, durable only after clwb+fence. */
    void store(Oid oid, std::uint64_t value);

    /** Read the volatile view. */
    std::uint64_t load(Oid oid) const;

    /** Read the persisted view (what a crash would preserve). */
    std::uint64_t persistedLoad(Oid oid) const;

    /** CLWB: schedule the line holding @p oid for write-back. */
    void clwb(sim::ThreadContext &tc, Oid oid);

    /** SFENCE: block until all scheduled write-backs are durable. */
    void sfence(sim::ThreadContext &tc);

    /** Convenience: store + clwb + (deferred) fence by the caller. */
    void persistentStore(sim::ThreadContext &tc, Oid oid,
                         std::uint64_t value);

    /**
     * Power failure: every word in the side table gets its durable
     * value back in the volatile image; scheduled-but-unfenced
     * write-backs are lost.
     */
    void crash();

    /** The lines not yet durable, keyed by line address. */
    const ProbeTable<SideLine> &sideTable() const { return side; }

    std::uint64_t clwbCount() const { return nClwb; }
    std::uint64_t fenceCount() const { return nFence; }

    // ---- fault plan ---------------------------------------------------

    /** Crash before the @p nth boundary (1-based, from creation). */
    void armFault(std::uint64_t nth);
    /** Cancel a pending fault plan (e.g. before recovery persists). */
    void disarmFault() { faultAt = 0; }
    bool faultArmed() const { return faultAt != 0; }

    /** Called with a tapped boundary's index and kind. */
    using FaultTap = std::function<void(std::uint64_t, PersistBoundary)>;

    /**
     * Instead of crashing, call @p tap before every boundary from the
     * next one on. For the call the plan is disarmed and untapped, as
     * crash() would find it, so a copy of the controller made in the
     * tap crashes like the original would have; the boundary then
     * takes effect as usual.
     */
    void tapFaults(FaultTap tap);
    bool tapped() const { return static_cast<bool>(tap); }
    /** Boundaries counted so far (B of a finished baseline run). */
    std::uint64_t boundaryCount() const { return nBoundary; }

    /**
     * Record a boundary event of kind @p k; fires the fault plan
     * when armed. UndoLog calls this with LogHeader ahead of header
     * updates; the substrate itself notes Store/Clwb/Sfence.
     */
    void noteBoundary(PersistBoundary k);

  private:
    MemImage vol;                //!< what loads see
    ProbeTable<SideLine> side;   //!< lines not yet durable
    //! lines with a write-back issued but not yet fenced.
    std::vector<std::uint64_t> pendingList;
    std::uint64_t nClwb = 0;
    std::uint64_t nFence = 0;
    std::uint64_t nBoundary = 0; //!< persist-boundary events seen
    std::uint64_t faultAt = 0;   //!< fatal boundary; 0 = disarmed
    FaultTap tap;                //!< null: the plan crashes

    /** The armed boundary is here: tap, or crash and throw. */
    void fireFault(PersistBoundary k);
};

/**
 * A classic undo-log giving single-threaded transactional updates to
 * one PMO: old values are persisted to a log region before the data
 * is touched; recovery after a crash rolls back any transaction
 * whose commit record never became durable.
 */
class UndoLog
{
  public:
    /**
     * @param pc      The persistence controller.
     * @param pmo     The PMO being protected.
     * @param log_off Offset of the log region inside the PMO.
     */
    UndoLog(PersistController &pc, PmoId pmo,
            std::uint64_t log_off);


    /** Begin a transaction (must not be nested). */
    void begin(sim::ThreadContext &tc);

    /** Transactional store: logs the old value first. */
    void write(sim::ThreadContext &tc, Oid oid, std::uint64_t value);

    /** Commit: persist data, then mark the log invalid. */
    void commit(sim::ThreadContext &tc);

    /**
     * Abort: restore every logged location to its logged (oldest)
     * value in the volatile image, then durably invalidate the log.
     * The durable data was never touched — data write-backs happen
     * only at commit — so the restores are plain stores; the restored
     * values already equal the durable ones and no write-back is
     * owed. The restores are unconditional (no compare-and-skip):
     * abort cost must be a function of the write-set shape only,
     * never of the data values, so the spec oracle can predict it.
     */
    void abort(sim::ThreadContext &tc);

    /**
     * After a crash: undo any uncommitted transaction. Returns the
     * number of durable log entries examined (0 = log was clean).
     */
    std::uint64_t recover(sim::ThreadContext &tc);

    bool inTransaction() const { return active; }

    /** The PMO this log protects. */
    PmoId pmoId() const { return pmo; }

    /**
     * Does the durable image hold an in-flight (uncommitted)
     * transaction that recover() would roll back?
     */
    bool recoveryPending() const;

    /**
     * Drop the volatile transaction state without touching the
     * durable log — what a power failure does to the DRAM-side
     * write-set. The durable header still marks the transaction
     * in-flight; recover() rolls it back.
     */
    void abortVolatile();

    // Lifetime totals (monotonic; survive commit/abort/recovery —
    // the metrics exporter reads them once at finalize).

    /** Bytes of undo records ever appended (16 per entry). */
    std::uint64_t bytesLogged() const { return nBytesLogged; }
    /** Undo records ever appended. */
    std::uint64_t entriesLogged() const { return nEntriesLogged; }
    /** recover() calls that found a transaction to roll back. */
    std::uint64_t rollbacks() const { return nRollbacks; }
    /** Durable entries examined across all rollbacks. */
    std::uint64_t entriesRolledBack() const
    {
        return nEntriesRolledBack;
    }
    /** Explicit abort() calls (not crashes). */
    std::uint64_t aborts() const { return nAborts; }

  private:
    // Copied only by a PersistDomain, which binds the copy to its own
    // controller.
    friend class PersistDomain;
    UndoLog(const UndoLog &) = default;
    UndoLog &operator=(const UndoLog &) = default;

    PersistController *ctl;
    PmoId pmo;
    std::uint64_t logOff;
    bool active = false;
    std::uint64_t entries = 0;
    std::uint64_t nBytesLogged = 0;
    std::uint64_t nEntriesLogged = 0;
    std::uint64_t nRollbacks = 0;
    std::uint64_t nEntriesRolledBack = 0;
    std::uint64_t nAborts = 0;
    /**
     * DRAM-side write-set of the open transaction: the raw Oid of
     * every *distinct* logged location, in log order. write()
     * dedupes repeated stores to one location through `logged` (one
     * undo record per location is enough — the log keeps the oldest
     * value) and commit() walks it instead of re-reading the log
     * through volatile loads.
     */
    std::vector<std::uint64_t> writeSet;
    //! writeSet's locations; at commit, its lines
    ProbeTable<std::uint32_t> logged;

    Oid headerOid() const { return Oid(pmo, logOff); }
    Oid entryOid(std::uint64_t i, unsigned word) const
    {
        return Oid(pmo, logOff + 64 + i * 16 + word * 8);
    }
};

/**
 * A redo log: new values are buffered in the log region and applied
 * to the data in place only after a durable commit record lands.
 *
 * Protocol (mirrors the undo log's layout: header word at logOff =
 * count of committed entries, 0 = clean; entries are (address raw,
 * new value) pairs at logOff + 64 + i*16):
 *
 *  - begin: volatile arming only — no persist traffic, the durable
 *    header is already 0 from construction/last retire.
 *  - write: append (or update in place) a redo record and CLWB it;
 *    no fence. The data image — volatile or durable — is untouched,
 *    so an abort is nearly free and a crash discards the
 *    transaction (durable header still 0).
 *  - commit: SFENCE (drain the records durable), persist header = n
 *    and fence — THE durable point — then apply the buffered values
 *    to the data in place, write back each distinct data line, fence,
 *    and durably retire the header to 0.
 *  - recover: header != 0 means the commit record landed but the
 *    in-place apply may be torn; roll *forward* (idempotent) and
 *    retire the header.
 *
 * Compared to undo: writes cost one unfenced CLWB instead of two
 *  fenced persists (cheap speculation), commit pays the deferred
 * drain of every record plus the data write-back (expensive durable
 * point), and until commit the transaction reads its own writes out
 * of the DRAM-side buffer, not the data image.
 */
class RedoLog
{
  public:
    RedoLog(PersistController &pc, PmoId pmo,
            std::uint64_t log_off);


    /** Begin a transaction (must not be nested). Zero charge. */
    void begin(sim::ThreadContext &tc);

    /** Buffer a transactional store (record persisted, unfenced). */
    void write(sim::ThreadContext &tc, Oid oid, std::uint64_t value);

    /**
     * Read-your-writes lookup: true and sets @p value if @p oid was
     * written by the open transaction (the data image still holds
     * the pre-transaction value until commit).
     */
    bool lookup(Oid oid, std::uint64_t &value) const;

    /** Commit: durable commit record, then in-place apply. */
    void commit(sim::ThreadContext &tc);

    /**
     * Abort: discard the buffered write-set. The data was never
     * touched; one fence retires the records' pending write-backs
     * (when any were issued) so the log region owes the controller
     * nothing afterwards.
     */
    void abort(sim::ThreadContext &tc);

    /**
     * After a crash: if a durable commit record is present, roll the
     * transaction *forward* (the apply may have torn) and retire the
     * log. Returns the number of durable entries applied (0 = clean:
     * an uncommitted redo transaction simply evaporates).
     */
    std::uint64_t recover(sim::ThreadContext &tc);

    /** Does the durable image hold a committed-but-unapplied log? */
    bool recoveryPending() const;

    bool inTransaction() const { return active; }
    PmoId pmoId() const { return pmo; }

    /** Power failure: drop the DRAM-side write-set. */
    void abortVolatile();

    // Lifetime totals, as for UndoLog.
    std::uint64_t bytesLogged() const { return nBytesLogged; }
    std::uint64_t entriesLogged() const { return nEntriesLogged; }
    /** recover() calls that found a commit record to roll forward. */
    std::uint64_t rollForwards() const { return nRollForwards; }
    std::uint64_t entriesApplied() const { return nEntriesApplied; }
    std::uint64_t aborts() const { return nAborts; }

  private:
    // Copied only by a PersistDomain, which binds the copy to its own
    // controller.
    friend class PersistDomain;
    RedoLog(const RedoLog &) = default;
    RedoLog &operator=(const RedoLog &) = default;

    PersistController *ctl;
    PmoId pmo;
    std::uint64_t logOff;
    bool active = false;
    //! (raw Oid, new value) in log order; one slot per location.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buf;
    //! raw Oid -> its index in buf; at commit, buf's distinct lines
    ProbeTable<std::uint32_t> positions;
    std::uint64_t nBytesLogged = 0;
    std::uint64_t nEntriesLogged = 0;
    std::uint64_t nRollForwards = 0;
    std::uint64_t nEntriesApplied = 0;
    std::uint64_t nAborts = 0;

    Oid headerOid() const { return Oid(pmo, logOff); }
    Oid entryOid(std::uint64_t i, unsigned word) const
    {
        return Oid(pmo, logOff + 64 + i * 16 + word * 8);
    }
};

/**
 * One process's persistence context: the controller plus the undo
 * log of every PMO opened transactionally. Runtime::recover() walks
 * the registry after a modeled power failure so every registered
 * PMO is rolled back to its last committed image.
 */
class PersistDomain
{
  public:
    PersistDomain() = default;
    PersistDomain(const PersistDomain &) = delete;
    /**
     * Take @p o's controller and logs, written into the ones this
     * domain holds; every log writes through this domain's controller.
     */
    PersistDomain &operator=(const PersistDomain &o);

    PersistController &controller() { return ctl; }
    const PersistController &controller() const { return ctl; }

    /**
     * The undo log of @p pmo, created on first use with its log
     * region at @p log_off. Reopening must use the same offset (the
     * log location is part of the PMO's layout).
     */
    UndoLog &openLog(PmoId pmo, std::uint64_t log_off);

    /** The registered log of @p pmo, or null. */
    UndoLog *findLog(PmoId pmo);

    /** Registered logs, ascending PmoId (recovery walk order). */
    const std::map<PmoId, std::unique_ptr<UndoLog>> &logs() const
    {
        return logs_;
    }

    /**
     * The redo log of @p pmo, created on first use with its log
     * region at @p log_off (must not overlap the undo region).
     */
    RedoLog &openRedoLog(PmoId pmo, std::uint64_t log_off);

    /** Registered redo logs, ascending PmoId. */
    const std::map<PmoId, std::unique_ptr<RedoLog>> &redoLogs() const
    {
        return redoLogs_;
    }

    /**
     * Modeled power failure over the whole domain: volatile images
     * and every log's DRAM-side write-set are lost; durable state
     * (including in-flight log records) survives for recovery.
     */
    void crash();

  private:
    /** Make @p to a copy of @p from, every log bound to ctl. */
    template <class Log>
    void assignLogs(std::map<PmoId, std::unique_ptr<Log>> &to,
                    const std::map<PmoId, std::unique_ptr<Log>> &from);

    PersistController ctl;
    std::map<PmoId, std::unique_ptr<UndoLog>> logs_;
    std::map<PmoId, std::unique_ptr<RedoLog>> redoLogs_;
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_PERSIST_HH
