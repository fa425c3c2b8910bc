/**
 * @file
 * The protection runtime — the paper's primary contribution glued
 * together: EW-conscious attach/detach semantics realized with the
 * conditional-instruction + circular-buffer architecture (TT), and
 * the MERR baseline paths (MM, TM) for comparison.
 *
 * Workload code marks two kinds of protection points:
 *   - manualBegin/manualEnd: the coarse bookends a MERR programmer
 *     writes by hand;
 *   - regionBegin/regionEnd: the fine-grained points the TERP
 *     compiler inserts (regions bounded by the TEW target).
 * The runtime maps those markers onto real constructs according to
 * the configured scheme, charges all Table II costs to the calling
 * thread, and records exposure windows.
 */

#ifndef TERP_CORE_RUNTIME_HH
#define TERP_CORE_RUNTIME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/circular_buffer.hh"
#include "arch/mpk.hh"
#include "arch/perm_matrix.hh"
#include "core/config.hh"
#include "metrics/registry.hh"
#include "pm/pmo_manager.hh"
#include "semantics/ew_tracker.hh"
#include "sim/machine.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace pm {
class PersistDomain;
class TxManager;
} // namespace pm
namespace core {

/** Result of a guarded region entry. */
enum class GuardResult
{
    Ok,      //!< region entered
    Blocked, //!< basic semantics: wait for the holder's detach
};

/** Outcome of a checked PMO access. */
enum class AccessOutcome
{
    Ok,
    NoMapping,     //!< PMO not attached: segmentation fault
    NoProcessPerm, //!< permission matrix denies the access
    NoThreadPerm,  //!< calling thread's permission is closed
};

const char *accessOutcomeName(AccessOutcome o);

/** Aggregate report of one protected run. */
struct OverheadReport
{
    Cycles work = 0;
    Cycles attach = 0;
    Cycles detach = 0;
    Cycles rand = 0;
    Cycles cond = 0;
    Cycles other = 0;
    Cycles total = 0;

    std::uint64_t attachSyscalls = 0;
    std::uint64_t detachSyscalls = 0;
    std::uint64_t randomizations = 0;
    std::uint64_t condOps = 0;
    /** Region entries that nested inside an already-held region. */
    std::uint64_t nestedRegions = 0;
    double silentFraction = 0.0;
};

/**
 * The runtime. One instance per simulated process/run; owns the
 * protection hardware state and the exposure tracker.
 */
class Runtime
{
  public:
    Runtime(sim::Machine &machine, pm::PmoManager &pmos,
            const RuntimeConfig &config);

    ~Runtime();

    Runtime(const Runtime &) = delete;

    /**
     * Take @p o's state: its config, protection hardware, exposure
     * tracker, and copies of its trace sink, metrics registry and
     * transaction manager, written into the ones this runtime holds.
     * This runtime keeps its machine, PMO manager and persistence
     * domain (its owner assigns those from o's), and every pointer
     * among its parts stays bound to its own. A tracker with a close
     * hook is not copied.
     */
    Runtime &operator=(const Runtime &o);

    const RuntimeConfig &config() const { return cfg; }

    // ---- protection constructs -------------------------------------

    /** Manual (MERR-style) bookends; no-ops unless the scheme is MM. */
    void manualBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                     pm::Mode mode);
    void manualEnd(sim::ThreadContext &tc, pm::PmoId pmo);

    /**
     * Compiler-inserted region entry; no-op unless autoInsertion().
     * May return Blocked under the basic-semantics ablation, in
     * which case the thread has been blocked and the caller must
     * retry after being woken.
     */
    GuardResult regionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                            pm::Mode mode);
    void regionEnd(sim::ThreadContext &tc, pm::PmoId pmo);

    // ---- data access ------------------------------------------------

    /** Checked, timed PMO access. */
    AccessOutcome tryAccess(sim::ThreadContext &tc, const pm::Oid &oid,
                            bool write);

    /**
     * Checked, timed access through a raw virtual address — the path
     * an attacker-injected pointer takes. Fails with NoMapping when
     * the address is not covered by any attached PMO (e.g. a stale
     * pre-randomization address).
     */
    AccessOutcome tryAccessVaddr(sim::ThreadContext &tc,
                                 std::uint64_t vaddr, bool write);

    /** Checked access that must succeed (panics on a fault). */
    void access(sim::ThreadContext &tc, const pm::Oid &oid, bool write);

    /**
     * Convenience: sequentially access @p bytes starting at @p oid
     * at cache-line granularity (one timed access per line).
     */
    void accessRange(sim::ThreadContext &tc, const pm::Oid &oid,
                     std::uint64_t bytes, bool write);

    // ---- periodic hardware hook --------------------------------------

    /**
     * The sweeper tick (Fig 7a). Call from the Machine's periodic
     * hook. Applies delayed detaches and forced randomizations.
     */
    void onSweep(Cycles now);

    /**
     * The earliest boundary at which onSweep() could detach or
     * re-randomize a PMO (a lower bound: it may find nothing there).
     * A tick before it only counts. For TT, the circular buffer's
     * oldest live window plus the target; for the MERR-architecture
     * schemes, the oldest mapped PMO's last real attach plus the
     * target; never for the unprotected scheme or while nothing is
     * live.
     */
    Cycles nextSweepAction() const;

    /**
     * @p k ticks before nextSweepAction(), as one: the counters and
     * gauge that k onSweep() calls would leave, and nothing else.
     */
    void idleSweeps(std::uint64_t k);

    /**
     * End of run: closeWindows(), then the one roll-up of the run's
     * counters and gauges into the registry. Idempotent.
     */
    void finalize();

    /**
     * Close any still-open exposure windows at the latest thread
     * clock, publishing nothing else: all a crash point's audit reads
     * (the tracker and its exposure.* histograms).
     */
    void closeWindows();

    // ---- crash / recovery --------------------------------------------

    /**
     * Register the persistence domain crash()/recover() operate on.
     * The domain is owned by the caller and must outlive the
     * runtime. Also instantiates the domain's pm::TxManager, so
     * attaching persistence is all it takes for threads (and
     * terp-serve sessions) to issue multi-op transactions via tx().
     */
    void attachPersistence(pm::PersistDomain *domain);
    pm::PersistDomain *persistence() { return dom; }

    /** The transaction manager; null until attachPersistence(). */
    pm::TxManager *tx() { return txm.get(); }

    /**
     * Modeled power failure at time @p at (use the max thread clock
     * so exposure windows never close backwards). All volatile
     * protection state is lost at once: thread permissions, the
     * permission matrix, address-space mappings, circular-buffer
     * residency, region nesting, and blocked waiters. Nobody is
     * charged — power failures don't run syscalls. Host-side
     * measurement state (counters, traces, cache models) survives:
     * it belongs to the experiment, not the machine. Emits a Crash
     * event plus the matching window-closing events so the trace
     * audit stays balanced.
     */
    void crash(Cycles at);

    /**
     * Post-crash recovery pass, run on @p tc (the recovery process's
     * thread): every registered PMO whose durable undo log holds an
     * in-flight transaction is attached (full Table II cost), rolled
     * back, and left for the scheme's normal idle path — the
     * EW-conscious sweeper — to close, so recovery exposure obeys
     * the same window target as any other. PMOs whose redo log holds
     * a durable commit record are rolled *forward* the same way (the
     * commit landed; only the in-place apply may be torn). Returns
     * the number of PMOs recovered.
     */
    unsigned recover(sim::ThreadContext &tc);

    // ---- reporting ---------------------------------------------------

    OverheadReport report() const;
    const semantics::EwTracker &exposure() const { return ew; }
    /**
     * Mutable tracker access for the provenance annotation hooks
     * (tenant labels, hold/idle cause overrides, energy-dark marks,
     * close hooks). The serve and energy layers use this; the hooks
     * only affect attribution, never window accounting.
     */
    semantics::EwTracker &exposureMut() { return ew; }
    const arch::CircularBuffer &circularBuffer() const { return cb; }

    /**
     * The event sink, shared so it can outlive the runtime (run
     * results keep it for export/audit). Null unless
     * config.traceEnabled.
     */
    const std::shared_ptr<trace::TraceSink> &traceSink() const
    {
        return sink;
    }

    /**
     * The run's metrics registry, shared so run results can keep it
     * past the runtime's lifetime. Null when metrics are disabled
     * (config.metricsEnabled=false). Exposure histograms stream in
     * live; the counter/gauge roll-up (runtime/cb/pm/sim groups) lands
     * at finalize().
     */
    std::shared_ptr<metrics::Registry> metricsRegistry() const
    {
        return reg;
    }

    /** Is the PMO currently mapped? */
    bool mapped(pm::PmoId pmo) const;

    /** The PMO manager this runtime protects. */
    pm::PmoManager &pmoManager() { return pm_; }
    const pm::PmoManager &pmoManager() const { return pm_; }

    /** Does the thread hold open permission (TT schemes)? */
    bool threadHolds(unsigned tid, pm::PmoId pmo) const;

  private:
    sim::Machine &mach;
    pm::PmoManager &pm_;
    RuntimeConfig cfg;

    std::shared_ptr<trace::TraceSink> sink; //!< null = tracing off
    /**
     * Metrics registry and cached hot-path instruments (null when
     * metrics are off, mirroring the trace sink's null-check
     * pattern). Instruments record host-side state only — they
     * never charge simulated cycles — so enabling them cannot
     * perturb simulation results.
     */
    std::shared_ptr<metrics::Registry> reg;

    arch::CircularBuffer cb;
    arch::ThreadDomains domains;
    arch::PermissionMatrix matrix;
    semantics::EwTracker ew;
    pm::PersistDomain *dom = nullptr; //!< null = no crash/recovery
    std::unique_ptr<pm::TxManager> txm; //!< created with dom

    // Hot-path instruments, by registry Id (valid while reg is set;
    // a copied registry keeps them).
    metrics::Registry::Id mSweepTicks = metrics::Registry::noId;
    metrics::Registry::Id mSweepForceDetach = metrics::Registry::noId;
    metrics::Registry::Id mSweepRandomize = metrics::Registry::noId;
    /**
     * Mapped PMOs examined by MERR sweeper ticks. host.* namespace:
     * it measures simulator work (the O(active) tick guarantee the
     * scan-count test asserts), not simulated behaviour, and host
     * instruments stay out of the posture goldens.
     */
    metrics::Registry::Id mSweepPmoScans = metrics::Registry::noId;
    metrics::Registry::Id mCbOccupancy = metrics::Registry::noId; //!< TT
    metrics::Registry::Id mSweepTickNs = metrics::Registry::noId;
    std::uint64_t sweepTickSeq = 0;

    /** Bump counter @p id (no-op when metrics are off). */
    void
    bump(metrics::Registry::Id id)
    {
        if (reg)
            reg->counterAt(id).inc();
    }

    /** Final counter/gauge roll-up into the registry (finalize()). */
    void publishMetrics();

    /**
     * Table 3's silent-vs-full split of the scheme's protection
     * operations: the integer operands of report().silentFraction,
     * which publishMetrics() exports as runtime.silent_ops/full_ops.
     */
    struct SilentSplit
    {
        std::uint64_t silent = 0, full = 0;
    };
    SilentSplit silentSplit() const;

    /**
     * Counters bumped on the region-entry/exit and syscall paths.
     * These fire millions of times per run, so they are a dense
     * enum-indexed array; report() and publishMetrics() read them.
     */
    enum Counter : unsigned
    {
        ctrAttachSyscalls,
        ctrDetachSyscalls,
        ctrRandomizations,
        ctrCondOps,
        ctrNestedRegions,
        ctrCondSilentNocb,
        ctrCondFullNocb,
        ctrPermSyscalls,
        ctrBasicBlocks,
        numCounters,
    };
    std::uint64_t ctr[numCounters] = {};

    /** Software view of mapped PMOs (for schemes without the CB). */
    struct MapState
    {
        bool mapped = false;
        Cycles lastRealAttach = 0;
        unsigned holders = 0; //!< threads inside regions (TM/ablation)
        unsigned ownerTid = 0; //!< basic-semantics exclusive owner
        pm::Mode grantedMode = pm::Mode::None;
        /**
         * Generation counter, bumped on every sweeper-relevant
         * mutation (attach, detach, window reopen — i.e. every write
         * of `mapped` or `lastRealAttach`). The sweeper caches the
         * EW deadline below and revalidates it only when the
         * generation moved, so a tick over a PMO untouched since the
         * last scan is a single cached compare. gen starts ahead of
         * scanGen so the first scan always refreshes.
         */
        std::uint32_t gen = 1;
        std::uint32_t scanGen = 0;
        Cycles sweepDeadline = 0; //!< lastRealAttach + ewTarget
    };
    /**
     * Indexed by PmoId (small sequential ints); a default-initialized
     * entry (mapped=false, holders=0) is indistinguishable from a PMO
     * the old std::map had never seen, and iterating the vector
     * visits PMOs in the same ascending-id order the map did.
     */
    std::vector<MapState> maps;
    MapState &mapState(pm::PmoId pmo);

    /**
     * Dense active-set index over `maps`: bit pmo is set iff
     * maps[pmo].mapped. The sweeper and crash paths iterate set bits
     * (ascending, so visit order matches the plain vector walk), so
     * an idle fleet tick is O(mapped PMOs) rather than O(all PMOs
     * ever seen). Grown in lockstep with `maps` by mapState().
     */
    std::vector<std::uint64_t> mappedBits;
    void
    setMappedBit(pm::PmoId pmo, bool on)
    {
        std::uint64_t &w = mappedBits[pmo >> 6];
        const std::uint64_t bit = 1ULL << (pmo & 63);
        w = on ? (w | bit) : (w & ~bit);
    }

    /**
     * Per-thread region nesting depth, dense [tid][pmo]. Dynamic
     * nesting arises from function composition (a callee with its
     * own pairs invoked inside a caller's pair); the EW-conscious
     * lowering makes inner pairs silent, so only the 0->1 / 1->0
     * transitions touch the permission hardware.
     */
    std::vector<std::vector<unsigned>> regionDepth;
    unsigned &depthSlot(unsigned tid, pm::PmoId pmo);

    bool finalized = false;

    // Implementation helpers.
    void doRealAttach(sim::ThreadContext &tc, pm::PmoId pmo,
                      pm::Mode mode);
    void doRealDetach(sim::ThreadContext &tc, pm::PmoId pmo);
    /**
     * Real detach with optional cycle attribution: with @p tc null
     * (post-run drain, no live thread) the mapping/tracker work is
     * done at time @p at and nobody is charged.
     */
    void doRealDetachAt(sim::ThreadContext *tc, pm::PmoId pmo,
                        Cycles at);
    void doRandomize(pm::PmoId pmo, Cycles at);
    /**
     * The protected-access fault ladder for @p vaddr in the attached
     * PMO @p p: matrix mapping, then matrix process permission, then
     * thread permission. Emits AccessFault on the first rung that
     * fails.
     */
    AccessOutcome checkAccess(sim::ThreadContext &tc, const pm::Pmo &p,
                              std::uint64_t vaddr, bool write);
    /** Emit AccessFault(@p out) for @p pmo; @return @p out. */
    AccessOutcome accessFault(sim::ThreadContext &tc, pm::PmoId pmo,
                              AccessOutcome out);
    void grantThread(sim::ThreadContext &tc, pm::PmoId pmo,
                     pm::Mode mode);
    void revokeThread(sim::ThreadContext &tc, pm::PmoId pmo);
    /** Earliest-clock live thread, or null when every thread done. */
    sim::ThreadContext *minClockThread();

    void ttRegionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                       pm::Mode mode);
    void ttRegionEnd(sim::ThreadContext &tc, pm::PmoId pmo);
    void tmRegionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                       pm::Mode mode);
    void tmRegionEnd(sim::ThreadContext &tc, pm::PmoId pmo);
    GuardResult basicRegionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                                 pm::Mode mode);
    void basicRegionEnd(sim::ThreadContext &tc, pm::PmoId pmo);

    /** Emit on the calling thread's track (no-op when tracing off). */
    void
    emit(const sim::ThreadContext &tc, trace::EventKind k,
         pm::PmoId pmo, std::uint64_t arg = 0)
    {
        if (sink)
            sink->emit(tc.tid(), k, tc.now(), pmo, arg);
    }

    /** Emit on the sweeper pseudo-track at an explicit time. */
    void
    emitSweeper(trace::EventKind k, Cycles ts, pm::PmoId pmo,
                std::uint64_t arg = 0)
    {
        if (sink)
            sink->emit(trace::TraceSink::sweeperTid, k, ts, pmo, arg);
    }
};

/**
 * RAII helper for a compiler-inserted region. Under the
 * basic-blocking ablation the entry may return Blocked; the
 * cooperative simulator cannot yield inside a constructor, so the
 * guard records that the region was never entered, skips the end in
 * its destructor, and exposes entered() so the caller can bail out
 * (and retry after the scheduler wakes the thread).
 */
class RegionGuard
{
  public:
    RegionGuard(Runtime &rt, sim::ThreadContext &tc, pm::PmoId pmo,
                pm::Mode mode)
        : runtime(rt), thread(tc), id(pmo),
          didEnter(rt.regionBegin(tc, pmo, mode) != GuardResult::Blocked)
    {
    }

    ~RegionGuard()
    {
        if (didEnter)
            runtime.regionEnd(thread, id);
    }

    /** False when the begin blocked and the region was not entered. */
    bool entered() const { return didEnter; }

    RegionGuard(const RegionGuard &) = delete;
    RegionGuard &operator=(const RegionGuard &) = delete;

  private:
    Runtime &runtime;
    sim::ThreadContext &thread;
    pm::PmoId id;
    bool didEnter;
};

} // namespace core
} // namespace terp

#endif // TERP_CORE_RUNTIME_HH
