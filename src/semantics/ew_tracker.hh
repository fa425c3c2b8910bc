/**
 * @file
 * Exposure-window bookkeeping (Definition 5 of the paper).
 *
 * Tracks, per PMO, the process-level exposure windows (EW: the PMO is
 * mapped in the address space) and per-thread exposure windows (TEW:
 * a specific thread holds access permission), and derives the
 * metrics the evaluation tables report:
 *   EW avg/max, ER = sum(EW)/total time,
 *   TEW avg,    TER = sum(TEW)/(total time * threads).
 */

#ifndef TERP_SEMANTICS_EW_TRACKER_HH
#define TERP_SEMANTICS_EW_TRACKER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/units.hh"
#include "metrics/metric.hh"
#include "metrics/registry.hh"
#include "pm/oid.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace semantics {

/**
 * Why an exposure window was open during a span of cycles. Every
 * closed window decomposes into blame segments whose lengths sum
 * bit-exactly to the window's EW contribution; the taxonomy is the
 * provenance layer's contract with the report/alerting side.
 */
enum class BlameCause : std::uint8_t
{
    AppHold,        //!< a thread (or manual/basic span) held it open
    SweeperLag,     //!< idle past the EW deadline, sweeper hasn't acted
    QueueWait,      //!< serve: open while requests queued for its tenant
    SlowClientHold, //!< serve: a slow client sat inside its window
    RecoveryReopen, //!< window reopened by the post-crash recovery pass
    TxnLockWait,    //!< held up by transaction lock contention
    EnergyDark,     //!< energy harvesting: sweeper gated off (dark/brownout)
    NumCauses,
};

constexpr unsigned numBlameCauses =
    static_cast<unsigned>(BlameCause::NumCauses);

/** Stable snake_case name (metric label value / trace decoding). */
const char *blameCauseName(BlameCause c);

/** Aggregated exposure metrics for one PMO (or averaged over all). */
struct ExposureMetrics
{
    double ewAvgUs = 0;   //!< mean exposure-window length
    double ewMaxUs = 0;   //!< max exposure-window length
    double er = 0;        //!< exposure rate (fraction of time mapped)
    double tewAvgUs = 0;  //!< mean thread exposure window
    double tewMaxUs = 0;  //!< max thread exposure window
    double ter = 0;       //!< thread exposure rate
    std::uint64_t ewCount = 0;
    std::uint64_t tewCount = 0;
};

/** Records open/close events and summarizes exposure windows. */
class EwTracker
{
  public:
    EwTracker() = default;

    /**
     * A copy, or an assignment, takes every member, instrument
     * handles and bindings included. The handles are registry Ids, so
     * they stay good in a copy of the registry; rebind() points the
     * copy at that registry and its own sink. A close hook belongs to
     * its installer, so a tracker that has one is not copied (the
     * Runtime that copies trackers checks hasCloseHook()).
     */
    EwTracker(const EwTracker &) = default;
    EwTracker &operator=(const EwTracker &) = default;

    /** The PMO became mapped (real attach) at time @p t. */
    void processOpen(pm::PmoId pmo, Cycles t);

    /** The PMO became unmapped (real detach) at time @p t. */
    void processClose(pm::PmoId pmo, Cycles t);

    /** Thread @p tid gained access permission at time @p t. */
    void threadOpen(unsigned tid, pm::PmoId pmo, Cycles t);

    /** Thread @p tid lost access permission at time @p t. */
    void threadClose(unsigned tid, pm::PmoId pmo, Cycles t);

    /** Close any windows still open at the end of the run. */
    void finalize(Cycles t_end);

    /** True if the PMO is currently in an open process window. */
    bool processWindowOpen(pm::PmoId pmo) const;

    /**
     * Open time of the current process window (requires one open).
     * A crash can find a window the free-running sweeper reopened at
     * a wall-clock instant beyond every thread clock; closing such a
     * window at the crash instant would rewind time, so the crash
     * path clamps its close to this.
     */
    Cycles processOpenSince(pm::PmoId pmo) const;

    /** Open time of tid's current thread window (requires open). */
    Cycles threadOpenSince(unsigned tid, pm::PmoId pmo) const;

    /** Metrics for a single PMO. */
    ExposureMetrics metricsFor(pm::PmoId pmo, Cycles total,
                               unsigned threads) const;

    /** Metrics averaged over every PMO that had any window. */
    ExposureMetrics metricsAll(Cycles total, unsigned threads) const;

    /**
     * One past the largest PMO id the tracker holds state for: every
     * PMO it saw is below it (ewSummaryFor() is null for the others).
     */
    std::size_t pmoBound() const { return perPmo.size(); }

    /**
     * Raw closed-window summaries, in cycles, for exact differential
     * comparison (the trace auditor cross-checks these). Null if the
     * PMO was never seen.
     */
    const metrics::Summary *ewSummaryFor(pm::PmoId pmo) const;
    const metrics::Summary *tewSummaryFor(pm::PmoId pmo) const;

    /**
     * Publish every closed window into @p r as log-bucketed length
     * histograms: `exposure.ew_cycles{pmo="N"}` /
     * `exposure.tew_cycles{pmo="N"}` per PMO plus a `pmo="all"`
     * aggregate. The histograms' exact count/sum/min/max equal the
     * per-PMO Summaries cycle-for-cycle (only quantiles are
     * approximate), which is what lets the trace auditor hold the
     * registry to its replay (see metricsRegistry()). Pass null to
     * detach. Windows closed before the call are not backfilled, so
     * enable before the first event.
     *
     * Instruments are resolved on first use and kept as registry Ids,
     * so a window close builds no name string; an instrument still
     * appears in the registry only once something is recorded into
     * it. Calling this drops every kept handle.
     */
    void enableMetrics(metrics::Registry *r);

    /**
     * Publish into @p r and emit into @p s from here on, keeping
     * every instrument handle: @p r must hold, at each Id, the entry
     * the old registry held there (a copy of it, or itself).
     */
    void
    rebind(metrics::Registry *r, trace::TraceSink *s)
    {
        reg = r;
        sink = s;
    }

    /** The registry enableMetrics() publishes into; null if none. */
    const metrics::Registry *metricsRegistry() const { return reg; }

    /**
     * Exposure SLOs: count every closed window longer than the
     * threshold (0 disables that class). Violations are counted per
     * tracker — i.e. per shard domain — and, when metrics are
     * enabled, published as `exposure.slo_violations{win="ew"}` and
     * `{win="tew"}`; the serve layer's slow-client scenario is what
     * exercises the TEW counter past the sweeper horizon.
     */
    void
    setSlo(Cycles ew_slo, Cycles tew_slo)
    {
        sloEw = ew_slo;
        sloTew = tew_slo;
    }

    /** Closed process windows that exceeded the EW SLO. */
    std::uint64_t sloEwViolations() const { return ewViolations; }
    /** Closed thread windows that exceeded the TEW SLO. */
    std::uint64_t sloTewViolations() const { return tewViolations; }

    // ---- exposure provenance (blame) ---------------------------------
    //
    // Every open process window carries a cause segmentation: a list
    // of resolved [start, end) spans, each attributed to one
    // BlameCause. Cause-relevant state changes (thread grants and
    // revokes, hold/idle overrides, dark periods) flush the span up
    // to the event time; processClose resolves the tail, *truncates*
    // the list to the close time (per-thread clocks are not globally
    // monotone, so an earlier flush can extend past a sweeper's
    // close), and asserts that the segments tile the window exactly.
    // The bookkeeping is charge-free: it never touches thread clocks
    // and is always on, so enabling metrics cannot perturb results.

    /**
     * Idle windows older than openSince + target are blamed on
     * SweeperLag (the sweeper should have closed them). Set to the
     * scheme's ewTarget; 0 disables the deadline split.
     */
    void setBlameTarget(Cycles target) { blameTarget = target; }

    /**
     * Mark/unmark an exclusive span (manualBegin/manualEnd, basic
     * regions) that holds the window open without a thread-permission
     * grant, so blame sees it as held rather than idle.
     */
    void setExternalHold(pm::PmoId pmo, bool on, Cycles t);

    /**
     * Override the cause while the window is held (SlowClientHold,
     * TxnLockWait). Applies whether or not a thread window is open.
     */
    void setHoldCause(pm::PmoId pmo, BlameCause c, Cycles t);
    void clearHoldCause(pm::PmoId pmo, Cycles t);

    /** Override the cause while the window is idle (QueueWait). */
    void setIdleCause(pm::PmoId pmo, BlameCause c, Cycles t);
    void clearIdleCause(pm::PmoId pmo, Cycles t);

    /**
     * Sweeper gated off for energy (dark period / brownout): idle
     * spans are EnergyDark, not SweeperLag — the sweeper *couldn't*
     * act. Flushes every open window at @p t.
     */
    void setEnergyDark(bool on, Cycles t);

    /**
     * While set, newly opened windows blame their idle base on
     * RecoveryReopen instead of AppHold (the recovery pass reopened
     * them; the spill past the deadline is still SweeperLag).
     */
    void setRecoveryActive(bool on) { recovering = on; }

    /**
     * Drop per-PMO transient cause state (external holds, overrides)
     * — the crash path's reset; windows must already be closed.
     */
    void resetTransientCauses();

    /**
     * Label the PMO's tenant for per-tenant blame counters. Later
     * closes count toward the new tenant only.
     */
    void setTenant(pm::PmoId pmo, const std::string &tenant);

    /**
     * Emit each closed window's final (truncated) segments, in
     * window order, into @p s: one BlameSegment event per segment on
     * the sweeper track, at the segment's end, with the cause as its
     * argument, so the trace audit can recompute the attribution
     * independently. Null: none.
     */
    void setTraceSink(trace::TraceSink *s) { sink = s; }

    /**
     * Per-close window hook: (pmo, close time, window length). The
     * serve layer uses it to feed per-tenant SLO burn-rate windows.
     */
    using CloseHook = std::function<void(pm::PmoId, Cycles, Cycles)>;
    void setCloseHook(CloseHook h) { closeHook = std::move(h); }
    bool hasCloseHook() const { return static_cast<bool>(closeHook); }

    /** Total cycles blamed on @p c for @p pmo (closed windows). */
    Cycles blameTotal(pm::PmoId pmo, BlameCause c) const;
    /** Total cycles blamed on @p c across every PMO. */
    Cycles blameTotalAll(BlameCause c) const;

  private:
    /** Sentinel for "thread window not open". */
    static constexpr Cycles notOpen = ~Cycles(0);

    /** One resolved blame span; its start is the previous end. */
    struct BlameSeg
    {
        Cycles end;
        BlameCause cause;
    };

    /** A registry instrument; noId until its first record. */
    using Handle = metrics::Registry::Id;
    static constexpr Handle noId = metrics::Registry::noId;
    /** One handle per BlameCause. */
    using Handles = std::array<Handle, numBlameCauses>;
    static constexpr Handles
    noHandles()
    {
        Handles h{};
        h.fill(noId);
        return h;
    }

    /** Sentinel for "no cause override installed". */
    static constexpr std::uint8_t noCause = 0xFF;

    struct PerPmo
    {
        metrics::Summary ew;  //!< closed process windows
        metrics::Summary tew; //!< closed thread windows
        Cycles openSince = 0;
        bool open = false;
        bool seen = false; //!< any event ever recorded for this PMO
        /** Open-since time per tid; notOpen when closed. */
        std::vector<Cycles> threadOpenSince;

        // -- blame state for the current window --
        /** Resolved segments; seg[0] starts at openSince. */
        std::vector<BlameSeg> segs;
        /** Start of the not-yet-resolved tail span. */
        Cycles causeSince = 0;
        /** Idle base cause: AppHold, or RecoveryReopen. */
        BlameCause idleBase = BlameCause::AppHold;
        /** Held by a manual/basic span (no thread grant visible). */
        bool externalHold = false;
        std::uint8_t holdCause = noCause; //!< BlameCause or noCause
        std::uint8_t idleCause = noCause; //!< BlameCause or noCause
        /** Closed-window blame totals, indexed by BlameCause. */
        Cycles blame[numBlameCauses] = {};

        // -- instrument handles, taken on first record (noId = not yet)
        Handle hEw = noId;  //!< ew_cycles{pmo=N}
        Handle hTew = noId; //!< tew_cycles{pmo=N}
        /** blame_total{cause=,tenant=}, indexed by BlameCause. */
        Handles tenantBlame = noHandles();
    };

    /** Dense per-PMO state (PmoIds are small sequential ints). */
    PerPmo &state(pm::PmoId pmo);
    const PerPmo *stateIfSeen(pm::PmoId pmo) const;

    /** Funnels for window closes: Summary + registry histograms. */
    void recordEw(PerPmo &s, pm::PmoId pmo, Cycles len);
    void recordTew(PerPmo &s, pm::PmoId pmo, Cycles len);

    /** True if any thread window or external span holds @p s open. */
    static bool heldForBlame(const PerPmo &s);
    /** Resolve [causeSince, t) and advance causeSince (open only). */
    void flushBlame(PerPmo &s, Cycles t);
    /** Append [causeSince, t) as @p c, coalescing equal neighbors. */
    static void appendSeg(PerPmo &s, Cycles t, BlameCause c);
    /**
     * Close the blame side of a window at @p t: resolve the tail,
     * truncate the segment list to @p t, assert the segments tile
     * [openSince, t) exactly, accumulate totals, publish metrics and
     * fire hooks.
     */
    void closeBlame(PerPmo &s, pm::PmoId pmo, Cycles t);

    std::vector<PerPmo> perPmo; //!< indexed by PmoId; .seen gates use
    metrics::Registry *reg = nullptr; //!< null = no metrics

    // Tracker-wide instrument handles, taken on first record.
    Handle hEwAll = noId;  //!< ew_cycles{pmo="all"}
    Handle hTewAll = noId; //!< tew_cycles{pmo="all"}
    Handle cSloEw = noId;  //!< slo_violations{win="ew"}
    Handle cSloTew = noId; //!< slo_violations{win="tew"}
    /** blame_cycles{cause=} / blame_total{cause=}, by BlameCause. */
    Handles hBlame = noHandles();
    Handles cBlame = noHandles();
    Cycles sloEw = 0;   //!< EW SLO threshold; 0 = off
    Cycles sloTew = 0;  //!< TEW SLO threshold; 0 = off
    std::uint64_t ewViolations = 0;
    std::uint64_t tewViolations = 0;

    Cycles blameTarget = 0; //!< idle deadline offset; 0 = no split
    bool dark = false;      //!< sweeper energy-gated right now
    bool recovering = false; //!< inside the recovery pass
    std::vector<std::string> tenantOf; //!< per-PMO tenant label
    trace::TraceSink *sink = nullptr; //!< null = no segment events
    CloseHook closeHook;
};

} // namespace semantics
} // namespace terp

#endif // TERP_SEMANTICS_EW_TRACKER_HH
