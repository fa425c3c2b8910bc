/**
 * @file
 * The specification oracle: an independent model of what every
 * runtime operation must do, built on the Section-IV semantics
 * models (src/semantics/attach_semantics).
 *
 * Scheme -> spec model mapping:
 *   tt, tm -> EwConsciousSemantics (the chosen semantics; TT feeds
 *             it the circular-buffer timeline, TM the software one)
 *   ttnc   -> OutermostSemantics (without window combining the last
 *             detach is always performed, i.e. pure outermost pairs)
 *   mm, basic -> BasicSemantics (exclusive attach/detach pairs)
 *
 * The oracle additionally mirrors the runtime-visible state the spec
 * models do not carry — permission-matrix mode (with widening),
 * per-thread holder modes, exposure-window open times — and predicts,
 * for every operation, the exact attach/detach syscall counts, the
 * exact cycle charge on the acting thread, the exact access outcome,
 * and the exact EW/TEW window summaries of the whole run.
 */

#ifndef TERP_CHECK_ORACLE_HH
#define TERP_CHECK_ORACLE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/runtime.hh"
#include "metrics/metric.hh"
#include "semantics/attach_semantics.hh"

namespace terp {
namespace check {

/** Observed effects of one runtime op, reported by the replayer. */
struct Observed
{
    Cycles tPre = 0;               //!< acting thread clock before
    Cycles tPost = 0;              //!< acting thread clock after
    std::uint64_t attaches = 0;    //!< attach_syscalls delta
    std::uint64_t detaches = 0;    //!< detach_syscalls delta
};

/** A sweep decision for one PMO, in apply order. */
struct PlannedSweep
{
    pm::PmoId pmo;
    bool detach; //!< false: re-randomize in place
};

class SpecOracle
{
  public:
    SpecOracle(const core::RuntimeConfig &cfg, unsigned threads);

    // ---- pre-execution predicates (the replayer's skip rules) ----

    /** Would this regionEnd/manualEnd be well-formed right now? */
    bool canEnd(unsigned tid, pm::PmoId pmo) const;
    bool canManualBegin(pm::PmoId pmo) const;
    bool canManualEnd(pm::PmoId pmo) const;
    /**
     * Per-thread clocks can lag the thread that opened the current
     * exposure window; a real close issued by such a thread would
     * rewind the runtime's EwTracker (it asserts monotone time).
     * False when the end must be skipped for that reason.
     */
    bool endSafeAt(unsigned tid, pm::PmoId pmo, Cycles now) const;
    /** basic ablation: would this begin block (held by another)? */
    bool willBlock(unsigned tid, pm::PmoId pmo) const;
    /** basic ablation: does the thread own the PMO's region? */
    bool ownsBasic(unsigned tid, pm::PmoId pmo) const;
    bool isBlocked(unsigned tid) const;

    // ---- post-execution checks (append complaints to @p out) ----

    void checkBegin(unsigned tid, pm::PmoId pmo, pm::Mode mode,
                    const Observed &o, std::vector<std::string> &out);
    void checkEnd(unsigned tid, pm::PmoId pmo, const Observed &o,
                  std::vector<std::string> &out);
    void checkManualBegin(unsigned tid, pm::PmoId pmo, pm::Mode mode,
                          const Observed &o,
                          std::vector<std::string> &out);
    void checkManualEnd(unsigned tid, pm::PmoId pmo,
                        const Observed &o,
                        std::vector<std::string> &out);
    /** Record that a basic-scheme begin blocked (no state change). */
    void noteBlocked(unsigned tid, pm::PmoId pmo,
                     std::vector<std::string> &out);

    /** Exact expected outcome of a tryAccess right now. */
    core::AccessOutcome expectedAccess(unsigned tid, pm::PmoId pmo,
                                       bool write) const;
    /**
     * Forward the access to the spec model and complain when its
     * verdict is incoherent with @p actual (coarse mapping; the
     * exact check is expectedAccess vs. the runtime's outcome).
     */
    void checkAccessVerdict(unsigned tid, pm::PmoId pmo, bool write,
                            Cycles t, core::AccessOutcome actual,
                            std::vector<std::string> &out);

    // ---- sweeps ------------------------------------------------------

    /**
     * Which PMOs a sweep at @p now must act on (ascending PMO id;
     * the replayer reorders to the circular buffer's entry order for
     * TT). Cross-checks the spec model's own onSweep where it has
     * one. Does not yet mutate window state: the replayer applies
     * the actions via applySweepDetach/applySweepRandomize with the
     * exact close times its charge simulation computed.
     */
    std::vector<PlannedSweep> planSweep(Cycles now,
                                        std::vector<std::string> &out);
    void applySweepDetach(pm::PmoId pmo, Cycles closeAt);
    void applySweepRandomize(pm::PmoId pmo, Cycles now);
    /** After a sweep no surviving window may exceed the target. */
    void checkSweepInvariant(Cycles now,
                             std::vector<std::string> &out) const;

    // ---- crash / recovery --------------------------------------------

    /**
     * Mirror of Runtime::crash(at): close every open EW/TEW window
     * at @p at, drop all volatile mirror state (holders, owners,
     * nesting, blocked threads) and restart the spec model fresh.
     * The silent/full tallies survive — they are the experiment's
     * measurement state, like the runtime's counters.
     */
    void noteCrash(Cycles at);

    // ---- end of run --------------------------------------------------

    /** Close remaining windows at @p tEnd (mirror of finalize()). */
    void finalize(Cycles tEnd);

    /** Expected window summaries for the whole run. */
    const metrics::Summary *ewSummary(pm::PmoId pmo) const;
    const metrics::Summary *tewSummary(pm::PmoId pmo) const;

    /**
     * Predicted blame attribution: total cycles per cause for the
     * whole run, computed by an independent copy of the tracker's
     * segment algorithm over the oracle's own mirror state. Only
     * app_hold and sweeper_lag can be nonzero here — the other
     * causes need hooks (serve queueing, txn locks, energy gating)
     * that plain fuzz schedules never install, so the differ also
     * checks the runtime reported zero for them.
     */
    Cycles blameTotal(pm::PmoId pmo, semantics::BlameCause c) const;

    // ---- state probes (cross-checked each op) ------------------------

    bool mappedView(pm::PmoId pmo) const;
    bool holdsView(unsigned tid, pm::PmoId pmo) const;
    std::size_t holderCountView(pm::PmoId pmo) const;
    /** Expected silent fraction of the finished run. */
    double expectedSilentFraction() const;

  private:
    struct PmoState
    {
        bool mapped = false;
        /**
         * The timestamp the runtime's sweep/detach decisions key on:
         * the circular-buffer entry timestamp for TT (conditional
         * decision time of the opening attach), the software
         * lastRealAttach (post-syscall time) for the MERR schemes.
         */
        Cycles swLast = 0;
        Cycles ewOpen = 0; //!< EwTracker open time (post-syscall)
        pm::Mode procMode = pm::Mode::None;
        int basicOwner = -1;
        /**
         * Inside a manualBegin/manualEnd span. The runtime tracks MM
         * spans through the same holders counter as TM, but the
         * oracle's holders map is only fed by grantMirror (thread
         * permissions), which manual spans never touch — so MM needs
         * its own held flag for the sweeper's idle test.
         */
        bool manualHeld = false;
        std::map<unsigned, pm::Mode> holders;
        std::map<unsigned, Cycles> tewOpen;
        metrics::Summary ew;
        metrics::Summary tew;

        // -- blame mirror: independent copy of the tracker's segment
        //    algorithm over this mirror state (end, cause) --
        std::vector<std::pair<Cycles, std::uint8_t>> segs;
        Cycles causeSince = 0; //!< start of the unresolved tail
        Cycles blame[semantics::numBlameCauses] = {};
    };

    core::RuntimeConfig cfg;
    std::unique_ptr<semantics::AttachSemantics> spec;
    std::map<pm::PmoId, PmoState> ps;
    std::map<std::pair<unsigned, pm::PmoId>, unsigned> depth;
    std::vector<int> blockedOn; //!< per tid; -1 = runnable
    /**
     * Silent-fraction bookkeeping. The three schemes aggregate
     * differently: TT over all CB-visited ops (begins + ends), the
     * no-CB ablation over begins only, TM over every kernel entry
     * including nested lowered calls and sweeper detaches.
     */
    std::uint64_t silentBegins = 0;
    std::uint64_t fullBegins = 0;
    std::uint64_t silentEnds = 0;
    std::uint64_t fullEnds = 0;
    std::uint64_t nestedOps = 0;
    std::uint64_t sweepDetaches = 0;

    bool usesCond() const { return cfg.condInstructions(); }
    Cycles realAttachCost() const;
    void openEw(PmoState &s, Cycles tCb, Cycles tPost);
    void closeEw(PmoState &s, Cycles t);
    void grantMirror(PmoState &s, unsigned tid, pm::Mode mode,
                     Cycles t);
    void revokeMirror(PmoState &s, unsigned tid, Cycles t);
    /** Blame mirror: open / resolve-tail / truncate-and-tally. */
    void blameOpen(PmoState &s, Cycles t);
    void blameFlush(PmoState &s, Cycles t);
    void blameClose(PmoState &s, Cycles t);
};

} // namespace check
} // namespace terp

#endif // TERP_CHECK_ORACLE_HH
