/**
 * @file
 * Scheme configurations for the evaluation (Section VI). A scheme is
 * one of six values:
 *
 *  - Unprotected: no protection; the overhead baseline.
 *  - MM: MERR insertion + MERR architecture. Manually inserted
 *    attach/detach executed fully as system calls.
 *  - TM: TERP insertion + MERR architecture. Compiler-inserted
 *    conditional attach/detach, but every call is a full system call.
 *  - TT: TERP insertion + TERP architecture. Conditional
 *    attach/detach instructions + circular-buffer window combining.
 *  - TTNC: the Fig 11 "+Cond" ablation, TT without the circular
 *    buffer.
 *  - Basic: the Fig 11 "Basic semantics" ablation, TERP insertion
 *    where threads serialize on a process-wide attach.
 *
 * Every protection property is a function of the scheme, derived
 * here and nowhere else; one table in config.cc maps each scheme to
 * its tag and paper label.
 */

#ifndef TERP_CORE_CONFIG_HH
#define TERP_CORE_CONFIG_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace core {

/** Protection scheme: the three evaluated and the two ablations. */
enum class Scheme
{
    Unprotected, //!< no protection; the overhead baseline
    MM,          //!< MERR insertion on MERR architecture
    TM,          //!< TERP insertion on MERR architecture
    TT,          //!< TERP insertion on TERP architecture
    TTNC,        //!< TT without the circular buffer ("+Cond")
    Basic,       //!< TERP insertion under Basic semantics
};

/**
 * The paper's label for @p s: "Unprotected", "MM", "TM" or "TT". The
 * ablations print as the scheme they ablate ("TT" for TTNC, "TM" for
 * Basic).
 */
const char *schemeName(Scheme s);

/**
 * Short lowercase tag naming @p s: "unprotected", "mm", "tm", "tt",
 * "ttnc" or "basic". These are the tools' --scheme spellings
 * (configForScheme() is the inverse) and the `scheme` metrics label.
 */
const char *schemeTag(Scheme s);

/** Every scheme tag, in Scheme order. */
std::vector<std::string> schemeTags();

/**
 * The tags of the schemes there is something to check: every one
 * but "unprotected", in Scheme order.
 */
std::vector<std::string> checkedSchemeTags();

/** Full runtime configuration. */
struct RuntimeConfig
{
    Scheme scheme = Scheme::Unprotected;

    /** Process-level exposure-window target (L in the semantics). */
    Cycles ewTarget = target::defaultEw;
    /** Thread exposure-window target used by automatic insertion. */
    Cycles tewTarget = target::defaultTew;

    /**
     * Exposure SLO thresholds (0 = off, the batch default): every
     * closed EW/TEW longer than these counts as a violation in the
     * runtime's EwTracker and, with metrics on, in the
     * `exposure.slo_violations{win=...}` counters. Distinct from the
     * targets above: the targets steer the sweeper, the SLOs only
     * judge the result — terp-serve alerts on them per shard.
     */
    Cycles ewSlo = 0;
    Cycles tewSlo = 0;

    /**
     * Event tracing (src/trace). Off by default: with the switch off
     * the runtime allocates no sink and every emission site is a
     * null-pointer check, so timing and cycle totals are bit-for-bit
     * identical to an untraced build. Tracing never charges
     * simulated cycles either way.
     */
    bool traceEnabled = false;
    /**
     * Trace capacity, in events per emitting thread: the sink's one
     * ring holds this many for each thread and pseudo-thread that has
     * emitted. A cap, not an up-front allocation (the ring grows to
     * it as events arrive).
     */
    std::size_t traceCapacity = trace::TraceSink::defaultCapacity;

    /**
     * Metrics registry (src/metrics). On by default: recording never
     * charges simulated cycles and never prints, so cycle totals and
     * harness stdout are bit-for-bit identical either way (held down
     * by tests/test_bench_harness.cc). Set false (withoutMetrics())
     * for a hot path where every instrument pointer is null and each
     * site costs one predictable branch.
     */
    bool metricsEnabled = true;

    /** Fluent helper: same config with tracing switched on. */
    RuntimeConfig
    withTrace(std::size_t capacity = trace::TraceSink::defaultCapacity) const
    {
        RuntimeConfig c = *this;
        c.traceEnabled = true;
        c.traceCapacity = capacity;
        return c;
    }

    /** Fluent helper: same config with exposure SLO thresholds. */
    RuntimeConfig
    withExposureSlo(Cycles ew_slo, Cycles tew_slo) const
    {
        RuntimeConfig c = *this;
        c.ewSlo = ew_slo;
        c.tewSlo = tew_slo;
        return c;
    }

    /** Fluent helper: same config with metrics switched off. */
    RuntimeConfig
    withoutMetrics() const
    {
        RuntimeConfig c = *this;
        c.metricsEnabled = false;
        return c;
    }

    /**
     * Compiler-inserted regions drive attach/detach (regionBegin /
     * regionEnd); MM's manual bookends are `scheme == Scheme::MM`.
     */
    bool
    autoInsertion() const
    {
        return scheme != Scheme::Unprotected && scheme != Scheme::MM;
    }
    /**
     * Conditional instructions available (27-cycle silent path).
     * Circular-buffer window combining is `scheme == Scheme::TT`.
     */
    bool
    condInstructions() const
    {
        return scheme == Scheme::TT || scheme == Scheme::TTNC;
    }
    /**
     * MPK-style per-thread permission lowering (EW-conscious). Basic
     * blocking, where a thread attaching an attached PMO waits for
     * the detach, is `scheme == Scheme::Basic`.
     */
    bool
    threadPerms() const
    {
        return scheme == Scheme::TM || condInstructions();
    }
    /**
     * Randomize PMO placement at every real attach. TERP's attach
     * performs placement inside the (already costed) system call;
     * its separate randomization cost only arises for sweep-
     * triggered in-place re-randomization.
     */
    bool
    randomizeOnAttach() const
    {
        return scheme == Scheme::MM || scheme == Scheme::TM ||
               scheme == Scheme::Basic;
    }

    static RuntimeConfig unprotected();
    static RuntimeConfig mm(Cycles ew = target::defaultEw);
    static RuntimeConfig tm(Cycles ew = target::defaultEw,
                            Cycles tew = target::defaultTew);
    static RuntimeConfig tt(Cycles ew = target::defaultEw,
                            Cycles tew = target::defaultTew);
    /** TT without the circular buffer ("+Cond" ablation). */
    static RuntimeConfig ttNoCombining(Cycles ew = target::defaultEw,
                                       Cycles tew = target::defaultTew);
    /** Automatic insertion under Basic semantics (ablation). */
    static RuntimeConfig basicSemantics(Cycles ew = target::defaultEw);

    std::string describe() const;
};

/**
 * The inverse of schemeTag(): the configuration a scheme tag names,
 * built with EW target @p ew and TEW target @p tew, or nullopt for
 * an unknown tag. The one table behind every tool's --scheme flag.
 */
std::optional<RuntimeConfig>
configForScheme(const std::string &tag, Cycles ew = target::defaultEw,
                Cycles tew = target::defaultTew);

} // namespace core
} // namespace terp

#endif // TERP_CORE_CONFIG_HH
