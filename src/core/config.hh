/**
 * @file
 * Scheme configurations for the evaluation (Section VI):
 *
 *  - MM: MERR insertion + MERR architecture. Manually inserted
 *    attach/detach executed fully as system calls, EW target 40 us.
 *  - TM: TERP insertion + MERR architecture. Compiler-inserted
 *    conditional attach/detach, but every call is a full system call.
 *  - TT: TERP insertion + TERP architecture. Conditional
 *    attach/detach instructions + circular-buffer window combining.
 *
 * Ablations for Fig 11: Basic semantics (threads serialize on a
 * process-wide attach) and "+Cond" (conditional instructions without
 * the circular buffer).
 */

#ifndef TERP_CORE_CONFIG_HH
#define TERP_CORE_CONFIG_HH

#include <cstddef>
#include <optional>
#include <string>

#include "common/units.hh"

namespace terp {
namespace core {

/** Top-level protection scheme. */
enum class Scheme
{
    Unprotected, //!< no protection; the overhead baseline
    MM,          //!< MERR insertion on MERR architecture
    TM,          //!< TERP insertion on MERR architecture
    TT,          //!< TERP insertion on TERP architecture
};

const char *schemeName(Scheme s);

struct RuntimeConfig;

/**
 * Short lowercase tag naming the *configured* scheme, including the
 * Fig-11 ablations the Scheme enum alone cannot distinguish:
 * "unprotected", "mm", "tm", "tt", "ttnc" (TT without the circular
 * buffer) or "basic" (blocking ablation). These are the tools'
 * --scheme spellings (configForScheme() is the inverse) and the
 * `scheme` metrics label.
 */
const char *schemeTag(const RuntimeConfig &cfg);

/** Which insertion points drive attach/detach. */
enum class Insertion
{
    None,   //!< no constructs at all
    Manual, //!< coarse, manually placed bookends (MERR style)
    Auto,   //!< compiler/region-granularity conditional constructs
};

/** Full runtime configuration. */
struct RuntimeConfig
{
    Scheme scheme = Scheme::Unprotected;
    Insertion insertion = Insertion::None;

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

    /** Conditional instructions available (27-cycle silent path). */
    bool condInstructions = false;
    /** Circular-buffer window combining + sweeper. */
    bool windowCombining = false;
    /** MPK-style per-thread permission lowering (EW-conscious). */
    bool threadPerms = false;
    /**
     * Basic-semantics ablation: a thread attaching an attached PMO
     * must wait for the detach (Fig 11 "Basic semantics" bars).
     */
    bool basicBlocking = false;
    /** Randomize PMO placement at every real attach. */
    bool randomizeOnAttach = true;

    /**
     * Event tracing (src/trace). Off by default: with the switch off
     * the runtime allocates no sink and every emission site is a
     * null-pointer check, so timing and cycle totals are bit-for-bit
     * identical to an untraced build. Tracing never charges
     * simulated cycles either way.
     */
    bool traceEnabled = false;
    /**
     * Per-thread trace ring capacity, in events: a cap, not an
     * up-front allocation (rings grow to it as events arrive).
     */
    std::size_t traceCapacity = 1u << 16;

    /**
     * Metrics registry (src/metrics). On by default: recording never
     * charges simulated cycles and never prints, so cycle totals and
     * harness stdout are bit-for-bit identical either way (held down
     * by tests/test_bench_harness.cc). Set false — or export
     * TERP_METRICS=off — for a hot path where every instrument
     * pointer is null and each site costs one predictable branch.
     */
    bool metricsEnabled = true;

    /** Fluent helper: same config with tracing switched on. */
    RuntimeConfig
    withTrace(std::size_t capacity = 1u << 16) const
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
 * built with EW target @p ew and TEW target @p tew (each used only
 * by the schemes that take it), or nullopt for an unknown tag. The
 * one table behind every tool's --scheme flag.
 */
std::optional<RuntimeConfig>
configForScheme(const std::string &tag, Cycles ew = target::defaultEw,
                Cycles tew = target::defaultTew);

} // namespace core
} // namespace terp

#endif // TERP_CORE_CONFIG_HH
