/**
 * @file
 * Timeline auditor: an independent, trace-driven recomputation of
 * the paper's central metric.
 *
 * The auditor replays the event stream — real attach/detach opens
 * and closes process exposure windows (EW), sweeper randomization
 * splits them, thread grant/revoke opens and closes thread exposure
 * windows (TEW) — and cross-checks the recomputed window counts,
 * sums, minima and maxima cycle-for-cycle against the runtime's live
 * `semantics::EwTracker`, and against the metrics registry the
 * tracker publishes into, when it has one: every PMO's
 * `exposure.{ew,tew}_cycles{pmo="N"}` histogram and the `pmo="all"`
 * rollup. A disagreement means either the trace, the tracker, the
 * registry or the runtime wiring between them is wrong, which turns
 * the trace into a differential validator rather than a second
 * opinion derived from the same code path. Every traced run
 * (runWhisper, runSpec, crash worlds, terp-harvest, terp-trace,
 * terp-stats) audits through here.
 *
 * A replay reads the sink's one ring in emission order and resumes
 * where it stopped: the batch audit is an empty replay caught up
 * once, a crash point resumes its driver's replay, and terp-harvest
 * catches one replay up at each audit stride. Since the ring drops
 * only the oldest events, a replay stays complete as long as it was
 * caught up before the ring dropped any event it had not read.
 */

#ifndef TERP_TRACE_AUDIT_HH
#define TERP_TRACE_AUDIT_HH

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metric.hh"
#include "metrics/registry.hh"
#include "semantics/ew_tracker.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace trace {

/** Outcome of one audit. */
struct AuditReport
{
    bool ok = false;       //!< replay clean and everything matched
    /** The replay read every event: none was dropped before it. */
    bool complete = true;
    std::vector<std::string> mismatches;

    /**
     * Recomputed exposure of one PMO: its window statistics, in the
     * summary type the EwTracker and the metrics registry use, so the
     * three paths compare counts, sums, minima and maxima cycle for
     * cycle, and its blame attribution, total cycles per BlameCause,
     * rebuilt from BlameSegment events. The replay also enforces the
     * tiling invariant: the segments of every closed window must
     * cover [open, close) exactly, gap- and overlap-free.
     */
    struct PmoTally
    {
        metrics::Summary ew, tew;
        std::array<Cycles, semantics::numBlameCauses> blame{};
    };
    /**
     * Indexed by PMO id; a PMO the replay saw no window of reads
     * empty. Empty when the replay was incomplete.
     */
    std::vector<PmoTally> pmos;

    /** PMOs with at least one window of @p side (&PmoTally::ew or tew). */
    std::size_t pmosWith(metrics::Summary PmoTally::*side) const;

    /** One-line verdict for logs. */
    std::string summary() const;
};

/**
 * The replay half of an audit, resumable: it reads a sink's events
 * in emission order, any number at a time, and recomputes the
 * exposure windows, blame and replay invariants (detach without
 * attach, double grant, ...) as it goes. A copy carries on from where
 * its original stopped, so a world copied mid-run copies its replay
 * too and audits only the events it emits itself. Its state is flat,
 * by PMO id, so a copy into a replay that already holds as many PMOs
 * allocates nothing.
 */
class TimelineReplay
{
  public:
    /**
     * Feed every event @p sink retains that this replay has not seen.
     * If the ring dropped one of them first, the replay is incomplete
     * from here on and reads no further event.
     */
    void catchUp(const TraceSink &sink);

    /** No event was dropped before this replay read it. */
    bool complete() const { return !lost; }

    /**
     * Close the stream fed so far at @p t_end (every still-open
     * window ends there) and cross-check it against @p expected and,
     * when expected.metricsRegistry() is set, its window histograms.
     * An incomplete replay cannot be audited: its report lists the
     * replay's mismatches and "trace incomplete", and nothing else.
     * The replay is left as it was, so it can be caught up and
     * audited again.
     */
    AuditReport audit(Cycles t_end, const semantics::EwTracker &expected) const;

  private:
    /** Replay @p e, which must follow every event fed before it. */
    void feed(const Event &e);

    /** Replay state of one PMO. */
    struct PmoState
    {
        bool open = false;
        Cycles openSince = 0;
        /** Start of the next blame segment of the current window. */
        Cycles blameCursor = 0;
        /** (tid, since) of each open thread window, unordered. */
        std::vector<std::pair<std::uint32_t, Cycles>> threads;
        /** The windows closed so far. */
        AuditReport::PmoTally tally;
    };
    /** @p e's PMO, or null (and a mismatch) when it names none. */
    PmoState *stateOf(const Event &e);

    /**
     * Registry handles of the window histograms, [pmo][ew, tew] and
     * the pmo="all" pair, found by name at an audit and checked
     * against it at the next (Registry::findHistogram). An assignment
     * keeps the handles this replay holds: a replay assigned from its
     * driver's at every crash point then finds each histogram once.
     */
    struct HistogramIds
    {
        std::vector<std::array<metrics::Registry::Id, 2>> pmo;
        std::array<metrics::Registry::Id, 2> all{metrics::Registry::noId,
                                                 metrics::Registry::noId};

        HistogramIds() = default;
        HistogramIds(const HistogramIds &) = default;
        HistogramIds &operator=(const HistogramIds &) { return *this; }
    };

    std::vector<PmoState> state; //!< by PMO id
    std::vector<std::string> mismatches; //!< the replay's own
    bool lost = false; //!< an event was dropped before it was read
    std::uint64_t nextSeq = 0; //!< seq of the next event to feed
    mutable HistogramIds ids;
};

/** Audit a whole sink: an empty replay caught up once. */
AuditReport auditTimeline(const TraceSink &sink, Cycles t_end,
                          const semantics::EwTracker &expected);

/**
 * auditTimeline(@p sink) resumed from @p prefix, a replay of the
 * sink's events up to some point: assigns it into @p scratch and
 * catches that up. A caller that keeps @p scratch across audits
 * reuses its storage and its histogram handles. The report equals
 * auditTimeline's when the sink dropped no event; when it dropped
 * only events the prefix had read, this audit is still complete where
 * the batch one is not.
 */
AuditReport auditTimelineFrom(const TimelineReplay &prefix,
                              const TraceSink &sink, Cycles t_end,
                              const semantics::EwTracker &expected,
                              TimelineReplay &scratch);

} // namespace trace
} // namespace terp

#endif // TERP_TRACE_AUDIT_HH
