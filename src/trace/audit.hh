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
 */

#ifndef TERP_TRACE_AUDIT_HH
#define TERP_TRACE_AUDIT_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "metrics/metric.hh"
#include "semantics/ew_tracker.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace trace {

/** Outcome of one audit. */
struct AuditReport
{
    bool ok = false;       //!< replay clean and everything matched
    bool complete = true;  //!< the trace lost no events to wrap
    std::vector<std::string> mismatches;

    // Recomputed window statistics, per PMO, in the summary type the
    // EwTracker and the metrics registry use, so the three paths
    // compare counts, sums, minima and maxima cycle for cycle.
    std::map<std::uint64_t, metrics::Summary> ew;
    std::map<std::uint64_t, metrics::Summary> tew;

    /**
     * Recomputed blame attribution, per PMO: total cycles per
     * BlameCause, rebuilt from BlameSegment events. The replay also
     * enforces the tiling invariant — the segments of every closed
     * window must cover [open, close) exactly, gap- and overlap-free.
     */
    std::map<std::uint64_t,
             std::array<Cycles, semantics::numBlameCauses>>
        blame;

    /** One-line verdict for logs. */
    std::string summary() const;
};

/**
 * The replay half of an audit, resumable: it takes a stream's events
 * in emission order, any number at a time, and recomputes the
 * exposure windows, blame and replay invariants (detach without
 * attach, double grant, ...) as it goes. A copy carries on from where
 * its original stopped, so a world copied mid-run copies its replay
 * too and audits only the events it emits itself.
 */
class TimelineReplay
{
  public:
    /** Replay @p e, which must follow every event fed before it. */
    void feed(const Event &e);

    /** Feed every event @p sink retains that this replay has not seen. */
    void catchUp(const TraceSink &sink);

    /**
     * Close the stream fed so far at @p t_end (every still-open
     * window ends there) and cross-check it against @p expected and,
     * when expected.metricsRegistry() is set, its window histograms.
     * @p complete marks whether the stream retained every emitted
     * event; an incomplete stream cannot be audited and fails with
     * an explanatory mismatch. Spends the replay.
     */
    AuditReport audit(bool complete, Cycles t_end,
                      const semantics::EwTracker &expected) &&;

  private:
    /** Replay state of one PMO. */
    struct PmoState
    {
        bool open = false;
        Cycles openSince = 0;
        std::map<std::uint32_t, Cycles> threadOpenSince;
        /** Start of the next blame segment of the current window. */
        Cycles blameCursor = 0;
    };

    std::map<std::uint64_t, PmoState> state;
    AuditReport sofar; //!< tallies, blame and replay mismatches
    std::uint64_t nextSeq = 0; //!< seq of the next event to feed
    /** catchUp's merge space, empty between calls (host only). */
    std::vector<Event> merged, spare;
};

/** Replay @p events, in emission order, and audit them (see audit()). */
AuditReport auditEvents(const std::vector<Event> &events,
                        bool complete, Cycles t_end,
                        const semantics::EwTracker &expected);

/** Audit a whole sink (the common entry point). */
AuditReport auditTimeline(const TraceSink &sink, Cycles t_end,
                          const semantics::EwTracker &expected);

/**
 * auditTimeline(@p sink) resumed from @p prefix, a replay of the
 * sink's events up to some point: assigns it into @p scratch and feeds
 * that only the rest. A caller that keeps @p scratch across audits
 * reuses its storage. A sink that lost events to wrap is audited from
 * scratch instead, so the report always equals auditTimeline's.
 */
AuditReport auditTimelineFrom(const TimelineReplay &prefix,
                              const TraceSink &sink, Cycles t_end,
                              const semantics::EwTracker &expected,
                              TimelineReplay &scratch);

/** auditTimelineFrom with a scratch replay of its own. */
AuditReport auditTimelineFrom(const TimelineReplay &prefix,
                              const TraceSink &sink, Cycles t_end,
                              const semantics::EwTracker &expected);

} // namespace trace
} // namespace terp

#endif // TERP_TRACE_AUDIT_HH
