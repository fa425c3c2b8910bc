#include "trace/audit.hh"

#include <set>
#include <sstream>
#include <utility>

namespace terp {
namespace trace {

namespace {

void
mismatch(AuditReport &r, const std::string &msg)
{
    r.mismatches.push_back(msg);
}

std::string
describe(const Event &e)
{
    std::ostringstream os;
    os << "seq " << e.seq << " ts " << e.ts << " tid " << e.tid
       << " " << eventKindName(e.kind) << " pmo " << e.pmo;
    return os.str();
}

/** The replayed tally of @p pmo in @p m (empty when never closed). */
metrics::Summary
tallyOf(const std::map<std::uint64_t, metrics::Summary> &m,
        std::uint64_t pmo)
{
    auto it = m.find(pmo);
    return it != m.end() ? it->second : metrics::Summary{};
}

/** @p got (the replay) against @p against's @p want (null = empty). */
void
compareTally(AuditReport &r, const std::string &series,
             const char *against, const metrics::Summary &got,
             const metrics::Summary *want)
{
    const metrics::Summary w = want ? *want : metrics::Summary{};
    if (got.count() == w.count() && got.sum() == w.sum() &&
        got.min() == w.min() && got.max() == w.max())
        return;
    std::ostringstream os;
    os << series << ": trace replay {n=" << got.count() << " sum="
       << got.sum() << " min=" << got.min() << " max=" << got.max()
       << "} vs " << against << " {n=" << w.count() << " sum="
       << w.sum() << " min=" << w.min() << " max=" << w.max() << "}";
    mismatch(r, os.str());
}

/**
 * @p got against the registry's @p series histogram, through its
 * exact summary(). A missing histogram reads as empty, so it matches
 * only an empty replay.
 */
void
compareHistogram(AuditReport &r, const metrics::Registry &reg,
                 const std::string &series, const metrics::Summary &got)
{
    const metrics::LogHistogram *h = reg.findHistogram(series);
    compareTally(r, series, "registry", got,
                 h ? &h->summary() : nullptr);
}

/**
 * Closed window of recomputed length @p len: its blame segments
 * (which advanced @p blameCursor from @p openSince) must tile it
 * exactly.
 */
void
checkBlameTiling(AuditReport &r, std::uint64_t pmo, Cycles openSince,
                 Cycles blameCursor, Cycles len)
{
    if (blameCursor == openSince + len)
        return;
    std::ostringstream os;
    os << "blame segments don't tile window: pmo " << pmo
       << " open " << openSince << " len " << len
       << " segments cover " << (blameCursor - openSince);
    mismatch(r, os.str());
}

} // namespace

std::string
AuditReport::summary() const
{
    std::ostringstream os;
    if (ok) {
        os << "audit OK: " << ew.size() << " PMO(s), EW/TEW match "
           << "EwTracker exactly";
        return os.str();
    }
    os << "audit FAILED (" << mismatches.size() << " mismatch(es)";
    if (!complete)
        os << "; trace incomplete";
    os << ")";
    if (!mismatches.empty())
        os << ": " << mismatches.front();
    return os.str();
}

void
TimelineReplay::feed(const Event &e)
{
    nextSeq = e.seq + 1;
    switch (e.kind) {
      case EventKind::RealAttach: {
        PmoState &s = state[e.pmo];
        if (s.open) {
            mismatch(sofar, "attach of already-open window: " +
                                describe(e));
            break;
        }
        s.open = true;
        s.openSince = e.ts;
        s.blameCursor = e.ts;
        break;
      }
      case EventKind::RealDetach: {
        PmoState &s = state[e.pmo];
        if (!s.open) {
            mismatch(sofar, "detach without open window: " +
                                describe(e));
            break;
        }
        Cycles len = e.ts >= s.openSince ? e.ts - s.openSince : 0;
        sofar.ew[e.pmo].add(len);
        checkBlameTiling(sofar, e.pmo, s.openSince, s.blameCursor, len);
        s.open = false;
        break;
      }
      case EventKind::Randomize: {
        // Sweeper in-place re-randomization: the location dies, so
        // the runtime closes the window and opens a new one at the
        // same instant.
        PmoState &s = state[e.pmo];
        if (!s.open) {
            mismatch(sofar, "randomize of unmapped PMO: " +
                                describe(e));
            break;
        }
        Cycles len = e.ts >= s.openSince ? e.ts - s.openSince : 0;
        sofar.ew[e.pmo].add(len);
        checkBlameTiling(sofar, e.pmo, s.openSince, s.blameCursor, len);
        s.openSince = e.ts;
        s.blameCursor = e.ts;
        break;
      }
      case EventKind::BlameSegment: {
        // Emitted at window close, one per final segment; ts is the
        // segment's end, the previous end (or the window open) its
        // start.
        PmoState &s = state[e.pmo];
        if (!s.open) {
            mismatch(sofar, "blame segment outside a window: " +
                                describe(e));
            break;
        }
        if (e.arg >= semantics::numBlameCauses ||
            e.ts <= s.blameCursor) {
            mismatch(sofar, "malformed blame segment: " +
                                describe(e));
            break;
        }
        auto &sums = sofar.blame[e.pmo];
        sums[e.arg] += e.ts - s.blameCursor;
        s.blameCursor = e.ts;
        break;
      }
      case EventKind::ThreadGrant: {
        PmoState &s = state[e.pmo];
        if (s.threadOpenSince.count(e.tid)) {
            mismatch(sofar, "double thread grant: " + describe(e));
            break;
        }
        s.threadOpenSince[e.tid] = e.ts;
        break;
      }
      case EventKind::ThreadRevoke: {
        PmoState &s = state[e.pmo];
        auto it = s.threadOpenSince.find(e.tid);
        if (it == s.threadOpenSince.end()) {
            mismatch(sofar, "revoke without grant: " + describe(e));
            break;
        }
        sofar.tew[e.pmo].add(e.ts >= it->second ? e.ts - it->second
                                                : 0);
        s.threadOpenSince.erase(it);
        break;
      }
      default:
        break; // other kinds don't move exposure state
    }
}

void
TimelineReplay::catchUp(const TraceSink &sink)
{
    sink.mergeSince(nextSeq, merged, spare);
    for (const Event &e : merged)
        feed(e);
    merged.clear();
    spare.clear();
}

AuditReport
TimelineReplay::audit(bool complete, Cycles t_end,
                      const semantics::EwTracker &expected) &&
{
    AuditReport r = std::move(sofar);

    // End of run: close every still-open window, as finalize() does.
    for (const auto &[pmo, s] : state) {
        if (s.open) {
            Cycles len =
                t_end >= s.openSince ? t_end - s.openSince : 0;
            r.ew[pmo].add(len);
            // finalize() emits the final window's segments; a trace
            // cut before finalize legitimately has none, so only a
            // partial tiling is a replay error here.
            if (s.blameCursor != s.openSince)
                checkBlameTiling(r, pmo, s.openSince, s.blameCursor,
                                 len);
        }
        for (const auto &[tid, since] : s.threadOpenSince) {
            (void)tid;
            r.tew[pmo].add(t_end >= since ? t_end - since : 0);
        }
    }

    r.complete = complete;
    if (!complete) {
        mismatch(r, "trace incomplete: ring buffers dropped events, "
                    "cannot audit");
    }

    // Every PMO either side saw must agree on both window kinds,
    // with the tracker and with the registry it publishes into, if any.
    std::set<std::uint64_t> pmos;
    for (const auto *side : {&r.ew, &r.tew})
        for (const auto &kv : *side)
            pmos.insert(kv.first);
    for (pm::PmoId pmo : expected.pmosSeen())
        pmos.insert(pmo);

    const metrics::Registry *reg = expected.metricsRegistry();
    metrics::Summary ewAll, tewAll;
    for (std::uint64_t pmo : pmos) {
        auto id = static_cast<pm::PmoId>(pmo);
        const std::string n = std::to_string(pmo);
        metrics::Summary ew = tallyOf(r.ew, pmo), tew = tallyOf(r.tew, pmo);
        compareTally(r, "EW pmo " + n, "EwTracker", ew,
                     expected.ewSummaryFor(id));
        compareTally(r, "TEW pmo " + n, "EwTracker", tew,
                     expected.tewSummaryFor(id));
        if (reg) {
            // labeled(base, "pmo", n) spelled out: labeled() parses
            // and rebuilds the label set, and this runs for every PMO
            // of every audit (each enumerated crash point has one).
            const std::string label = "{pmo=\"" + n + "\"}";
            compareHistogram(r, *reg, "exposure.ew_cycles" + label, ew);
            compareHistogram(r, *reg, "exposure.tew_cycles" + label, tew);
        }
        ewAll.merge(ew);
        tewAll.merge(tew);

        // Blame attribution: the recomputed per-cause totals must
        // equal the tracker's bit-exactly (third independent copy of
        // the blame-sum == EW invariant).
        auto bit = r.blame.find(pmo);
        for (unsigned c = 0; c < semantics::numBlameCauses; ++c) {
            Cycles got = bit != r.blame.end() ? bit->second[c] : 0;
            Cycles want = expected.blameTotal(
                id, static_cast<semantics::BlameCause>(c));
            if (got == want)
                continue;
            std::ostringstream os;
            os << "blame pmo " << pmo << " cause "
               << semantics::blameCauseName(
                      static_cast<semantics::BlameCause>(c))
               << ": trace replay " << got << " vs EwTracker "
               << want;
            mismatch(r, os.str());
        }
    }

    // The rollups against the merged replay.
    if (reg) {
        compareHistogram(r, *reg, "exposure.ew_cycles{pmo=\"all\"}",
                         ewAll);
        compareHistogram(r, *reg, "exposure.tew_cycles{pmo=\"all\"}",
                         tewAll);
    }

    r.ok = r.mismatches.empty();
    return r;
}

AuditReport
auditEvents(const std::vector<Event> &events, bool complete,
            Cycles t_end, const semantics::EwTracker &expected)
{
    TimelineReplay replay;
    for (const Event &e : events)
        replay.feed(e);
    return std::move(replay).audit(complete, t_end, expected);
}

AuditReport
auditTimeline(const TraceSink &sink, Cycles t_end,
              const semantics::EwTracker &expected)
{
    return auditEvents(sink.merged(), sink.complete(), t_end,
                       expected);
}

AuditReport
auditTimelineFrom(const TimelineReplay &prefix, const TraceSink &sink,
                  Cycles t_end, const semantics::EwTracker &expected,
                  TimelineReplay &scratch)
{
    // The prefix may have seen events a wrapped sink no longer holds.
    if (!sink.complete())
        return auditTimeline(sink, t_end, expected);
    scratch = prefix;
    scratch.catchUp(sink);
    return std::move(scratch).audit(true, t_end, expected);
}

AuditReport
auditTimelineFrom(const TimelineReplay &prefix, const TraceSink &sink,
                  Cycles t_end, const semantics::EwTracker &expected)
{
    TimelineReplay scratch;
    return auditTimelineFrom(prefix, sink, t_end, expected, scratch);
}

} // namespace trace
} // namespace terp
