#include "trace/audit.hh"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <sstream>
#include <string_view>

namespace terp {
namespace trace {

namespace {

std::string
describe(const Event &e)
{
    std::ostringstream os;
    os << "seq " << e.seq << " ts " << e.ts << " tid " << e.tid
       << " " << eventKindName(e.kind) << " pmo " << e.pmo;
    return os.str();
}

/** @p v in decimal, written into @p buf. */
std::string_view
decimal(std::array<char, 20> &buf, std::uint64_t v)
{
    const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
    return {buf.data(), static_cast<std::size_t>(res.ptr - buf.data())};
}

/** @p parts joined in @p buf: a series name, with no allocation. */
std::string_view
joined(std::array<char, 64> &buf,
       std::initializer_list<std::string_view> parts)
{
    std::size_t n = 0;
    for (std::string_view part : parts)
        n += part.copy(buf.data() + n, buf.size() - n);
    return {buf.data(), n};
}

/** @p got (the replay) against @p against's @p want (null = empty). */
void
compareTally(std::vector<std::string> &out, std::string_view series,
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
    out.push_back(os.str());
}

/**
 * @p got against the registry's @p series histogram, through its
 * exact summary(), read through the handle @p id. A missing histogram
 * reads as empty, so it matches only an empty replay.
 */
void
compareHistogram(std::vector<std::string> &out, const metrics::Registry &reg,
                 std::string_view series, metrics::Registry::Id &id,
                 const metrics::Summary &got)
{
    const metrics::LogHistogram *h = reg.findHistogram(series, id);
    compareTally(out, series, "registry", got, h ? &h->summary() : nullptr);
}

/**
 * Closed window of recomputed length @p len: its blame segments
 * (which advanced @p blameCursor from @p openSince) must tile it
 * exactly.
 */
void
checkBlameTiling(std::vector<std::string> &out, std::uint64_t pmo,
                 Cycles openSince, Cycles blameCursor, Cycles len)
{
    if (blameCursor == openSince + len)
        return;
    std::ostringstream os;
    os << "blame segments don't tile window: pmo " << pmo
       << " open " << openSince << " len " << len
       << " segments cover " << (blameCursor - openSince);
    out.push_back(os.str());
}

/** One past the largest PMO id: an Oid's pool field is 16 bits. */
constexpr std::uint64_t pmoLimit = 1u << 16;

} // namespace

std::size_t
AuditReport::pmosWith(metrics::Summary PmoTally::*side) const
{
    std::size_t n = 0;
    for (const PmoTally &t : pmos)
        n += (t.*side).count() != 0;
    return n;
}

std::string
AuditReport::summary() const
{
    std::ostringstream os;
    if (ok) {
        os << "audit OK: " << pmosWith(&PmoTally::ew)
           << " PMO(s), EW/TEW match EwTracker exactly";
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

TimelineReplay::PmoState *
TimelineReplay::stateOf(const Event &e)
{
    if (e.pmo >= pmoLimit) {
        mismatches.push_back("event names no PMO: " + describe(e));
        return nullptr;
    }
    if (e.pmo >= state.size())
        state.resize(e.pmo + 1);
    return &state[e.pmo];
}

void
TimelineReplay::feed(const Event &e)
{
    nextSeq = e.seq + 1;
    switch (e.kind) {
      case EventKind::RealAttach: {
        PmoState *s = stateOf(e);
        if (!s)
            break;
        if (s->open) {
            mismatches.push_back("attach of already-open window: " +
                                 describe(e));
            break;
        }
        s->open = true;
        s->openSince = e.ts;
        s->blameCursor = e.ts;
        break;
      }
      case EventKind::RealDetach: {
        PmoState *s = stateOf(e);
        if (!s)
            break;
        if (!s->open) {
            mismatches.push_back("detach without open window: " +
                                 describe(e));
            break;
        }
        Cycles len = e.ts >= s->openSince ? e.ts - s->openSince : 0;
        s->tally.ew.add(len);
        checkBlameTiling(mismatches, e.pmo, s->openSince, s->blameCursor,
                         len);
        s->open = false;
        break;
      }
      case EventKind::Randomize: {
        // Sweeper in-place re-randomization: the location dies, so
        // the runtime closes the window and opens a new one at the
        // same instant.
        PmoState *s = stateOf(e);
        if (!s)
            break;
        if (!s->open) {
            mismatches.push_back("randomize of unmapped PMO: " +
                                 describe(e));
            break;
        }
        Cycles len = e.ts >= s->openSince ? e.ts - s->openSince : 0;
        s->tally.ew.add(len);
        checkBlameTiling(mismatches, e.pmo, s->openSince, s->blameCursor,
                         len);
        s->openSince = e.ts;
        s->blameCursor = e.ts;
        break;
      }
      case EventKind::BlameSegment: {
        // Emitted at window close, one per final segment; ts is the
        // segment's end, the previous end (or the window open) its
        // start.
        PmoState *s = stateOf(e);
        if (!s)
            break;
        if (!s->open) {
            mismatches.push_back("blame segment outside a window: " +
                                 describe(e));
            break;
        }
        if (e.arg >= semantics::numBlameCauses ||
            e.ts <= s->blameCursor) {
            mismatches.push_back("malformed blame segment: " +
                                 describe(e));
            break;
        }
        s->tally.blame[e.arg] += e.ts - s->blameCursor;
        s->blameCursor = e.ts;
        break;
      }
      case EventKind::ThreadGrant:
      case EventKind::ThreadRevoke: {
        PmoState *s = stateOf(e);
        if (!s)
            break;
        auto it = std::find_if(s->threads.begin(), s->threads.end(),
                               [&e](const auto &w) {
                                   return w.first == e.tid;
                               });
        if (e.kind == EventKind::ThreadGrant) {
            if (it != s->threads.end()) {
                mismatches.push_back("double thread grant: " +
                                     describe(e));
                break;
            }
            s->threads.emplace_back(e.tid, e.ts);
            break;
        }
        if (it == s->threads.end()) {
            mismatches.push_back("revoke without grant: " + describe(e));
            break;
        }
        s->tally.tew.add(e.ts >= it->second ? e.ts - it->second : 0);
        *it = s->threads.back();
        s->threads.pop_back();
        break;
      }
      default:
        break; // other kinds don't move exposure state
    }
}

void
TimelineReplay::catchUp(const TraceSink &sink)
{
    // The ring drops the oldest events first: seqs [0, totalDropped()).
    // Past a lost event the replay's state is wrong, so it reads no
    // more: what it would add is noise ahead of the one verdict.
    if (sink.totalDropped() > nextSeq)
        lost = true;
    if (!lost)
        sink.forEachSince(nextSeq, [this](const Event &e) { feed(e); });
}

AuditReport
TimelineReplay::audit(Cycles t_end,
                      const semantics::EwTracker &expected) const
{
    AuditReport r;
    r.complete = !lost;
    r.mismatches = mismatches;
    if (lost) {
        r.mismatches.push_back("trace incomplete: the ring dropped "
                               "events before the replay read them, "
                               "cannot audit");
        return r;
    }

    // End of run: close every still-open window, as finalize() does.
    r.pmos.resize(state.size());
    for (std::size_t pmo = 0; pmo < state.size(); ++pmo) {
        const PmoState &s = state[pmo];
        AuditReport::PmoTally &t = r.pmos[pmo];
        t = s.tally;
        if (s.open) {
            Cycles len =
                t_end >= s.openSince ? t_end - s.openSince : 0;
            t.ew.add(len);
            // finalize() emits the final window's segments; a trace
            // cut before finalize legitimately has none, so only a
            // partial tiling is a replay error here.
            if (s.blameCursor != s.openSince)
                checkBlameTiling(r.mismatches, pmo, s.openSince,
                                 s.blameCursor, len);
        }
        for (const auto &[tid, since] : s.threads) {
            (void)tid;
            t.tew.add(t_end >= since ? t_end - since : 0);
        }
    }

    // Every PMO either side saw must agree on both window kinds,
    // with the tracker and with the registry it publishes into, if any.
    const metrics::Registry *reg = expected.metricsRegistry();
    const std::size_t n =
        std::max<std::size_t>(r.pmos.size(), expected.pmoBound());
    if (reg && ids.pmo.size() < n)
        ids.pmo.resize(n, {metrics::Registry::noId, metrics::Registry::noId});
    const AuditReport::PmoTally none;
    metrics::Summary ewAll, tewAll;
    for (std::size_t pmo = 0; pmo < n; ++pmo) {
        const auto id = static_cast<pm::PmoId>(pmo);
        const AuditReport::PmoTally &t =
            pmo < r.pmos.size() ? r.pmos[pmo] : none;
        const metrics::Summary *wantEw = expected.ewSummaryFor(id);
        if (!wantEw && t.ew.count() == 0 && t.tew.count() == 0)
            continue; // neither side saw it
        std::array<char, 20> num;
        const std::string_view n = decimal(num, pmo);
        std::array<char, 64> name;
        compareTally(r.mismatches, joined(name, {"EW pmo ", n}),
                     "EwTracker", t.ew, wantEw);
        compareTally(r.mismatches, joined(name, {"TEW pmo ", n}),
                     "EwTracker", t.tew, expected.tewSummaryFor(id));
        if (reg) {
            compareHistogram(
                r.mismatches, *reg,
                joined(name, {"exposure.ew_cycles{pmo=\"", n, "\"}"}),
                ids.pmo[pmo][0], t.ew);
            compareHistogram(
                r.mismatches, *reg,
                joined(name, {"exposure.tew_cycles{pmo=\"", n, "\"}"}),
                ids.pmo[pmo][1], t.tew);
        }
        ewAll.merge(t.ew);
        tewAll.merge(t.tew);

        // Blame attribution: the recomputed per-cause totals must
        // equal the tracker's bit-exactly (third independent copy of
        // the blame-sum == EW invariant).
        for (unsigned c = 0; c < semantics::numBlameCauses; ++c) {
            const auto cause = static_cast<semantics::BlameCause>(c);
            Cycles want = expected.blameTotal(id, cause);
            if (t.blame[c] == want)
                continue;
            std::ostringstream os;
            os << "blame pmo " << pmo << " cause "
               << semantics::blameCauseName(cause) << ": trace replay "
               << t.blame[c] << " vs EwTracker " << want;
            r.mismatches.push_back(os.str());
        }
    }

    // The rollups against the merged replay.
    if (reg) {
        compareHistogram(r.mismatches, *reg,
                         "exposure.ew_cycles{pmo=\"all\"}", ids.all[0],
                         ewAll);
        compareHistogram(r.mismatches, *reg,
                         "exposure.tew_cycles{pmo=\"all\"}", ids.all[1],
                         tewAll);
    }

    r.ok = r.mismatches.empty();
    return r;
}

AuditReport
auditTimeline(const TraceSink &sink, Cycles t_end,
              const semantics::EwTracker &expected)
{
    TimelineReplay replay;
    replay.catchUp(sink);
    return replay.audit(t_end, expected);
}

AuditReport
auditTimelineFrom(const TimelineReplay &prefix, const TraceSink &sink,
                  Cycles t_end, const semantics::EwTracker &expected,
                  TimelineReplay &scratch)
{
    scratch = prefix;
    scratch.catchUp(sink);
    return scratch.audit(t_end, expected);
}

} // namespace trace
} // namespace terp
