#include "semantics/ew_tracker.hh"

#include <algorithm>
#include <string_view>

#include "common/logging.hh"

namespace terp {
namespace semantics {

const char *
blameCauseName(BlameCause c)
{
    switch (c) {
      case BlameCause::AppHold:
        return "app_hold";
      case BlameCause::SweeperLag:
        return "sweeper_lag";
      case BlameCause::QueueWait:
        return "queue_wait";
      case BlameCause::SlowClientHold:
        return "slow_client_hold";
      case BlameCause::RecoveryReopen:
        return "recovery_reopen";
      case BlameCause::TxnLockWait:
        return "txn_lock_wait";
      case BlameCause::EnergyDark:
        return "energy_dark";
      case BlameCause::NumCauses:
        break;
    }
    return "?";
}

namespace {

/**
 * `exposure.blame_<what>{cause="..."}` for cause @p c, @p what one of
 * "cycles" and "total": built once, since each crash point's world
 * takes the handles of the causes its driver has not recorded yet.
 */
const std::string &
blameName(std::string_view what, unsigned c)
{
    using Names = std::array<std::string, numBlameCauses>;
    static const std::array<Names, 2> names = [] {
        std::array<Names, 2> n;
        for (unsigned i = 0; i < numBlameCauses; ++i) {
            const char *cause = blameCauseName(static_cast<BlameCause>(i));
            n[0][i] = metrics::labeled("exposure.blame_cycles", "cause",
                                       cause);
            n[1][i] = metrics::labeled("exposure.blame_total", "cause",
                                       cause);
        }
        return n;
    }();
    return names[what == "total"][c];
}

} // namespace

EwTracker::PerPmo &
EwTracker::state(pm::PmoId pmo)
{
    if (pmo >= perPmo.size())
        perPmo.resize(pmo + 1);
    PerPmo &s = perPmo[pmo];
    s.seen = true;
    return s;
}

const EwTracker::PerPmo *
EwTracker::stateIfSeen(pm::PmoId pmo) const
{
    if (pmo >= perPmo.size() || !perPmo[pmo].seen)
        return nullptr;
    return &perPmo[pmo];
}

void
EwTracker::processOpen(pm::PmoId pmo, Cycles t)
{
    auto &s = state(pmo);
    TERP_ASSERT(!s.open, "double process-open of PMO ", pmo);
    s.open = true;
    s.openSince = t;
    s.segs.clear();
    s.causeSince = t;
    s.idleBase = recovering ? BlameCause::RecoveryReopen
                            : BlameCause::AppHold;
}

void
EwTracker::processClose(pm::PmoId pmo, Cycles t)
{
    auto &s = state(pmo);
    TERP_ASSERT(s.open, "process-close of unopened PMO ", pmo);
    TERP_ASSERT(t >= s.openSince, "time went backwards");
    closeBlame(s, pmo, t);
    recordEw(s, pmo, t - s.openSince);
    s.open = false;
    if (closeHook)
        closeHook(pmo, t, t - s.openSince);
}

void
EwTracker::threadOpen(unsigned tid, pm::PmoId pmo, Cycles t)
{
    auto &s = state(pmo);
    if (tid >= s.threadOpenSince.size())
        s.threadOpenSince.resize(tid + 1, notOpen);
    TERP_ASSERT(s.threadOpenSince[tid] == notOpen,
                "double thread-open, tid ", tid, " pmo ", pmo);
    if (s.open)
        flushBlame(s, t);
    s.threadOpenSince[tid] = t;
}

void
EwTracker::threadClose(unsigned tid, pm::PmoId pmo, Cycles t)
{
    auto &s = state(pmo);
    TERP_ASSERT(tid < s.threadOpenSince.size() &&
                    s.threadOpenSince[tid] != notOpen,
                "thread-close without open, tid ", tid);
    TERP_ASSERT(t >= s.threadOpenSince[tid], "time went backwards");
    if (s.open)
        flushBlame(s, t);
    recordTew(s, pmo, t - s.threadOpenSince[tid]);
    s.threadOpenSince[tid] = notOpen;
}

void
EwTracker::finalize(Cycles t_end)
{
    for (pm::PmoId pmo = 0; pmo < perPmo.size(); ++pmo) {
        PerPmo &s = perPmo[pmo];
        if (!s.seen)
            continue;
        if (s.open) {
            // A free-running sweeper can reopen a window beyond the
            // final thread clock; clamp like the crash path does.
            Cycles len =
                t_end >= s.openSince ? t_end - s.openSince : 0;
            closeBlame(s, pmo, s.openSince + len);
            recordEw(s, pmo, len);
            s.open = false;
            if (closeHook)
                closeHook(pmo, s.openSince + len, len);
        }
        for (Cycles &since : s.threadOpenSince) {
            if (since == notOpen)
                continue;
            recordTew(s, pmo, t_end >= since ? t_end - since : 0);
            since = notOpen;
        }
    }
}

// ---- blame ------------------------------------------------------------

bool
EwTracker::heldForBlame(const PerPmo &s)
{
    if (s.externalHold)
        return true;
    for (Cycles since : s.threadOpenSince)
        if (since != notOpen)
            return true;
    return false;
}

void
EwTracker::appendSeg(PerPmo &s, Cycles t, BlameCause c)
{
    if (!s.segs.empty() && s.segs.back().cause == c)
        s.segs.back().end = t;
    else
        s.segs.push_back({t, c});
    s.causeSince = t;
}

void
EwTracker::flushBlame(PerPmo &s, Cycles t)
{
    // Thread clocks are not globally monotone; a span that would end
    // before it began resolves later (or is truncated at close).
    if (t <= s.causeSince)
        return;
    if (s.holdCause != noCause) {
        appendSeg(s, t, static_cast<BlameCause>(s.holdCause));
    } else if (heldForBlame(s)) {
        appendSeg(s, t, BlameCause::AppHold);
    } else if (dark) {
        appendSeg(s, t, BlameCause::EnergyDark);
    } else if (s.idleCause != noCause) {
        appendSeg(s, t, static_cast<BlameCause>(s.idleCause));
    } else {
        // Idle with no override: the app's own gap up to the EW
        // deadline, the sweeper's lag beyond it.
        Cycles deadline = s.openSince + blameTarget;
        if (blameTarget == 0 || t <= deadline) {
            appendSeg(s, t, s.idleBase);
        } else {
            if (s.causeSince < deadline)
                appendSeg(s, deadline, s.idleBase);
            appendSeg(s, t, BlameCause::SweeperLag);
        }
    }
}

void
EwTracker::closeBlame(PerPmo &s, pm::PmoId pmo, Cycles t)
{
    flushBlame(s, t);

    // Truncate to the close time: flushes driven by other threads'
    // clocks may have resolved spans past a sweeper's earlier close.
    Cycles start = s.openSince;
    Cycles sum = 0;
    std::size_t keep = 0;
    Cycles causeLen[numBlameCauses] = {};
    for (BlameSeg &seg : s.segs) {
        if (start >= t)
            break;
        Cycles end = std::min(seg.end, t);
        if (end <= start)
            break;
        seg.end = end;
        causeLen[static_cast<unsigned>(seg.cause)] += end - start;
        sum += end - start;
        ++keep;
        start = end;
    }
    s.segs.resize(keep);

    TERP_ASSERT(sum == t - s.openSince,
                "blame segments don't tile window of PMO ", pmo);

    if (sink)
        for (const BlameSeg &seg : s.segs)
            sink->emit(trace::TraceSink::sweeperTid,
                       trace::EventKind::BlameSegment, seg.end, pmo,
                       static_cast<std::uint64_t>(seg.cause));
    for (unsigned c = 0; c < numBlameCauses; ++c) {
        if (!causeLen[c])
            continue;
        s.blame[c] += causeLen[c];
        if (!reg)
            continue;
        if (hBlame[c] == noId) {
            hBlame[c] = reg->histogramId(blameName("cycles", c));
            cBlame[c] = reg->counterId(blameName("total", c));
        }
        reg->histogramAt(hBlame[c]).record(causeLen[c]);
        reg->counterAt(cBlame[c]).inc(causeLen[c]);
        if (pmo < tenantOf.size() && !tenantOf[pmo].empty()) {
            if (s.tenantBlame[c] == noId)
                s.tenantBlame[c] = reg->counterId(metrics::labeled(
                    blameName("total", c), "tenant", tenantOf[pmo]));
            reg->counterAt(s.tenantBlame[c]).inc(causeLen[c]);
        }
    }
    s.segs.clear();
}

void
EwTracker::setExternalHold(pm::PmoId pmo, bool on, Cycles t)
{
    auto &s = state(pmo);
    if (s.externalHold == on)
        return;
    if (s.open)
        flushBlame(s, t);
    s.externalHold = on;
}

void
EwTracker::setHoldCause(pm::PmoId pmo, BlameCause c, Cycles t)
{
    auto &s = state(pmo);
    if (s.open)
        flushBlame(s, t);
    s.holdCause = static_cast<std::uint8_t>(c);
}

void
EwTracker::clearHoldCause(pm::PmoId pmo, Cycles t)
{
    auto &s = state(pmo);
    if (s.open)
        flushBlame(s, t);
    s.holdCause = noCause;
}

void
EwTracker::setIdleCause(pm::PmoId pmo, BlameCause c, Cycles t)
{
    auto &s = state(pmo);
    if (s.open)
        flushBlame(s, t);
    s.idleCause = static_cast<std::uint8_t>(c);
}

void
EwTracker::clearIdleCause(pm::PmoId pmo, Cycles t)
{
    auto &s = state(pmo);
    if (s.open)
        flushBlame(s, t);
    s.idleCause = noCause;
}

void
EwTracker::setEnergyDark(bool on, Cycles t)
{
    if (dark == on)
        return;
    for (PerPmo &s : perPmo)
        if (s.seen && s.open)
            flushBlame(s, t);
    dark = on;
}

void
EwTracker::resetTransientCauses()
{
    for (PerPmo &s : perPmo) {
        if (!s.seen)
            continue;
        TERP_ASSERT(!s.open,
                    "transient-cause reset with a window open");
        s.externalHold = false;
        s.holdCause = noCause;
        s.idleCause = noCause;
    }
}

void
EwTracker::setTenant(pm::PmoId pmo, const std::string &tenant)
{
    if (pmo >= tenantOf.size())
        tenantOf.resize(pmo + 1);
    tenantOf[pmo] = tenant;
    if (pmo < perPmo.size())
        perPmo[pmo].tenantBlame = noHandles();
}

void
EwTracker::enableMetrics(metrics::Registry *r)
{
    reg = r;
    hEwAll = hTewAll = cSloEw = cSloTew = noId;
    hBlame = cBlame = noHandles();
    for (PerPmo &s : perPmo) {
        s.hEw = s.hTew = noId;
        s.tenantBlame = noHandles();
    }
}

Cycles
EwTracker::blameTotal(pm::PmoId pmo, BlameCause c) const
{
    const PerPmo *s = stateIfSeen(pmo);
    return s ? s->blame[static_cast<unsigned>(c)] : 0;
}

Cycles
EwTracker::blameTotalAll(BlameCause c) const
{
    Cycles sum = 0;
    for (const PerPmo &s : perPmo)
        if (s.seen)
            sum += s.blame[static_cast<unsigned>(c)];
    return sum;
}

void
EwTracker::recordEw(PerPmo &s, pm::PmoId pmo, Cycles len)
{
    s.ew.add(len);
    if (sloEw > 0 && len > sloEw) {
        ++ewViolations;
        if (reg) {
            if (cSloEw == noId)
                cSloEw = reg->counterId(
                    "exposure.slo_violations{win=\"ew\"}");
            reg->counterAt(cSloEw).inc();
        }
    }
    if (reg) {
        if (s.hEw == noId)
            s.hEw = reg->histogramId(metrics::labeled(
                "exposure.ew_cycles", "pmo", std::to_string(pmo)));
        if (hEwAll == noId)
            hEwAll = reg->histogramId("exposure.ew_cycles{pmo=\"all\"}");
        reg->histogramAt(s.hEw).record(len);
        reg->histogramAt(hEwAll).record(len);
    }
}

void
EwTracker::recordTew(PerPmo &s, pm::PmoId pmo, Cycles len)
{
    s.tew.add(len);
    if (sloTew > 0 && len > sloTew) {
        ++tewViolations;
        if (reg) {
            if (cSloTew == noId)
                cSloTew = reg->counterId(
                    "exposure.slo_violations{win=\"tew\"}");
            reg->counterAt(cSloTew).inc();
        }
    }
    if (reg) {
        if (s.hTew == noId)
            s.hTew = reg->histogramId(metrics::labeled(
                "exposure.tew_cycles", "pmo", std::to_string(pmo)));
        if (hTewAll == noId)
            hTewAll = reg->histogramId("exposure.tew_cycles{pmo=\"all\"}");
        reg->histogramAt(s.hTew).record(len);
        reg->histogramAt(hTewAll).record(len);
    }
}

bool
EwTracker::processWindowOpen(pm::PmoId pmo) const
{
    const PerPmo *s = stateIfSeen(pmo);
    return s && s->open;
}

Cycles
EwTracker::processOpenSince(pm::PmoId pmo) const
{
    const PerPmo *s = stateIfSeen(pmo);
    TERP_ASSERT(s && s->open, "open-since of unopened PMO ", pmo);
    return s->openSince;
}

Cycles
EwTracker::threadOpenSince(unsigned tid, pm::PmoId pmo) const
{
    const PerPmo *s = stateIfSeen(pmo);
    TERP_ASSERT(s && tid < s->threadOpenSince.size() &&
                    s->threadOpenSince[tid] != notOpen,
                "open-since without open, tid ", tid);
    return s->threadOpenSince[tid];
}

namespace {

ExposureMetrics
fromSummaries(const metrics::Summary &ew, const metrics::Summary &tew,
              Cycles total, unsigned threads)
{
    ExposureMetrics m;
    m.ewCount = ew.count();
    m.tewCount = tew.count();
    m.ewAvgUs = cyclesToUs(static_cast<Cycles>(ew.mean()));
    m.ewMaxUs = cyclesToUs(ew.max());
    m.tewAvgUs = cyclesToUs(static_cast<Cycles>(tew.mean()));
    m.tewMaxUs = cyclesToUs(tew.max());
    if (total > 0) {
        m.er = static_cast<double>(ew.sum()) /
               static_cast<double>(total);
        m.ter = static_cast<double>(tew.sum()) /
                (static_cast<double>(total) *
                 std::max(1u, threads));
    }
    return m;
}

} // namespace

ExposureMetrics
EwTracker::metricsFor(pm::PmoId pmo, Cycles total,
                      unsigned threads) const
{
    const PerPmo *s = stateIfSeen(pmo);
    if (!s)
        return {};
    return fromSummaries(s->ew, s->tew, total, threads);
}

ExposureMetrics
EwTracker::metricsAll(Cycles total, unsigned threads) const
{
    // Average the per-PMO metrics, as Table IV does ("avg over all
    // PMOs").
    ExposureMetrics acc;
    unsigned n = 0;
    for (pm::PmoId pmo = 0; pmo < perPmo.size(); ++pmo) {
        if (!perPmo[pmo].seen)
            continue;
        ExposureMetrics m = metricsFor(pmo, total, threads);
        if (m.ewCount == 0 && m.tewCount == 0)
            continue;
        acc.ewAvgUs += m.ewAvgUs;
        acc.ewMaxUs = std::max(acc.ewMaxUs, m.ewMaxUs);
        acc.er += m.er;
        acc.tewAvgUs += m.tewAvgUs;
        acc.tewMaxUs = std::max(acc.tewMaxUs, m.tewMaxUs);
        acc.ter += m.ter;
        acc.ewCount += m.ewCount;
        acc.tewCount += m.tewCount;
        ++n;
    }
    if (n > 0) {
        acc.ewAvgUs /= n;
        acc.er /= n;
        acc.tewAvgUs /= n;
        acc.ter /= n;
    }
    return acc;
}

const metrics::Summary *
EwTracker::ewSummaryFor(pm::PmoId pmo) const
{
    const PerPmo *s = stateIfSeen(pmo);
    return s ? &s->ew : nullptr;
}

const metrics::Summary *
EwTracker::tewSummaryFor(pm::PmoId pmo) const
{
    const PerPmo *s = stateIfSeen(pmo);
    return s ? &s->tew : nullptr;
}

} // namespace semantics
} // namespace terp
