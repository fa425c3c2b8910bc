#include "check/oracle.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/units.hh"

namespace terp {
namespace check {

using semantics::SemanticsKind;
using semantics::Verdict;

namespace {

std::string
fmt(const char *what, std::uint64_t expect, std::uint64_t got)
{
    std::ostringstream os;
    os << what << ": expected " << expect << ", got " << got;
    return os.str();
}

SemanticsKind
specKindFor(const core::RuntimeConfig &cfg)
{
    switch (cfg.scheme) {
      case core::Scheme::MM:
      case core::Scheme::Basic:
        return SemanticsKind::Basic;
      case core::Scheme::TTNC:
        return SemanticsKind::Outermost;
      default:
        return SemanticsKind::EwConscious;
    }
}

double
ratio(std::uint64_t part, std::uint64_t whole)
{
    return whole ? static_cast<double>(part) / static_cast<double>(whole)
                 : 0.0;
}

} // namespace

SpecOracle::SpecOracle(const core::RuntimeConfig &config,
                       unsigned threads)
    : cfg(config), blockedOn(threads, -1)
{
    spec = semantics::AttachSemantics::make(specKindFor(cfg),
                                            cfg.ewTarget);
}

Cycles
SpecOracle::realAttachCost() const
{
    Cycles c = latency::attachSyscall;
    if (cfg.randomizeOnAttach())
        c += latency::randomize;
    if (usesCond())
        c += latency::silentCond;
    return c;
}

// ------------------------------------------------------- predicates

bool
SpecOracle::canEnd(unsigned tid, pm::PmoId pmo) const
{
    if (cfg.scheme == core::Scheme::Basic)
        return ownsBasic(tid, pmo);
    auto it = depth.find({tid, pmo});
    return it != depth.end() && it->second > 0;
}

bool
SpecOracle::canManualBegin(pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it == ps.end() || !it->second.mapped;
}

bool
SpecOracle::canManualEnd(pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it != ps.end() && it->second.mapped;
}

bool
SpecOracle::endSafeAt(unsigned tid, pm::PmoId pmo, Cycles now) const
{
    auto it = ps.find(pmo);
    if (it == ps.end() || !it->second.mapped)
        return true;
    const PmoState &s = it->second;
    if (now >= s.ewOpen)
        return true;
    // The thread's clock is behind the window's opening edge.  Only
    // ends that the runtime would lower to a real detach close the
    // window; silent/delayed ends never touch the tracker.
    if (cfg.scheme == core::Scheme::MM)
        return false; // manualEnd always unmaps
    if (cfg.scheme == core::Scheme::Basic)
        return false; // basic ends always lower to a real detach,
                      // and a sweeper randomize may have advanced
                      // the window edge past the owner's clock
    if (spec && spec->kind() == SemanticsKind::Outermost) {
        // No window combining: the last holder's outermost end
        // detaches immediately regardless of window age.
        auto d = depth.find({tid, pmo});
        bool outermost = d != depth.end() && d->second == 1;
        return !(outermost && s.holders.size() == 1 &&
                 s.holders.count(tid) > 0);
    }
    // EW-conscious schemes only detach once the window has aged past
    // the target, which implies now >= ewOpen.
    return true;
}

bool
SpecOracle::willBlock(unsigned tid, pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it != ps.end() && it->second.mapped &&
           it->second.basicOwner != static_cast<int>(tid);
}

bool
SpecOracle::ownsBasic(unsigned tid, pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it != ps.end() && it->second.mapped &&
           it->second.basicOwner == static_cast<int>(tid);
}

bool
SpecOracle::isBlocked(unsigned tid) const
{
    return blockedOn.at(tid) != -1;
}

// ------------------------------------------------- mirror plumbing

void
SpecOracle::openEw(PmoState &s, Cycles tCb, Cycles tPost)
{
    s.mapped = true;
    s.swLast = cfg.scheme == core::Scheme::TT ? tCb : tPost;
    s.ewOpen = tPost;
    blameOpen(s, tPost);
}

void
SpecOracle::closeEw(PmoState &s, Cycles t)
{
    blameClose(s, t >= s.ewOpen ? t : s.ewOpen);
    s.ew.add(t >= s.ewOpen ? t - s.ewOpen : 0);
    s.mapped = false;
    s.procMode = pm::Mode::None;
}

// The mirror replays EwTracker's segment algorithm over the oracle's
// own state: cause-relevant transitions (grants, revokes) resolve the
// tail span, the close truncates to the close time and asserts the
// tiling. Held means any mirrored thread window, manual span or basic
// owner; idle splits at the EW deadline into app_hold / sweeper_lag.
// The oracle never installs hold/idle overrides or dark periods —
// those need serve/txn/energy hooks outside the fuzzer's scope.

void
SpecOracle::blameOpen(PmoState &s, Cycles t)
{
    s.segs.clear();
    s.causeSince = t;
}

void
SpecOracle::blameFlush(PmoState &s, Cycles t)
{
    if (t <= s.causeSince)
        return;
    auto append = [&s](Cycles end, semantics::BlameCause c) {
        auto cc = static_cast<std::uint8_t>(c);
        if (!s.segs.empty() && s.segs.back().second == cc)
            s.segs.back().first = end;
        else
            s.segs.push_back({end, cc});
        s.causeSince = end;
    };
    bool held = !s.tewOpen.empty() || s.manualHeld ||
                s.basicOwner != -1;
    Cycles deadline = s.ewOpen + cfg.ewTarget;
    if (held || cfg.ewTarget == 0 || t <= deadline) {
        append(t, semantics::BlameCause::AppHold);
    } else {
        if (s.causeSince < deadline)
            append(deadline, semantics::BlameCause::AppHold);
        append(t, semantics::BlameCause::SweeperLag);
    }
}

void
SpecOracle::blameClose(PmoState &s, Cycles t)
{
    blameFlush(s, t);
    Cycles start = s.ewOpen;
    Cycles sum = 0;
    for (const auto &seg : s.segs) {
        if (start >= t)
            break;
        Cycles end = std::min(seg.first, t);
        if (end <= start)
            break;
        s.blame[seg.second] += end - start;
        sum += end - start;
        start = end;
    }
    s.segs.clear();
    TERP_ASSERT(sum == t - s.ewOpen,
                "oracle blame segments don't tile the window");
}

void
SpecOracle::grantMirror(PmoState &s, unsigned tid, pm::Mode mode,
                        Cycles t)
{
    if (s.mapped)
        blameFlush(s, t);
    s.holders[tid] = mode;
    s.tewOpen[tid] = t;
    // Runtime grantThread widens the process-matrix entry so every
    // granted mode stays covered (the Fig 4 condition).
    s.procMode = static_cast<pm::Mode>(
        static_cast<unsigned>(s.procMode) |
        static_cast<unsigned>(mode));
}

void
SpecOracle::revokeMirror(PmoState &s, unsigned tid, Cycles t)
{
    if (s.mapped)
        blameFlush(s, t);
    s.holders.erase(tid);
    auto it = s.tewOpen.find(tid);
    if (it != s.tewOpen.end()) {
        s.tew.add(t >= it->second ? t - it->second : 0);
        s.tewOpen.erase(it);
    }
}

// ------------------------------------------------- begin/end checks

void
SpecOracle::checkBegin(unsigned tid, pm::PmoId pmo, pm::Mode mode,
                       const Observed &o,
                       std::vector<std::string> &out)
{
    PmoState &s = ps[pmo];
    Cycles delta = o.tPost - o.tPre;

    if (cfg.scheme == core::Scheme::Basic) {
        // The replayer only routes non-blocking begins here.
        Verdict v = spec->onAttach(tid, pmo, o.tPost, mode);
        if (v != Verdict::Performed)
            out.push_back(std::string("spec rejects basic attach: ") +
                          semantics::verdictName(v));
        if (o.attaches != 1)
            out.push_back(fmt("basic begin attach syscalls", 1,
                              o.attaches));
        if (delta != realAttachCost())
            out.push_back(fmt("basic begin cycle charge",
                              realAttachCost(), delta));
        s.basicOwner = static_cast<int>(tid);
        s.procMode = mode;
        openEw(s, o.tPost, o.tPost);
        ++fullBegins;
        return;
    }

    unsigned &d = depth[{tid, pmo}];
    if (++d > 1) {
        ++nestedOps;
        Cycles want = usesCond() ? latency::silentCond
                                 : latency::permSyscall;
        if (o.attaches != 0)
            out.push_back(fmt("nested begin attach syscalls", 0,
                              o.attaches));
        if (delta != want)
            out.push_back(fmt("nested begin cycle charge", want,
                              delta));
        return;
    }

    // Outermost transition: the spec decides real vs. silent. The
    // EW-conscious model runs on the timeline the implementation's
    // decision point sees: the conditional-instruction time for TT,
    // the post-syscall software timestamp for TM.
    Cycles tSpec = usesCond() ? o.tPre + latency::silentCond : o.tPost;
    Verdict v = spec->onAttach(tid, pmo, tSpec, mode);
    bool real = v == Verdict::Performed;
    if (v != Verdict::Performed && v != Verdict::Silent)
        out.push_back(std::string("spec rejects begin: ") +
                      semantics::verdictName(v));

    std::uint64_t wantAtt = real ? 1 : 0;
    Cycles wantDelta =
        real ? realAttachCost()
             : (usesCond() ? latency::silentCond : latency::permSyscall);
    if (o.attaches != wantAtt)
        out.push_back(fmt("begin attach syscalls", wantAtt,
                          o.attaches));
    if (o.detaches != 0)
        out.push_back(fmt("begin detach syscalls", 0, o.detaches));
    if (delta != wantDelta)
        out.push_back(fmt("begin cycle charge", wantDelta, delta));

    if (real) {
        openEw(s, o.tPre + latency::silentCond, o.tPost);
        ++fullBegins;
    } else {
        ++silentBegins;
    }
    grantMirror(s, tid, mode, o.tPost);
}

void
SpecOracle::checkEnd(unsigned tid, pm::PmoId pmo, const Observed &o,
                     std::vector<std::string> &out)
{
    PmoState &s = ps[pmo];
    Cycles delta = o.tPost - o.tPre;
    Cycles realCost = latency::detachSyscall + latency::tlbInvalidate +
                      (usesCond() ? latency::silentCond : 0);

    if (cfg.scheme == core::Scheme::Basic) {
        Verdict v = spec->onDetach(tid, pmo, o.tPre);
        if (v != Verdict::Performed)
            out.push_back(std::string("spec rejects basic detach: ") +
                          semantics::verdictName(v));
        if (o.detaches != 1)
            out.push_back(fmt("basic end detach syscalls", 1,
                              o.detaches));
        if (delta != realCost)
            out.push_back(fmt("basic end cycle charge", realCost,
                              delta));
        // Close before dropping the owner: the runtime clears its
        // external hold after the detach, so the blame tail of a
        // basic end (the detach syscall span included) is app_hold.
        closeEw(s, o.tPost);
        s.basicOwner = -1;
        ++fullEnds;
        // The detach wakes every thread blocked on this PMO.
        for (auto &b : blockedOn)
            if (b == static_cast<int>(pmo))
                b = -1;
        return;
    }

    unsigned &d = depth[{tid, pmo}];
    if (--d > 0) {
        ++nestedOps;
        Cycles want = usesCond() ? latency::silentCond
                                 : latency::permSyscall;
        if (o.detaches != 0)
            out.push_back(fmt("nested end detach syscalls", 0,
                              o.detaches));
        if (delta != want)
            out.push_back(fmt("nested end cycle charge", want, delta));
        return;
    }

    // Outermost: thread permission is revoked at the decision point
    // (conditional-instruction time for TT, call time for TM).
    Cycles tDec = usesCond() ? o.tPre + latency::silentCond : o.tPre;
    Verdict v = spec->onDetach(tid, pmo, tDec);
    bool real = v == Verdict::Performed;
    if (v != Verdict::Performed && v != Verdict::Silent)
        out.push_back(std::string("spec rejects end: ") +
                      semantics::verdictName(v));

    std::uint64_t wantDet = real ? 1 : 0;
    Cycles wantDelta =
        real ? realCost
             : (usesCond() ? latency::silentCond : latency::permSyscall);
    if (o.detaches != wantDet)
        out.push_back(fmt("end detach syscalls", wantDet, o.detaches));
    if (o.attaches != 0)
        out.push_back(fmt("end attach syscalls", 0, o.attaches));
    if (delta != wantDelta)
        out.push_back(fmt("end cycle charge", wantDelta, delta));

    revokeMirror(s, tid, tDec);
    if (real) {
        closeEw(s, o.tPost);
        ++fullEnds;
    } else {
        ++silentEnds;
    }
}

void
SpecOracle::checkManualBegin(unsigned tid, pm::PmoId pmo,
                             pm::Mode mode, const Observed &o,
                             std::vector<std::string> &out)
{
    PmoState &s = ps[pmo];
    Verdict v = spec->onAttach(tid, pmo, o.tPost, mode);
    if (v != Verdict::Performed)
        out.push_back(std::string("spec rejects manual attach: ") +
                      semantics::verdictName(v));
    if (o.attaches != 1)
        out.push_back(fmt("manual begin attach syscalls", 1,
                          o.attaches));
    if (o.tPost - o.tPre != realAttachCost())
        out.push_back(fmt("manual begin cycle charge",
                          realAttachCost(), o.tPost - o.tPre));
    s.procMode = mode;
    s.manualHeld = true;
    openEw(s, o.tPost, o.tPost);
    ++fullBegins;
}

void
SpecOracle::checkManualEnd(unsigned tid, pm::PmoId pmo,
                           const Observed &o,
                           std::vector<std::string> &out)
{
    PmoState &s = ps[pmo];
    Verdict v = spec->onDetach(tid, pmo, o.tPre);
    if (v != Verdict::Performed)
        out.push_back(std::string("spec rejects manual detach: ") +
                      semantics::verdictName(v));
    if (o.detaches != 1)
        out.push_back(fmt("manual end detach syscalls", 1,
                          o.detaches));
    Cycles want = latency::detachSyscall + latency::tlbInvalidate;
    if (o.tPost - o.tPre != want)
        out.push_back(fmt("manual end cycle charge", want,
                          o.tPost - o.tPre));
    closeEw(s, o.tPost); // before the hold drops, as in the runtime
    s.manualHeld = false;
    ++fullEnds;
}

void
SpecOracle::noteBlocked(unsigned tid, pm::PmoId pmo,
                        std::vector<std::string> &out)
{
    if (cfg.scheme != core::Scheme::Basic) {
        out.push_back("non-basic scheme blocked a region begin");
        return;
    }
    blockedOn.at(tid) = static_cast<int>(pmo);
}

// ----------------------------------------------------------- access

core::AccessOutcome
SpecOracle::expectedAccess(unsigned tid, pm::PmoId pmo,
                           bool write) const
{
    auto it = ps.find(pmo);
    if (it == ps.end() || !it->second.mapped)
        return core::AccessOutcome::NoMapping;
    const PmoState &s = it->second;
    if (!pm::modeAllows(s.procMode, write))
        return core::AccessOutcome::NoProcessPerm;
    if (cfg.threadPerms()) {
        auto h = s.holders.find(tid);
        if (h == s.holders.end() || !pm::modeAllows(h->second, write))
            return core::AccessOutcome::NoThreadPerm;
    }
    return core::AccessOutcome::Ok;
}

void
SpecOracle::checkAccessVerdict(unsigned tid, pm::PmoId pmo, bool write,
                               Cycles t, core::AccessOutcome actual,
                               std::vector<std::string> &out)
{
    Verdict v = spec->onAccess(tid, pmo, t, write);
    bool coherent = true;
    using AO = core::AccessOutcome;
    switch (spec->kind()) {
      case SemanticsKind::EwConscious:
        coherent = (v == Verdict::SegFault) == (actual == AO::NoMapping)
                   && (v == Verdict::Valid) == (actual == AO::Ok);
        break;
      case SemanticsKind::Outermost:
        // The outermost model carries no per-thread state: it can
        // only arbitrate mapped vs. unmapped.
        coherent = (v == Verdict::SegFault) == (actual == AO::NoMapping);
        break;
      case SemanticsKind::Basic:
        coherent = (v == Verdict::Invalid) == (actual == AO::NoMapping);
        break;
      default:
        break;
    }
    if (!coherent) {
        std::ostringstream os;
        os << "spec access verdict " << semantics::verdictName(v)
           << " incoherent with runtime outcome "
           << core::accessOutcomeName(actual);
        out.push_back(os.str());
    }
}

// ----------------------------------------------------------- sweeps

std::vector<PlannedSweep>
SpecOracle::planSweep(Cycles now, std::vector<std::string> &out)
{
    std::vector<PlannedSweep> plan;
    for (auto &[pmo, s] : ps) {
        if (!s.mapped || now < s.swLast + cfg.ewTarget)
            continue;
        // Exact mirror of the runtime's idle test (holders == 0):
        // basic counts its exclusive owner, MM its manual span, the
        // lowered schemes their thread-permission holders. Idle and
        // expired means full detach regardless of insertion mode.
        bool held = cfg.scheme == core::Scheme::Basic
                        ? s.basicOwner != -1
                        : !s.holders.empty() || s.manualHeld;
        plan.push_back({pmo, !held});
    }

    if (spec->kind() == SemanticsKind::EwConscious) {
        // The spec model has its own sweeper; its decisions must
        // match the mirror's plan exactly.
        auto sp = spec->onSweep(now);
        bool match = sp.size() == plan.size();
        for (std::size_t i = 0; match && i < sp.size(); ++i)
            match = sp[i].pmo == plan[i].pmo &&
                    sp[i].detached == plan[i].detach;
        if (!match) {
            std::ostringstream os;
            os << "spec onSweep(" << now << ") disagrees with mirror ("
               << sp.size() << " vs " << plan.size() << " actions)";
            out.push_back(os.str());
        }
    }
    return plan;
}

void
SpecOracle::applySweepDetach(pm::PmoId pmo, Cycles closeAt)
{
    closeEw(ps[pmo], closeAt);
    ++sweepDetaches;
}

void
SpecOracle::applySweepRandomize(pm::PmoId pmo, Cycles now)
{
    PmoState &s = ps[pmo];
    blameClose(s, now >= s.ewOpen ? now : s.ewOpen);
    s.ew.add(now >= s.ewOpen ? now - s.ewOpen : 0);
    s.ewOpen = now;
    s.swLast = now;
    blameOpen(s, now);
}

void
SpecOracle::checkSweepInvariant(Cycles now,
                                std::vector<std::string> &out) const
{
    for (const auto &[pmo, s] : ps) {
        if (s.mapped && now >= s.swLast + cfg.ewTarget) {
            std::ostringstream os;
            os << "PMO " << pmo << " outlived the EW target across a "
               << "sweep at " << now << " (window keyed at "
               << s.swLast << ")";
            out.push_back(os.str());
        }
    }
}

// ------------------------------------------------ crash / recovery

void
SpecOracle::noteCrash(Cycles at)
{
    for (auto &[pmo, s] : ps) {
        (void)pmo;
        // Revoke thread windows one by one (tid ascending, like the
        // runtime's crash path) with each close clamped to the
        // window's own opening edge; every revoke resolves a blame
        // span while the later tids still count as holding.
        for (auto it = s.tewOpen.begin(); it != s.tewOpen.end();) {
            Cycles since = it->second;
            if (s.mapped)
                blameFlush(s, at >= since ? at : since);
            s.tew.add(at >= since ? at - since : 0);
            it = s.tewOpen.erase(it);
        }
        s.holders.clear();
        if (s.mapped)
            closeEw(s, at);
        s.basicOwner = -1;
        s.manualHeld = false;
    }
    depth.clear();
    for (auto &b : blockedOn)
        b = -1;
    // The restarted process begins with a fresh semantics model.
    spec = semantics::AttachSemantics::make(specKindFor(cfg),
                                            cfg.ewTarget);
}

// ------------------------------------------------------- end of run

void
SpecOracle::finalize(Cycles tEnd)
{
    for (auto &[pmo, s] : ps) {
        (void)pmo;
        if (s.mapped) {
            // Blame first: at the final close the still-open thread
            // windows must count as holding (the tracker's finalize
            // closes the process window before revoking threads).
            blameClose(s, tEnd >= s.ewOpen ? tEnd : s.ewOpen);
            s.ew.add(tEnd >= s.ewOpen ? tEnd - s.ewOpen : 0);
        }
        for (auto &[tid, since] : s.tewOpen) {
            (void)tid;
            s.tew.add(tEnd >= since ? tEnd - since : 0);
        }
        s.tewOpen.clear();
    }
}

const metrics::Summary *
SpecOracle::ewSummary(pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it == ps.end() ? nullptr : &it->second.ew;
}

const metrics::Summary *
SpecOracle::tewSummary(pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it == ps.end() ? nullptr : &it->second.tew;
}

Cycles
SpecOracle::blameTotal(pm::PmoId pmo, semantics::BlameCause c) const
{
    auto it = ps.find(pmo);
    return it == ps.end()
               ? 0
               : it->second.blame[static_cast<unsigned>(c)];
}

// ----------------------------------------------------- state probes

bool
SpecOracle::mappedView(pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it != ps.end() && it->second.mapped;
}

bool
SpecOracle::holdsView(unsigned tid, pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it != ps.end() && it->second.holders.count(tid) > 0;
}

std::size_t
SpecOracle::holderCountView(pm::PmoId pmo) const
{
    auto it = ps.find(pmo);
    return it == ps.end() ? 0 : it->second.holders.size();
}

double
SpecOracle::expectedSilentFraction() const
{
    switch (cfg.scheme) {
      case core::Scheme::TT: {
        // With the CB: cases 2,3 (silent attach) + 4,6 (partial /
        // delayed detach) over every CB-visited outermost op.
        std::uint64_t silent = silentBegins + silentEnds;
        return ratio(silent, silent + fullBegins + fullEnds);
      }
      case core::Scheme::TTNC:
        // The "+Cond" ablation counts its software ratio on the
        // attach side only (cond_silent_nocb / cond_*_nocb).
        return ratio(silentBegins, silentBegins + fullBegins);
      case core::Scheme::TM: {
        // perm_syscalls (silent + nested lowered calls) over every
        // kernel entry that touches permissions or mappings; the
        // sweeper's delayed detaches enter the denominator too.
        std::uint64_t silent =
            silentBegins + silentEnds + nestedOps;
        return ratio(silent,
                     silent + fullBegins + fullEnds + sweepDetaches);
      }
      default:
        return 0.0;
    }
}

} // namespace check
} // namespace terp
