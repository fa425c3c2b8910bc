#include "check/recovery_oracle.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace terp {
namespace check {

namespace {

/**
 * No more cores than threads: thread t runs on core t % cores either
 * way, so the cores no thread touches would only be caches and TLBs
 * that every forked world copies.
 */
core::DomainConfig
worldConfig(const core::RuntimeConfig &cfg, unsigned threads)
{
    core::DomainConfig dc;
    dc.runtime = cfg;
    dc.machine.cores = std::clamp(threads, 1u, dc.machine.cores);
    dc.persistence = true;
    return dc;
}

/** An audit's verdict as "trace audit: ..." violations. */
void
report(const trace::AuditReport &rep, std::vector<std::string> &out)
{
    for (const std::string &m : rep.mismatches)
        out.push_back("trace audit: " + m);
    if (!rep.ok && rep.mismatches.empty())
        out.push_back("trace audit failed without detail");
}

} // namespace

CrashWorld::CrashWorld(const core::RuntimeConfig &config,
                       unsigned pmoCount, unsigned threads,
                       std::uint64_t pmo_bytes, std::uint64_t log_off)
    : core::ShardDomain(worldConfig(config, threads)), cfg(config),
      nPmos(pmoCount), pmoBytes(pmo_bytes)
{
    for (unsigned p = 0; p < nPmos; ++p) {
        std::ostringstream name;
        name << "crash-p" << p;
        pmos().create(name.str(), pmoBytes);
    }
    for (unsigned p = 1; p <= nPmos; ++p)
        persistence()->openLog(p, log_off);
    for (unsigned t = 0; t < threads; ++t)
        machine().spawnThread();
}

CrashWorld::CrashWorld(const CrashWorld &o)
    : core::ShardDomain(o), cfg(o.cfg), nPmos(o.nPmos),
      pmoBytes(o.pmoBytes)
{
    TERP_ASSERT(!o.sweepGate, "CrashWorld: copy of a gated world");
}

CrashWorld &
CrashWorld::operator=(const CrashWorld &o)
{
    TERP_ASSERT(!o.sweepGate, "CrashWorld: copy of a gated world");
    core::ShardDomain::operator=(o);
    cfg = o.cfg;
    nPmos = o.nPmos;
    pmoBytes = o.pmoBytes;
    return *this;
}

void
armFlight(Ledger &led, unsigned tid, pm::TxKind kind,
          const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes)
{
    if (led.flights.size() <= tid)
        led.flights.resize(tid + 1);
    TxFlight &fl = led.flights[tid];
    fl.kind = kind;
    fl.committing = false;
    fl.writes = writes;
}

void
markCommitting(Ledger &led, unsigned tid)
{
    led.flights.at(tid).committing = true;
}

void
settleFlight(Ledger &led, unsigned tid, bool committed)
{
    TxFlight &fl = led.flights.at(tid);
    if (committed) {
        for (const auto &[oid, v] : fl.writes)
            led.image[oid.raw] = v;
        ++led.done;
    }
    fl.committing = false;
    fl.writes.clear();
}

void
runTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
       pm::PmoId pmo,
       const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes)
{
    armFlight(led, tc.tid(), pm::TxKind::Undo, writes);
    protOpen(w, tc, pmo);
    pm::UndoLog *log = w.persistence()->findLog(pmo);
    log->begin(tc);
    for (const auto &[oid, v] : writes) {
        w.runtime().access(tc, oid, /*write=*/true);
        log->write(tc, oid, v);
    }
    markCommitting(led, tc.tid());
    log->commit(tc);
    settleFlight(led, tc.tid(), true);
    protClose(w, tc, pmo);
    w.advanceSweeps(tc.now());
}

namespace {

/**
 * The flight rule: every flight may recover all-old, and a
 * committing redo flight may also recover all-new.
 */
bool
mayLandNew(const TxFlight &fl)
{
    return fl.kind == pm::TxKind::Redo && fl.committing;
}

/** How an open flight's keys read in the durable image. */
enum class Landing
{
    Old,  //!< all-old
    New,  //!< all-new, and mayLandNew()
    Torn, //!< anything else
};

/** A key's old value is its committed one, or 0 when none is. */
Landing
landing(const TxFlight &fl, const Ledger &led,
        const pm::PersistController &ctl)
{
    bool allOld = true;
    bool allNew = mayLandNew(fl);
    for (const auto &[oid, v] : fl.writes) {
        auto it = led.image.find(oid.raw);
        std::uint64_t oldv = it == led.image.end() ? 0 : it->second;
        std::uint64_t got = ctl.persistedLoad(oid);
        allOld = allOld && got == oldv;
        allNew = allNew && got == v;
    }
    return allNew ? Landing::New : allOld ? Landing::Old : Landing::Torn;
}

bool
inOpenFlight(const Ledger &led, std::uint64_t raw)
{
    for (const TxFlight &fl : led.flights)
        for (const auto &[oid, v] : fl.writes)
            if (oid.raw == raw)
                return true;
    return false;
}

/**
 * The atomicity oracle's image scan: every committed value is
 * durable, except where an open flight writes (resolveFlights judges
 * those words).
 */
void
checkDurable(CrashWorld &w, const Ledger &led,
             std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    for (const auto &[raw, want] : led.image) {
        std::uint64_t got = ctl.persistedLoad(pm::Oid::fromRaw(raw));
        if (got != want && !inOpenFlight(led, raw)) {
            std::ostringstream os;
            os << "atomicity: durable word at pmo "
               << pm::Oid::fromRaw(raw).pool() << " offset 0x"
               << std::hex << pm::Oid::fromRaw(raw).offset()
               << " = 0x" << got << ", committed image says 0x"
               << want << " (after " << std::dec << led.done
               << " commits)";
            out.push_back(os.str());
        }
    }
}

} // namespace

void
resolveFlights(CrashWorld &w, Ledger &led, std::vector<std::string> &out)
{
    checkDurable(w, led, out);
    const pm::PersistController &ctl = w.persistence()->controller();
    for (unsigned tid = 0; tid < led.flights.size(); ++tid) {
        const TxFlight &fl = led.flights[tid];
        if (fl.writes.empty())
            continue;
        const Landing l = landing(fl, led, ctl);
        if (l == Landing::Torn) {
            std::ostringstream os;
            os << "atomicity: open " << pm::txKindName(fl.kind)
               << " transaction of tid " << tid << " recovered torn (not "
               << (mayLandNew(fl) ? "all-old, not all-new" : "all-old")
               << ")";
            out.push_back(os.str());
        }
        settleFlight(led, tid, l == Landing::New);
    }
}

// The manual bookends are no-ops unless the scheme is MM and the
// region ones are no-ops under MM, so both pairs serve every scheme.
void
protOpen(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo)
{
    w.runtime().manualBegin(tc, pmo, pm::Mode::ReadWrite);
    w.runtime().regionBegin(tc, pmo, pm::Mode::ReadWrite);
}

void
protClose(CrashWorld &w, sim::ThreadContext &tc, pm::PmoId pmo)
{
    w.runtime().regionEnd(tc, pmo);
    w.runtime().manualEnd(tc, pmo);
}

void
drainIdleWindows(CrashWorld &w, const char *when,
                 std::vector<std::string> &out)
{
    // The recovery attach must be closed by the scheme's normal idle
    // path: once every window is past the target, the sweeper has no
    // excuse to leave a PMO mapped. The drain is time-targeted, not
    // hook-counted: a fault that fired mid-op leaves the hook grid
    // behind the thread clocks, and every lastRealAttach is bounded
    // by maxClock, so sweeping to maxClock + target (plus slack for
    // the delayed-detach grace) provably covers every idle window.
    Cycles target = w.machine().maxClock() + w.cfg.ewTarget +
                    16 * w.machine().config().hookPeriod;
    w.sweepTo(target);
    for (unsigned p = 1; p <= w.nPmos; ++p) {
        if (w.runtime().mapped(p)) {
            std::ostringstream os;
            os << "exposure: PMO " << p
               << " still mapped after the idle sweeper drained "
               << "a full window target past " << when;
            out.push_back(os.str());
        }
    }
}

void
checkLogsRetired(CrashWorld &w, std::vector<std::string> &out)
{
    for (const auto &[pmo, log] : w.persistence()->logs()) {
        (void)pmo;
        if (log->recoveryPending())
            out.push_back("recovery left an in-flight log record");
    }
    for (const auto &[pmo, log] : w.persistence()->redoLogs()) {
        (void)pmo;
        if (log->recoveryPending())
            out.push_back("recovery left an in-flight redo record");
    }
}

void
probeTxn(CrashWorld &w, Ledger &led, std::uint64_t value,
         std::vector<std::string> &out)
{
    // Sync the probe thread past the fired hooks first so its window
    // opens after any the sweeper just closed.
    sim::ThreadContext &tc = w.machine().thread(0);
    Cycles drained =
        w.nextSweepTick() - w.machine().config().hookPeriod;
    if (tc.now() < drained)
        tc.syncTo(drained, sim::Charge::Other);
    runTxn(w, led, tc, 1, {{pm::Oid(1, w.pmoBytes - 8), value}});
    checkDurable(w, led, out);

    // The probe's own window must drain the same way.
    drainIdleWindows(w, "the probe transaction", out);
}

void
probeAndDrain(CrashWorld &w, Ledger &led, std::vector<std::string> &out,
              const trace::TimelineReplay &prefix,
              trace::TimelineReplay *audit)
{
    checkLogsRetired(w, out);

    // This runs before the probe transaction — recovery's mapping is
    // idle, not a span the application may nest inside.
    drainIdleWindows(w, "recovery", out);
    probeTxn(w, led, 0x900d900dULL, out);

    Cycles tEnd = w.machine().maxClock();
    w.runtime().closeWindows();
    if (auto sink = w.runtime().traceSink()) {
        trace::TimelineReplay own;
        report(trace::auditTimelineFrom(prefix, *sink, tEnd,
                                        w.runtime().exposure(),
                                        audit ? *audit : own),
               out);
    }
}

void
auditTrace(CrashWorld &w, Cycles tEnd, trace::TimelineReplay &audited,
           std::vector<std::string> &out)
{
    if (auto sink = w.runtime().traceSink()) {
        audited.catchUp(*sink);
        report(audited.audit(tEnd, w.runtime().exposure()), out);
    }
}

} // namespace check
} // namespace terp
