#include "check/recovery_oracle.hh"

#include <algorithm>
#include <set>
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
runTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc,
       pm::PmoId pmo,
       const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes)
{
    led.inFlight.clear();
    for (const auto &[oid, v] : writes) {
        (void)v;
        led.inFlight.push_back(oid.raw);
    }

    protOpen(w, tc, pmo);
    pm::UndoLog *log = w.persistence()->findLog(pmo);
    log->begin(tc);
    for (const auto &[oid, v] : writes) {
        w.runtime().access(tc, oid, /*write=*/true);
        log->write(tc, oid, v);
    }
    log->commit(tc);
    protClose(w, tc, pmo);

    // Only reached when the commit became durable.
    for (const auto &[oid, v] : writes)
        led.image[oid.raw] = v;
    led.inFlight.clear();
    ++led.done;
    w.advanceSweeps(tc.now());
}

void
checkDurable(CrashWorld &w, const Ledger &led,
             std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    // Keys of open TxManager transactions are judged by the flight
    // rule below (which still pins them to the committed value for
    // an undo transaction, but admits all-new for a redo one whose
    // commit was in flight), not by the strict committed-image scan.
    std::set<std::uint64_t> flightKeys;
    for (const auto &[tid, fl] : led.flight) {
        (void)tid;
        flightKeys.insert(fl.keys.begin(), fl.keys.end());
    }
    for (const auto &[raw, want] : led.image) {
        if (flightKeys.count(raw))
            continue;
        std::uint64_t got = ctl.persistedLoad(pm::Oid::fromRaw(raw));
        if (got != want) {
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
    for (std::uint64_t raw : led.inFlight) {
        if (led.image.count(raw))
            continue; // checked against the committed value above
        std::uint64_t got = ctl.persistedLoad(pm::Oid::fromRaw(raw));
        if (got != 0) {
            std::ostringstream os;
            os << "atomicity: in-flight write at offset 0x"
               << std::hex << pm::Oid::fromRaw(raw).offset()
               << " leaked into the durable image (0x" << got << ")";
            out.push_back(os.str());
        }
    }
    // TxManager transactions open at the crash: all-or-nothing. Undo
    // must recover to all-old; a redo whose commit was in progress
    // may land on either side of its durable point, but never mixed.
    for (const auto &[tid, fl] : led.flight) {
        bool allOld = true, allNew = true;
        for (std::uint64_t raw : fl.keys) {
            auto it = led.image.find(raw);
            std::uint64_t oldv = it == led.image.end() ? 0 : it->second;
            std::uint64_t got =
                ctl.persistedLoad(pm::Oid::fromRaw(raw));
            if (got != oldv)
                allOld = false;
            if (got != fl.newv.at(raw))
                allNew = false;
        }
        if (!(allOld || (fl.ambiguous && allNew))) {
            std::ostringstream os;
            os << "atomicity: transaction of tid " << tid
               << " recovered torn (not all-old"
               << (fl.ambiguous ? ", not all-new" : "") << ")";
            out.push_back(os.str());
        }
    }
}

void
armFlight(Ledger &led, unsigned tid, bool ambiguous,
          const std::vector<std::pair<pm::Oid, std::uint64_t>> &writes)
{
    TxFlight fl;
    fl.ambiguous = ambiguous;
    for (const auto &[oid, v] : writes) {
        fl.keys.push_back(oid.raw);
        fl.newv[oid.raw] = v;
    }
    led.flight[tid] = std::move(fl);
}

void
settleFlight(Ledger &led, unsigned tid, bool committed)
{
    if (committed) {
        for (const auto &[raw, v] : led.flight.at(tid).newv)
            led.image[raw] = v;
        ++led.done;
    }
    led.flight.erase(tid);
}

void
resolveFlights(CrashWorld &w, Ledger &led)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    for (const auto &[tid, fl] : led.flight) {
        (void)tid;
        bool allNew = fl.ambiguous && !fl.keys.empty();
        for (std::uint64_t raw : fl.keys) {
            if (ctl.persistedLoad(pm::Oid::fromRaw(raw)) !=
                fl.newv.at(raw)) {
                allNew = false;
                break;
            }
        }
        if (allNew) {
            for (const auto &[raw, v] : fl.newv)
                led.image[raw] = v;
            ++led.done;
        }
    }
    led.flight.clear();
    led.inFlight.clear();
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
auditTrace(CrashWorld &w, Cycles tEnd, std::vector<std::string> &out)
{
    if (auto sink = w.runtime().traceSink())
        report(trace::auditTimeline(*sink, tEnd, w.runtime().exposure()),
               out);
}

} // namespace check
} // namespace terp
