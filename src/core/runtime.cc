#include "core/runtime.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/logging.hh"
#include "pm/persist.hh"
#include "pm/tx_manager.hh"

namespace terp {
namespace core {

const char *
accessOutcomeName(AccessOutcome o)
{
    switch (o) {
      case AccessOutcome::Ok: return "ok";
      case AccessOutcome::NoMapping: return "segfault(no-mapping)";
      case AccessOutcome::NoProcessPerm: return "denied(process)";
      case AccessOutcome::NoThreadPerm: return "denied(thread)";
      default: return "?";
    }
}

Runtime::Runtime(sim::Machine &machine, pm::PmoManager &pmos,
                 const RuntimeConfig &config)
    : mach(machine), pm_(pmos), cfg(config)
{
    if (cfg.traceEnabled)
        sink = std::make_shared<trace::TraceSink>(cfg.traceCapacity);
    ew.setSlo(cfg.ewSlo, cfg.tewSlo);
    // Idle-past-deadline spans are the sweeper's fault: blame keys on
    // the same target the sweep rules use. Always on (charge-free).
    ew.setBlameTarget(cfg.ewTarget);
    ew.setTraceSink(sink.get());
    if (cfg.metricsEnabled) {
        reg = std::make_shared<metrics::Registry>();
        reg->setLabel("scheme", schemeTag(cfg.scheme));
        ew.enableMetrics(reg.get());
        mSweepTicks = reg->counterId("sweeper.ticks");
        mSweepForceDetach = reg->counterId("sweeper.force_detach");
        mSweepRandomize = reg->counterId("sweeper.randomize");
        mSweepPmoScans = reg->counterId("host.sweep_pmo_scans");
        mSweepTickNs = reg->histogramId("host.sweep_tick_ns");
        if (cfg.scheme == Scheme::TT)
            mCbOccupancy = reg->gaugeId("cb.occupancy");
    }
    if (sink) {
        mach.setTraceSink(sink.get());
        pm_.setTraceSink(sink.get());
    }
}

namespace {

/** Make @p to a copy of @p from, into the object @p to holds. */
template <class T>
void
assignShared(std::shared_ptr<T> &to, const std::shared_ptr<T> &from)
{
    if (!from)
        to.reset();
    else if (to)
        *to = *from;
    else
        to = std::make_shared<T>(*from);
}

} // namespace

Runtime &
Runtime::operator=(const Runtime &o)
{
    TERP_ASSERT(!o.ew.hasCloseHook(),
                "Runtime: copy of a tracker with a close hook");
    TERP_ASSERT(!o.txm || dom,
                "Runtime: transactions copied into a runtime with no "
                "persistence domain");
    cfg = o.cfg;
    assignShared(sink, o.sink);
    assignShared(reg, o.reg);
    cb = o.cb;
    domains = o.domains;
    matrix = o.matrix;
    ew = o.ew;
    ew.rebind(reg.get(), sink.get());
    if (!o.txm) {
        txm.reset();
    } else {
        if (txm)
            *txm = *o.txm;
        else
            txm = std::make_unique<pm::TxManager>(*o.txm);
        txm->rebind(*dom, &ew);
    }
    mSweepTicks = o.mSweepTicks;
    mSweepForceDetach = o.mSweepForceDetach;
    mSweepRandomize = o.mSweepRandomize;
    mSweepPmoScans = o.mSweepPmoScans;
    mCbOccupancy = o.mCbOccupancy;
    mSweepTickNs = o.mSweepTickNs;
    sweepTickSeq = o.sweepTickSeq;
    std::copy(std::begin(o.ctr), std::end(o.ctr), ctr);
    maps = o.maps;
    mappedBits = o.mappedBits;
    regionDepth = o.regionDepth;
    finalized = o.finalized;
    mach.setTraceSink(sink.get());
    pm_.setTraceSink(sink.get());
    return *this;
}

Runtime::~Runtime()
{
    // The machine and PMO manager outlive this runtime; don't leave
    // them holding a pointer into a sink we may be the last owner of.
    if (sink) {
        mach.setTraceSink(nullptr);
        pm_.setTraceSink(nullptr);
    }
}

void
Runtime::attachPersistence(pm::PersistDomain *domain)
{
    dom = domain;
    // Lock-contention spans re-attribute the holder's window: the
    // cycles are the same, the cause is the waiter.
    txm = domain ? std::make_unique<pm::TxManager>(*domain, &ew)
                 : nullptr;
}

Runtime::MapState &
Runtime::mapState(pm::PmoId pmo)
{
    if (pmo >= maps.size()) {
        maps.resize(pmo + 1);
        mappedBits.resize((maps.size() + 63) / 64, 0);
    }
    return maps[pmo];
}

unsigned &
Runtime::depthSlot(unsigned tid, pm::PmoId pmo)
{
    if (tid >= regionDepth.size())
        regionDepth.resize(tid + 1);
    auto &row = regionDepth[tid];
    if (pmo >= row.size())
        row.resize(pmo + 1, 0);
    return row[pmo];
}

sim::ThreadContext *
Runtime::minClockThread()
{
    sim::ThreadContext *best = nullptr;
    for (unsigned i = 0; i < mach.threadCount(); ++i) {
        sim::ThreadContext &t = mach.thread(i);
        if (t.done)
            continue;
        if (!best || t.now() < best->now())
            best = &t;
    }
    // No live thread (post-run drain): nobody to charge; callers use
    // the chargeless paths instead of billing a finished thread.
    return best;
}

// ------------------------------------------------------------- helpers

void
Runtime::doRealAttach(sim::ThreadContext &tc, pm::PmoId pmo,
                      pm::Mode mode)
{
    tc.charge(sim::Charge::Attach, latency::attachSyscall);
    ++ctr[ctrAttachSyscalls];
    if (cfg.randomizeOnAttach()) {
        // MERR-style randomized placement at every real attach.
        tc.charge(sim::Charge::Rand, latency::randomize);
        ++ctr[ctrRandomizations];
    }

    pm::Pmo &p = pm_.pmo(pmo);
    pm_.mapRandomized(p);
    matrix.add(pmo, p.vaddrBase(), p.size(), mode);
    ew.processOpen(pmo, tc.now());
    emit(tc, trace::EventKind::RealAttach, pmo, p.vaddrBase());

    auto &m = mapState(pmo);
    m.mapped = true;
    m.lastRealAttach = tc.now();
    m.grantedMode = mode;
    ++m.gen;
    setMappedBit(pmo, true);
}

void
Runtime::doRealDetach(sim::ThreadContext &tc, pm::PmoId pmo)
{
    doRealDetachAt(&tc, pmo, tc.now());
}

void
Runtime::doRealDetachAt(sim::ThreadContext *tc, pm::PmoId pmo,
                        Cycles at)
{
    if (tc) {
        tc->charge(sim::Charge::Detach,
                   latency::detachSyscall + latency::tlbInvalidate);
        at = tc->now();
    }
    ++ctr[ctrDetachSyscalls];

    pm::Pmo &p = pm_.pmo(pmo);
    pm::MapChange ch = pm_.unmap(p);
    mach.shootdownRange(ch.oldBase, ch.oldBase + ch.size);
    matrix.remove(pmo);
    ew.processClose(pmo, at);
    if (tc)
        emit(*tc, trace::EventKind::RealDetach, pmo, ch.oldBase);
    else
        emitSweeper(trace::EventKind::RealDetach, at, pmo, ch.oldBase);
    auto &m = mapState(pmo);
    m.mapped = false;
    ++m.gen;
    setMappedBit(pmo, false);
}

void
Runtime::doRandomize(pm::PmoId pmo, Cycles at)
{
    pm::Pmo &p = pm_.pmo(pmo);
    pm::MapChange ch = pm_.rerandomize(p);
    mach.shootdownRange(ch.oldBase, ch.oldBase + ch.size);
    matrix.rebase(pmo, ch.newBase);
    ++ctr[ctrRandomizations];
    emitSweeper(trace::EventKind::Randomize, at, pmo, ch.newBase);

    // Randomization suspends every thread for the remap plus the TLB
    // shootdown (Section V-B); each thread loses that time.
    for (unsigned i = 0; i < mach.threadCount(); ++i) {
        sim::ThreadContext &t = mach.thread(i);
        if (!t.done) {
            t.charge(sim::Charge::Rand,
                     latency::randomize + latency::tlbInvalidate);
        }
    }
}

void
Runtime::grantThread(sim::ThreadContext &tc, pm::PmoId pmo,
                     pm::Mode mode)
{
    // A lowered attach may request broader rights than the mode the
    // PMO was originally mapped with; the process-level mapping must
    // cover the union of granted modes (Fig 4: T2's attach(RW) after
    // T1's attach(R) must make T2's stores legal). Found by terp-fuzz.
    matrix.widen(pmo, mode);
    domains.grant(tc.tid(), pmo, mode);
    ew.threadOpen(tc.tid(), pmo, tc.now());
    emit(tc, trace::EventKind::ThreadGrant, pmo,
         static_cast<std::uint64_t>(mode));
}

void
Runtime::revokeThread(sim::ThreadContext &tc, pm::PmoId pmo)
{
    domains.revoke(tc.tid(), pmo);
    ew.threadClose(tc.tid(), pmo, tc.now());
    emit(tc, trace::EventKind::ThreadRevoke, pmo);
}

// ------------------------------------------------- manual (MM) markers

void
Runtime::manualBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                     pm::Mode mode)
{
    if (cfg.scheme != Scheme::MM)
        return;
    auto &m = mapState(pmo);
    TERP_ASSERT(!m.mapped, "MM: nested manual attach on PMO ", pmo);
    emit(tc, trace::EventKind::RegionBegin, pmo,
         static_cast<std::uint64_t>(mode));
    doRealAttach(tc, pmo, mode);
    mapState(pmo).holders = 1;
    // Manual spans hold the window open without a thread-permission
    // grant; tell blame so the span reads as held, not idle.
    ew.setExternalHold(pmo, true, tc.now());
}

void
Runtime::manualEnd(sim::ThreadContext &tc, pm::PmoId pmo)
{
    if (cfg.scheme != Scheme::MM)
        return;
    auto &m = mapState(pmo);
    TERP_ASSERT(m.mapped, "MM: manual detach of unattached PMO ", pmo);
    m.holders = 0;
    // Detach first: the span up to the close (detach syscall
    // included) is still the manual span's hold.
    doRealDetach(tc, pmo);
    ew.setExternalHold(pmo, false, tc.now());
    emit(tc, trace::EventKind::RegionEnd, pmo);
}

// ------------------------------------------------ auto-inserted regions

GuardResult
Runtime::regionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                     pm::Mode mode)
{
    if (cfg.scheme == Scheme::Basic)
        return basicRegionBegin(tc, pmo, mode);
    if (cfg.condInstructions())
        ttRegionBegin(tc, pmo, mode);
    else if (cfg.scheme == Scheme::TM)
        tmRegionBegin(tc, pmo, mode);
    return GuardResult::Ok;
}

void
Runtime::regionEnd(sim::ThreadContext &tc, pm::PmoId pmo)
{
    if (cfg.scheme == Scheme::Basic)
        basicRegionEnd(tc, pmo);
    else if (cfg.condInstructions())
        ttRegionEnd(tc, pmo);
    else if (cfg.scheme == Scheme::TM)
        tmRegionEnd(tc, pmo);
}

// TT: conditional instructions, optionally with window combining.

void
Runtime::ttRegionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                       pm::Mode mode)
{
    emit(tc, trace::EventKind::RegionBegin, pmo,
         static_cast<std::uint64_t>(mode));
    tc.charge(sim::Charge::Cond, latency::silentCond);
    ++ctr[ctrCondOps];

    // Function composability: a dynamically nested pair (callee
    // inside the caller's open pair) lowers to a no-op beyond the
    // conditional instruction itself.
    unsigned &depth = depthSlot(tc.tid(), pmo);
    if (++depth > 1) {
        ++ctr[ctrNestedRegions];
        emit(tc, trace::EventKind::SilentAttach, pmo,
             trace::silent::nested);
        return;
    }

    if (cfg.scheme == Scheme::TT) {
        arch::CondAttachCase c = cb.condAttach(pmo, tc.now());
        if (reg)
            reg->gaugeAt(mCbOccupancy).set(cb.liveEntries());
        if (c == arch::CondAttachCase::FirstAttach) {
            doRealAttach(tc, pmo, mode);
        } else {
            emit(tc, trace::EventKind::SilentAttach, pmo,
                 trace::silent::combined);
        }
        grantThread(tc, pmo, mode);
        return;
    }

    // "+Cond" ablation: conditional instructions without the buffer.
    auto &m = mapState(pmo);
    ++ctr[m.mapped ? ctrCondSilentNocb : ctrCondFullNocb];
    if (!m.mapped) {
        doRealAttach(tc, pmo, mode);
    } else {
        emit(tc, trace::EventKind::SilentAttach, pmo,
             trace::silent::mapped);
    }
    ++m.holders;
    grantThread(tc, pmo, mode);
}

void
Runtime::ttRegionEnd(sim::ThreadContext &tc, pm::PmoId pmo)
{
    tc.charge(sim::Charge::Cond, latency::silentCond);
    ++ctr[ctrCondOps];

    unsigned &depth = depthSlot(tc.tid(), pmo);
    TERP_ASSERT(depth > 0, "regionEnd without begin, tid ", tc.tid(),
                " pmo ", pmo);
    if (--depth > 0) {
        // inner pair of a nest: permission stays open
        emit(tc, trace::EventKind::SilentDetach, pmo,
             trace::silent::nested);
        emit(tc, trace::EventKind::RegionEnd, pmo);
        return;
    }

    if (cfg.scheme == Scheme::TT) {
        revokeThread(tc, pmo);
        arch::CondDetachCase c =
            cb.condDetach(pmo, tc.now(), cfg.ewTarget);
        if (c == arch::CondDetachCase::FullDetach) {
            doRealDetach(tc, pmo);
        } else {
            emit(tc, trace::EventKind::SilentDetach, pmo,
                 c == arch::CondDetachCase::DelayedDetach
                     ? trace::silent::delayed
                     : trace::silent::partial);
        }
        emit(tc, trace::EventKind::RegionEnd, pmo);
        return;
    }

    auto &m = mapState(pmo);
    TERP_ASSERT(m.holders > 0, "regionEnd without begin, PMO ", pmo);
    revokeThread(tc, pmo);
    --m.holders;
    if (m.holders == 0) {
        doRealDetach(tc, pmo); // detaches too soon: no combining
    } else {
        emit(tc, trace::EventKind::SilentDetach, pmo,
             trace::silent::partial);
    }
    emit(tc, trace::EventKind::RegionEnd, pmo);
}

// TM: EW-conscious semantics implemented purely in software on the
// MERR architecture. Boundary operations perform the full mapping
// system calls; lowered operations still trap to the kernel for the
// thread-permission update (no 27-cycle conditional instructions).

void
Runtime::tmRegionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                       pm::Mode mode)
{
    emit(tc, trace::EventKind::RegionBegin, pmo,
         static_cast<std::uint64_t>(mode));
    unsigned &depth = depthSlot(tc.tid(), pmo);
    if (++depth > 1) {
        // Nested pair: the kernel still gets the (cheap) call.
        tc.charge(sim::Charge::Attach, latency::permSyscall);
        ++ctr[ctrPermSyscalls];
        ++ctr[ctrNestedRegions];
        emit(tc, trace::EventKind::SilentAttach, pmo,
             trace::silent::nested);
        return;
    }

    auto &m = mapState(pmo);
    if (!m.mapped) {
        doRealAttach(tc, pmo, mode);
    } else {
        tc.charge(sim::Charge::Attach, latency::permSyscall);
        ++ctr[ctrPermSyscalls];
        emit(tc, trace::EventKind::SilentAttach, pmo,
             trace::silent::mapped);
    }
    ++m.holders;
    grantThread(tc, pmo, mode);
}

void
Runtime::tmRegionEnd(sim::ThreadContext &tc, pm::PmoId pmo)
{
    unsigned &depth = depthSlot(tc.tid(), pmo);
    TERP_ASSERT(depth > 0, "regionEnd without begin, tid ", tc.tid(),
                " pmo ", pmo);
    if (--depth > 0) {
        tc.charge(sim::Charge::Detach, latency::permSyscall);
        ++ctr[ctrPermSyscalls];
        emit(tc, trace::EventKind::SilentDetach, pmo,
             trace::silent::nested);
        emit(tc, trace::EventKind::RegionEnd, pmo);
        return;
    }

    auto &m = mapState(pmo);
    TERP_ASSERT(m.holders > 0, "regionEnd without begin, PMO ", pmo);
    revokeThread(tc, pmo);
    --m.holders;
    // EW-conscious condition: real detach only when the exposure
    // span exceeded the target and no thread holds permission.
    if (m.holders == 0 &&
        tc.now() >= m.lastRealAttach + cfg.ewTarget) {
        doRealDetach(tc, pmo);
    } else {
        tc.charge(sim::Charge::Detach, latency::permSyscall);
        ++ctr[ctrPermSyscalls];
        emit(tc, trace::EventKind::SilentDetach, pmo,
             m.holders > 0 ? trace::silent::partial
                           : trace::silent::delayed);
    }
    emit(tc, trace::EventKind::RegionEnd, pmo);
}

// Basic-semantics ablation: process-wide exclusive attach.

GuardResult
Runtime::basicRegionBegin(sim::ThreadContext &tc, pm::PmoId pmo,
                          pm::Mode mode)
{
    auto &m = mapState(pmo);
    if (m.mapped && m.ownerTid != tc.tid()) {
        // Under the basic semantics a second attach is invalid, so a
        // well-formed thread must wait for the holder's detach.
        tc.blockOn(pmo);
        ++ctr[ctrBasicBlocks];
        return GuardResult::Blocked;
    }
    TERP_ASSERT(!m.mapped, "basic semantics: nested attach");
    // Emitted only on the successful entry so a blocked retry does
    // not produce an unbalanced begin.
    emit(tc, trace::EventKind::RegionBegin, pmo,
         static_cast<std::uint64_t>(mode));
    doRealAttach(tc, pmo, mode);
    m.ownerTid = tc.tid();
    m.holders = 1;
    ew.setExternalHold(pmo, true, tc.now());
    return GuardResult::Ok;
}

void
Runtime::basicRegionEnd(sim::ThreadContext &tc, pm::PmoId pmo)
{
    auto &m = mapState(pmo);
    TERP_ASSERT(m.mapped && m.ownerTid == tc.tid(),
                "basic semantics: detach by non-owner");
    m.holders = 0;
    doRealDetach(tc, pmo);
    ew.setExternalHold(pmo, false, tc.now());
    emit(tc, trace::EventKind::RegionEnd, pmo);
    mach.wake(pmo, tc.now());
}

// ----------------------------------------------------------- accesses

AccessOutcome
Runtime::tryAccess(sim::ThreadContext &tc, const pm::Oid &oid,
                   bool write)
{
    pm::Pmo &p = pm_.pmo(oid.pool());

    if (cfg.scheme == Scheme::Unprotected) {
        if (!p.attached())
            pm_.mapRandomized(p); // mapped once, for the whole run
        mach.access(tc, p.accessAt(oid.offset(), write));
        return AccessOutcome::Ok;
    }

    // ld/st checks the permission matrix alongside the TLB.
    tc.charge(sim::Charge::Other, latency::permMatrix);
    if (!p.attached())
        return accessFault(tc, p.id(), AccessOutcome::NoMapping);
    const sim::MemAccess a = p.accessAt(oid.offset(), write);
    const AccessOutcome out = checkAccess(tc, p, a.vaddr, write);
    if (out == AccessOutcome::Ok)
        mach.access(tc, a);
    return out;
}

AccessOutcome
Runtime::tryAccessVaddr(sim::ThreadContext &tc, std::uint64_t vaddr,
                        bool write)
{
    if (cfg.scheme != Scheme::Unprotected)
        tc.charge(sim::Charge::Other, latency::permMatrix);

    const pm::Pmo *p = pm_.findByVaddr(vaddr);
    if (!p) {
        // Segmentation fault (e.g. a stale pre-randomization address).
        return accessFault(tc, pm::invalidPmoId,
                           AccessOutcome::NoMapping);
    }

    if (cfg.scheme != Scheme::Unprotected) {
        AccessOutcome out = checkAccess(tc, *p, vaddr, write);
        if (out != AccessOutcome::Ok)
            return out;
    }

    mach.access(tc, sim::MemAccess{vaddr,
                                   p->paddrOf(vaddr - p->vaddrBase()),
                                   write, sim::MemKind::Nvm});
    return AccessOutcome::Ok;
}

AccessOutcome
Runtime::checkAccess(sim::ThreadContext &tc, const pm::Pmo &p,
                     std::uint64_t vaddr, bool write)
{
    arch::MatrixHit hit = matrix.check(vaddr, write);
    if (!hit.present)
        return accessFault(tc, p.id(), AccessOutcome::NoMapping);
    if (!hit.permitted)
        return accessFault(tc, p.id(), AccessOutcome::NoProcessPerm);
    if (cfg.threadPerms() && !domains.allows(tc.tid(), p.id(), write))
        return accessFault(tc, p.id(), AccessOutcome::NoThreadPerm);
    return AccessOutcome::Ok;
}

AccessOutcome
Runtime::accessFault(sim::ThreadContext &tc, pm::PmoId pmo,
                     AccessOutcome out)
{
    emit(tc, trace::EventKind::AccessFault, pmo,
         static_cast<std::uint64_t>(out));
    return out;
}

void
Runtime::access(sim::ThreadContext &tc, const pm::Oid &oid, bool write)
{
    AccessOutcome o = tryAccess(tc, oid, write);
    TERP_ASSERT(o == AccessOutcome::Ok, "PMO access fault: ",
                accessOutcomeName(o), " pool ", oid.pool(),
                " offset ", oid.offset(), " tid ", tc.tid());
}

void
Runtime::accessRange(sim::ThreadContext &tc, const pm::Oid &oid,
                     std::uint64_t bytes, bool write)
{
    if (bytes == 0)
        return;
    // One access per cache line the range overlaps. The start may sit
    // mid-line, so count lines from floor(start/line) to
    // ceil(end/line) rather than ceil(bytes/line): an unaligned range
    // crossing a line boundary touches one more line than its byte
    // count alone suggests.
    std::uint64_t start = oid.offset();
    std::uint64_t first = start / lineSize;
    std::uint64_t last = (start + bytes - 1) / lineSize;

    // The first line takes the fully-checked path (and panics on a
    // fault, as every line did before). The permission verdict cannot
    // change between lines of one call — all lines live in the same
    // PMO, so they share one matrix entry and one thread-domain slot,
    // and no sweep or region op can interleave inside a single
    // runtime call — so the remaining lines keep only the per-line
    // charges (matrix probe + timed memory access) and skip the
    // re-validation.
    access(tc, pm::Oid(oid.pool(), first * lineSize), write);
    if (first == last)
        return;

    const pm::Pmo &p = pm_.pmo(oid.pool());
    const bool checked = cfg.scheme != Scheme::Unprotected;
    for (std::uint64_t l = first + 1; l <= last; ++l) {
        if (checked)
            tc.charge(sim::Charge::Other, latency::permMatrix);
        mach.access(tc, p.accessAt(l * lineSize, write));
    }
}

// -------------------------------------------------------------- sweep

void
Runtime::onSweep(Cycles now)
{
    if (cfg.scheme == Scheme::Unprotected)
        return;

    // Host-side tick latency, sampled every 64th tick: the clock
    // read costs more than an uneventful sweep, so timing every tick
    // would mostly profile the profiler.
    metrics::ScopedTimer tickTimer(reg && (sweepTickSeq++ & 63) == 0
                                       ? &reg->histogramAt(mSweepTickNs)
                                       : nullptr);
    bump(mSweepTicks);

    if (cfg.scheme == Scheme::TT) {
        for (const arch::SweepAction &a : cb.sweep(now, cfg.ewTarget)) {
            if (a.detach) {
                bump(mSweepForceDetach);
                // The hardware-triggered detach interrupts the
                // earliest-running thread.
                emitSweeper(trace::EventKind::DelayedDetach, now,
                            a.pmo);
                sim::ThreadContext *tc = minClockThread();
                if (tc) {
                    tc->syncTo(now, sim::Charge::Other);
                    doRealDetach(*tc, a.pmo);
                } else {
                    // Post-run drain: every thread already finished,
                    // so the kernel work is nobody's overhead.
                    doRealDetachAt(nullptr, a.pmo, now);
                }
            } else {
                bump(mSweepRandomize);
                // Threads still hold the PMO: randomize in place so
                // the location never outlives the max EW (partial
                // combining, Fig 6c).
                // Close the tracker first so the blame segments it
                // emits precede the Randomize event in the trace.
                ew.processClose(a.pmo, now);
                doRandomize(a.pmo, now);
                ew.processOpen(a.pmo, now);
                auto &m = mapState(a.pmo);
                m.lastRealAttach = now;
                ++m.gen;
            }
        }
        if (reg)
            reg->gaugeAt(mCbOccupancy).set(cb.liveEntries());
        return;
    }

    // MERR-architecture schemes: software timer applying the
    // EW-conscious closing rule — when the window target elapsed,
    // fully detach an idle PMO, or re-randomize one still in use so
    // a location never outlives the window. The walk visits only
    // mapped PMOs (dense bit index, ascending — same visit order as
    // the full vector walk it replaced) and re-derives each PMO's EW
    // deadline only when its generation moved since the last scan,
    // so a tick over an idle fleet is O(mapped) cached compares.
    for (std::size_t w = 0; w < mappedBits.size(); ++w) {
        std::uint64_t bits = mappedBits[w];
        while (bits) {
            const auto pmo = static_cast<pm::PmoId>(
                (w << 6) + std::countr_zero(bits));
            bits &= bits - 1;
            MapState &m = maps[pmo];
            bump(mSweepPmoScans);
            if (m.scanGen != m.gen) {
                m.sweepDeadline = m.lastRealAttach + cfg.ewTarget;
                m.scanGen = m.gen;
            }
            if (now < m.sweepDeadline)
                continue;
            if (m.holders == 0) {
                bump(mSweepForceDetach);
                // Idle and expired: full detach, regardless of who
                // inserted the protection points. An automatic-
                // insertion-only qualifier here once left a
                // manually-bookended PMO that went idle (e.g. one
                // re-attached by crash recovery) mapped — and
                // re-randomized on every sweep — forever.
                emitSweeper(trace::EventKind::DelayedDetach, now, pmo);
                sim::ThreadContext *tc = minClockThread();
                if (tc) {
                    tc->syncTo(now, sim::Charge::Other);
                    doRealDetach(*tc, pmo);
                } else {
                    doRealDetachAt(nullptr, pmo, now);
                }
            } else {
                bump(mSweepRandomize);
                ew.processClose(pmo, now);
                doRandomize(pmo, now);
                ew.processOpen(pmo, now);
                m.lastRealAttach = now;
                ++m.gen;
            }
        }
    }
}

Cycles
Runtime::nextSweepAction() const
{
    if (cfg.scheme == Scheme::Unprotected)
        return ~Cycles(0);
    if (cfg.scheme == Scheme::TT)
        return cb.nextExpiry(cfg.ewTarget);
    Cycles next = ~Cycles(0);
    for (std::size_t w = 0; w < mappedBits.size(); ++w) {
        for (std::uint64_t bits = mappedBits[w]; bits; bits &= bits - 1) {
            const MapState &m = maps[(w << 6) + std::countr_zero(bits)];
            next = std::min(next, m.lastRealAttach + cfg.ewTarget);
        }
    }
    return next;
}

void
Runtime::idleSweeps(std::uint64_t k)
{
    if (cfg.scheme == Scheme::Unprotected || !reg || k == 0)
        return;
    sweepTickSeq += k;
    reg->counterAt(mSweepTicks).inc(k);
    if (cfg.scheme == Scheme::TT) {
        reg->gaugeAt(mCbOccupancy).set(cb.liveEntries());
        return;
    }
    std::uint64_t mapped = 0;
    for (std::uint64_t w : mappedBits)
        mapped += static_cast<std::uint64_t>(std::popcount(w));
    reg->counterAt(mSweepPmoScans).inc(k * mapped);
}

void
Runtime::finalize()
{
    if (finalized)
        return;
    finalized = true;
    closeWindows();
    publishMetrics();
}

void
Runtime::closeWindows()
{
    ew.finalize(mach.maxClock());
}

void
Runtime::publishMetrics()
{
    if (!reg)
        return;

    // Event counters, under their runtime.* names.
    static const char *const ctrNames[numCounters] = {
        "runtime.attach_syscalls", "runtime.detach_syscalls",
        "runtime.randomizations",  "runtime.cond_ops",
        "runtime.nested_regions",  "runtime.cond_silent_nocb",
        "runtime.cond_full_nocb",  "runtime.perm_syscalls",
        "runtime.basic_blocks",
    };
    for (unsigned i = 0; i < numCounters; ++i)
        if (ctr[i])
            reg->counter(ctrNames[i]).inc(ctr[i]);

    // Cycle attribution, summed over threads like report().
    OverheadReport rep = report();
    reg->counter("runtime.cycles_work").inc(rep.work);
    reg->counter("runtime.cycles_attach").inc(rep.attach);
    reg->counter("runtime.cycles_detach").inc(rep.detach);
    reg->counter("runtime.cycles_rand").inc(rep.rand);
    reg->counter("runtime.cycles_cond").inc(rep.cond);
    reg->counter("runtime.cycles_other").inc(rep.other);

    if (cfg.scheme == Scheme::TT) {
        const arch::CircularBuffer::Stats &cs = cb.stats();
        reg->counter("cb.condat_case1").inc(cs.case1);
        reg->counter("cb.condat_case2").inc(cs.case2);
        reg->counter("cb.condat_case3").inc(cs.case3);
        reg->counter("cb.conddt_case4").inc(cs.case4);
        reg->counter("cb.conddt_case5").inc(cs.case5);
        reg->counter("cb.conddt_case6").inc(cs.case6);
        reg->counter("cb.sweep_detach").inc(cs.sweepDetach);
        reg->counter("cb.sweep_randomize").inc(cs.sweepRandomize);
    }
    // Silent-vs-real operation split (Table 3): the exact operands
    // report() divides, so a consumer recomputing
    // silent/(silent+full) reproduces silentFraction bit-for-bit.
    const SilentSplit split = silentSplit();
    reg->counter("runtime.silent_ops").inc(split.silent);
    reg->counter("runtime.full_ops").inc(split.full);
    reg->gauge("runtime.silent_fraction").set(rep.silentFraction);

    // Persistence substrate.
    if (dom) {
        const pm::PersistController &pc = dom->controller();
        reg->counter("pm.clwb_issued").inc(pc.clwbCount());
        reg->counter("pm.fences").inc(pc.fenceCount());
        std::uint64_t logBytes = 0, logEntries = 0;
        std::uint64_t rollbacks = 0, rolledBack = 0;
        for (const auto &[pmo, log] : dom->logs()) {
            (void)pmo;
            logBytes += log->bytesLogged();
            logEntries += log->entriesLogged();
            rollbacks += log->rollbacks();
            rolledBack += log->entriesRolledBack();
        }
        reg->counter("pm.undo_log_bytes").inc(logBytes);
        reg->counter("pm.undo_log_entries").inc(logEntries);
        reg->counter("pm.rollbacks").inc(rollbacks);
        reg->counter("pm.entries_rolled_back").inc(rolledBack);
        std::uint64_t redoBytes = 0, redoEntries = 0;
        std::uint64_t rollFwd = 0, applied = 0;
        for (const auto &[pmo, log] : dom->redoLogs()) {
            (void)pmo;
            redoBytes += log->bytesLogged();
            redoEntries += log->entriesLogged();
            rollFwd += log->rollForwards();
            applied += log->entriesApplied();
        }
        reg->counter("pm.redo_log_bytes").inc(redoBytes);
        reg->counter("pm.redo_log_entries").inc(redoEntries);
        reg->counter("pm.roll_forwards").inc(rollFwd);
        reg->counter("pm.entries_rolled_forward").inc(applied);
    }
    if (txm) {
        reg->counter("pm.txn_begins").inc(txm->outermostBegins());
        reg->counter("pm.txn_nested_begins").inc(txm->nestedBegins());
        reg->counter("pm.txn_busy").inc(txm->busyRejections());
        reg->counter("pm.txn_commits").inc(txm->durableCommits());
        reg->counter("pm.txn_aborts").inc(txm->aborts());
    }

    // Telemetry lost to trace-ring wrap (traced runs only).
    if (sink)
        reg->counter("trace.dropped_events").inc(sink->totalDropped());

    // Simulator shape.
    reg->counter("sim.total_cycles").inc(mach.maxClock());
    reg->gauge("sim.threads").set(mach.threadCount());
}

// ----------------------------------------------------- crash/recovery

void
Runtime::crash(Cycles at)
{
    if (sink)
        sink->emit(trace::TraceSink::kernelTid,
                   trace::EventKind::Crash, at);

    // Thread permissions (the PKRU analogue) are volatile. The
    // free-running sweeper can have reopened a window at a wall-clock
    // instant beyond @p at (e.g. a randomize completing right at the
    // failure); such a window closes with zero length rather than
    // rewinding the tracker's clock.
    for (unsigned tid = 0; tid < mach.threadCount(); ++tid) {
        // Scan the thread's dense rights row directly; same (tid,
        // pmo) visit order as the bounds-checked holds() walk.
        const auto &row = domains.row(tid);
        const auto nPmo = static_cast<pm::PmoId>(
            std::min<std::size_t>(row.size(), maps.size()));
        for (pm::PmoId pmo = 0; pmo < nPmo; ++pmo) {
            if (row[pmo] == pm::Mode::None)
                continue;
            domains.revoke(tid, pmo);
            Cycles tClose =
                std::max(at, ew.threadOpenSince(tid, pmo));
            ew.threadClose(tid, pmo, tClose);
            if (sink) {
                sink->emit(tid, trace::EventKind::ThreadRevoke,
                           tClose, pmo);
            }
        }
    }

    // Address-space mappings, the permission matrix, and the
    // circular buffer are volatile too. Only mapped PMOs (dense bit
    // index, ascending order as before) have windows to close; the
    // wholesale reset below restores every entry — mapped or not —
    // to the default state the old full-vector walk left behind.
    for (std::size_t w = 0; w < mappedBits.size(); ++w) {
        std::uint64_t bits = mappedBits[w];
        while (bits) {
            const auto pmo = static_cast<pm::PmoId>(
                (w << 6) + std::countr_zero(bits));
            bits &= bits - 1;
            std::uint64_t base = pm_.pmo(pmo).vaddrBase();
            matrix.remove(pmo);
            if (ew.processWindowOpen(pmo)) {
                Cycles tClose =
                    std::max(at, ew.processOpenSince(pmo));
                ew.processClose(pmo, tClose);
                if (sink) {
                    sink->emit(trace::TraceSink::kernelTid,
                               trace::EventKind::RealDetach, tClose,
                               pmo, base);
                }
            } else if (sink) {
                sink->emit(trace::TraceSink::kernelTid,
                           trace::EventKind::RealDetach, at, pmo,
                           base);
            }
        }
    }
    maps.assign(maps.size(), MapState{});
    std::fill(mappedBits.begin(), mappedBits.end(), 0);
    // Cause overrides describe volatile state (manual spans, txn
    // locks, queued requests) that the failure just vaporized.
    ew.resetTransientCauses();
    for (pm::PmoId pmo : cb.residentPmos())
        cb.evict(pmo);
    for (std::vector<unsigned> &row : regionDepth)
        std::fill(row.begin(), row.end(), 0);
    // Unmap everything, including mappings the protected paths never
    // tracked (the Unprotected scheme's lazy map).
    pm_.resetMappings();

    // Blocked waiters: the process they were waiting in is gone.
    for (unsigned tid = 0; tid < mach.threadCount(); ++tid) {
        sim::ThreadContext &t = mach.thread(tid);
        if (t.blocked())
            mach.wake(t.blockToken(), at);
    }

    if (txm)
        txm->onCrash();
    if (dom)
        dom->crash();
}

unsigned
Runtime::recover(sim::ThreadContext &tc)
{
    TERP_ASSERT(dom,
                "recover() without an attached persistence domain");
    unsigned recovered = 0;
    // Windows opened by the replay blame their idle base on the
    // recovery pass, not the application.
    ew.setRecoveryActive(true);
    // One PMO's replay under the scheme's protection discipline:
    // attach (full Table II cost), run the log's recovery, release
    // through the CONDDT path so the sweeper closes the recovery
    // window like any other.
    auto replay = [&](pm::PmoId pmo, auto &log) {
        if (cfg.scheme == Scheme::Unprotected) {
            std::uint64_t n = log.recover(tc);
            emit(tc, trace::EventKind::Recover, pmo, n);
            return;
        }
        // A PMO can have both its undo and its redo log pending
        // after one failure (independent transactions); the first
        // replay left it mapped — its recovery window closes through
        // the normal delayed path — so the second must reuse that
        // window rather than re-attach over it.
        const bool alreadyMapped = mapState(pmo).mapped;
        if (cfg.scheme == Scheme::TT) {
            // Recovery replays every pending log in one burst with
            // no sweep ticks in between, so each replayed PMO is
            // still delayed-resident when the next one attaches. A
            // failure that strands more transactions than the buffer
            // has entries would overflow it: resolve a delayed-
            // detach victim first, exactly as the sweep would.
            if (!cb.resident(pmo) &&
                cb.liveEntries() == arch::CircularBuffer::capacity) {
                for (pm::PmoId v : cb.residentPmos()) {
                    if (cb.counter(v) == 0 && cb.delayed(v)) {
                        cb.evict(v);
                        doRealDetach(tc, v);
                        break;
                    }
                }
            }
            cb.condAttach(pmo, tc.now());
        }
        if (!alreadyMapped)
            doRealAttach(tc, pmo, pm::Mode::ReadWrite);
        std::uint64_t n = log.recover(tc);
        emit(tc, trace::EventKind::Recover, pmo, n);
        if (cfg.scheme == Scheme::TT) {
            // Release through the CONDDT path: the rollback was
            // almost certainly shorter than the window target, so
            // this sets the delayed-detach bit and the sweeper later
            // performs the full detach (window combining applies to
            // the recovery process like anyone else).
            if (cb.condDetach(pmo, tc.now(), cfg.ewTarget) ==
                arch::CondDetachCase::FullDetach) {
                doRealDetach(tc, pmo);
            }
        }
    };
    for (const auto &[pmo, log] : dom->logs()) {
        if (!log->recoveryPending())
            continue;
        replay(pmo, *log);
        ++recovered;
    }
    // Redo logs roll forward: a durable commit record means the
    // transaction committed and only the in-place apply may be torn.
    for (const auto &[pmo, log] : dom->redoLogs()) {
        if (!log->recoveryPending())
            continue;
        replay(pmo, *log);
        ++recovered;
    }
    ew.setRecoveryActive(false);
    return recovered;
}

// ------------------------------------------------------------ reports

Runtime::SilentSplit
Runtime::silentSplit() const
{
    SilentSplit sp;
    if (cfg.scheme == Scheme::TT) {
        // Silent = conditional calls that did not become a system
        // call: cases 2,3 (attach) and 4,6 (detach).
        const arch::CircularBuffer::Stats &cs = cb.stats();
        sp.silent = cs.case2 + cs.case3 + cs.case4 + cs.case6;
        sp.full = cs.case1 + cs.case5;
    } else if (cfg.scheme == Scheme::TTNC) {
        // Without the CB, "silent" = conditional ops that avoided a
        // mapping-changing system call.
        sp.silent = ctr[ctrCondSilentNocb];
        sp.full = ctr[ctrCondFullNocb];
    } else if (cfg.scheme == Scheme::TM || cfg.scheme == Scheme::Basic) {
        // TM elides mapping syscalls too (the EW-conscious rule in
        // software): a lowered op that only touched the thread
        // permission is a silent call for Table 3's purposes.
        sp.silent = ctr[ctrPermSyscalls];
        sp.full = ctr[ctrAttachSyscalls] + ctr[ctrDetachSyscalls];
    }
    return sp;
}

OverheadReport
Runtime::report() const
{
    OverheadReport r;
    for (unsigned i = 0; i < mach.threadCount(); ++i) {
        const sim::ThreadContext &t = mach.thread(i);
        r.work += t.charged(sim::Charge::Work);
        r.attach += t.charged(sim::Charge::Attach);
        r.detach += t.charged(sim::Charge::Detach);
        r.rand += t.charged(sim::Charge::Rand);
        r.cond += t.charged(sim::Charge::Cond);
        r.other += t.charged(sim::Charge::Other);
    }
    r.total = r.work + r.attach + r.detach + r.rand + r.cond + r.other;
    r.attachSyscalls = ctr[ctrAttachSyscalls];
    r.detachSyscalls = ctr[ctrDetachSyscalls];
    r.randomizations = ctr[ctrRandomizations];
    r.condOps = ctr[ctrCondOps];
    r.nestedRegions = ctr[ctrNestedRegions];
    const SilentSplit sp = silentSplit();
    if (sp.silent + sp.full > 0) {
        r.silentFraction = static_cast<double>(sp.silent) /
                           static_cast<double>(sp.silent + sp.full);
    }
    return r;
}

bool
Runtime::mapped(pm::PmoId pmo) const
{
    return pm_.pmo(pmo).attached();
}

bool
Runtime::threadHolds(unsigned tid, pm::PmoId pmo) const
{
    return domains.holds(tid, pmo);
}

} // namespace core
} // namespace terp
