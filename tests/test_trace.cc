/**
 * @file
 * Tests for the src/trace subsystem: ring-buffer wrap/drop
 * semantics (against a fixed-array model of the lazily grown ring,
 * and the sink's one ring against a model of the whole stream), the
 * replay's completeness rule, exported drop telemetry, the no-op
 * guarantee when tracing is disabled, the event taxonomy emitted by
 * the runtime, sweeper-path event ordering, event ordering under the
 * multi-threaded SPEC surrogate, and the timeline auditor's
 * differential check against EwTracker across every scheme and both
 * attach-semantics styles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/runtime.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"
#include "trace/audit.hh"
#include "trace/export.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::core;
using trace::Event;
using trace::EventKind;

namespace {

struct Rig
{
    sim::Machine mach;
    pm::PmoManager pmos;
    pm::PmoId pmo;
    std::unique_ptr<Runtime> rt;
    sim::ThreadContext *tc;

    explicit Rig(const RuntimeConfig &cfg, unsigned threads = 1)
        : pmos(7)
    {
        pmo = pmos.create("test", 8 * MiB).id();
        rt = std::make_unique<Runtime>(mach, pmos, cfg);
        for (unsigned i = 0; i < threads; ++i)
            mach.spawnThread();
        tc = &mach.thread(0);
    }

    std::vector<Event> events() const { return rt->traceSink()->events(); }

    std::vector<Event>
    eventsOfKind(EventKind k) const
    {
        std::vector<Event> out;
        for (const Event &e : events())
            if (e.kind == k)
                out.push_back(e);
        return out;
    }
};

std::uint64_t
countKind(const std::vector<Event> &es, EventKind k)
{
    return static_cast<std::uint64_t>(
        std::count_if(es.begin(), es.end(),
                      [&](const Event &e) { return e.kind == k; }));
}

/** First event of the given kind, or nullptr. */
const Event *
firstOf(const std::vector<Event> &es, EventKind k)
{
    for (const Event &e : es)
        if (e.kind == k)
            return &e;
    return nullptr;
}

} // namespace

// ------------------------------------------------------- ring buffer

TEST(TraceBuffer, RetainsEverythingBelowCapacity)
{
    trace::TraceBuffer b(8);
    for (std::uint64_t i = 0; i < 5; ++i) {
        Event e;
        e.seq = i;
        b.push(e);
    }
    EXPECT_EQ(b.written(), 5u);
    EXPECT_EQ(b.dropped(), 0u);
    EXPECT_EQ(b.size(), 5u);
    std::vector<Event> es = b.events();
    ASSERT_EQ(es.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(es[i].seq, i);
}

TEST(TraceBuffer, WrapOverwritesOldestAndCountsDrops)
{
    trace::TraceBuffer b(4);
    for (std::uint64_t i = 0; i < 11; ++i) {
        Event e;
        e.seq = i;
        b.push(e);
    }
    EXPECT_EQ(b.written(), 11u);
    EXPECT_EQ(b.dropped(), 7u);
    EXPECT_EQ(b.size(), 4u);
    std::vector<Event> es = b.events();
    ASSERT_EQ(es.size(), 4u);
    // The newest four survive, oldest first.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(es[i].seq, 7 + i);
}

TEST(TraceSink, MergesAcrossThreadsInEmissionOrder)
{
    trace::TraceSink s(16);
    s.emit(0, EventKind::RegionBegin, 10, 1);
    s.emit(1, EventKind::RegionBegin, 5, 2);
    s.emit(0, EventKind::RegionEnd, 20, 1);
    s.emitKernel(EventKind::PmoMap, 3, 0xabc);
    std::vector<Event> es = s.events();
    ASSERT_EQ(es.size(), 4u);
    for (std::size_t i = 0; i < es.size(); ++i)
        EXPECT_EQ(es[i].seq, i);
    // Kernel events are stamped with the latest time seen.
    EXPECT_EQ(es[3].tid, trace::TraceSink::kernelTid);
    EXPECT_EQ(es[3].ts, 20u);
    EXPECT_TRUE(s.complete());
}

TEST(TraceSink, DropAccountingAggregates)
{
    trace::TraceSink s(2);
    for (int i = 0; i < 5; ++i)
        s.emit(0, EventKind::SweepTick, static_cast<Cycles>(i));
    EXPECT_EQ(s.totalEmitted(), 5u);
    EXPECT_EQ(s.totalDropped(), 3u);
    EXPECT_FALSE(s.complete());
}

namespace {

/**
 * Fixed-array reference for the ring: every slot exists up front and
 * write w lands in slot w % cap, which is what the lazily grown ring
 * must be indistinguishable from.
 */
struct RefRing
{
    explicit RefRing(std::size_t cap) : slots(cap) {}

    void
    push(const Event &e)
    {
        slots[writes % slots.size()] = e;
        ++writes;
    }

    std::uint64_t
    dropped() const
    {
        return writes > slots.size() ? writes - slots.size() : 0;
    }

    std::vector<Event>
    events() const
    {
        std::vector<Event> out;
        for (std::uint64_t i = dropped(); i < writes; ++i)
            out.push_back(slots[i % slots.size()]);
        return out;
    }

    std::vector<Event> slots;
    std::uint64_t writes = 0;
};

std::vector<std::uint64_t>
seqsOf(const std::vector<Event> &es)
{
    std::vector<std::uint64_t> out;
    for (const Event &e : es)
        out.push_back(e.seq);
    return out;
}

} // namespace

TEST(TraceBuffer, LazyRingMatchesFixedArrayModel)
{
    for (std::size_t cap : {1, 2, 3, 7, 64, 1000}) {
        for (std::size_t n :
             {std::size_t{0}, std::size_t{1}, cap - 1, cap, cap + 1,
              2 * cap + 3}) {
            SCOPED_TRACE("capacity " + std::to_string(cap) +
                         ", writes " + std::to_string(n));
            trace::TraceBuffer b(cap);
            RefRing ref(cap);
            for (std::uint64_t i = 0; i < n; ++i) {
                Event e;
                e.seq = i;
                e.ts = 3 * i;
                e.pmo = i % 5;
                e.arg = ~i;
                b.push(e);
                ref.push(e);
            }
            EXPECT_EQ(b.capacity(), cap);
            EXPECT_EQ(b.written(), n);
            EXPECT_EQ(b.dropped(), ref.dropped());
            EXPECT_EQ(b.size(), std::min(n, cap));
            std::vector<Event> got = b.events(), want = ref.events();
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].seq, want[i].seq);
                EXPECT_EQ(got[i].ts, want[i].ts);
                EXPECT_EQ(got[i].pmo, want[i].pmo);
                EXPECT_EQ(got[i].arg, want[i].arg);
            }
        }
    }
}

namespace {

/**
 * Reference for the sink's ring: the whole stream, of which it keeps
 * the newest `capacity` events, capacity rising by the per-thread cap
 * at each thread's first event.
 */
struct RefSink
{
    explicit RefSink(std::size_t cap) : cap(cap) {}

    void
    emit(std::uint32_t tid)
    {
        if (std::find(tids.begin(), tids.end(), tid) == tids.end())
            tids.push_back(tid);
        if (++written > cap * tids.size())
            dropped = std::max(dropped, written - cap * tids.size());
    }

    /** Seqs of the events the ring must still hold. */
    std::vector<std::uint64_t>
    retained() const
    {
        std::vector<std::uint64_t> out;
        for (std::uint64_t q = dropped; q < written; ++q)
            out.push_back(q);
        return out;
    }

    std::size_t cap;
    std::vector<std::uint32_t> tids;
    std::uint64_t written = 0, dropped = 0;
};

/** Emit on @p tid into the sink and its reference. */
void
emitBoth(trace::TraceSink &s, RefSink &ref, std::uint32_t tid)
{
    s.emit(tid, EventKind::SweepTick, ref.written);
    ref.emit(tid);
}

void
expectSinkMatches(const trace::TraceSink &s, const RefSink &ref)
{
    EXPECT_EQ(seqsOf(s.events()), ref.retained());
    EXPECT_EQ(s.totalEmitted(), ref.written);
    EXPECT_EQ(s.totalDropped(), ref.dropped);
    EXPECT_EQ(s.complete(), ref.dropped == 0);
}

} // namespace

/**
 * The sink's one ring holds its per-thread capacity for each thread
 * that has emitted: threads that each stay within it lose nothing,
 * however their events interleave, and one that overflows costs the
 * oldest events of the whole stream, which stay counted when a later
 * thread's first event raises the capacity.
 */
TEST(TraceSink, OneRingDropsTheOldestOfTheStream)
{
    const std::uint32_t tids[] = {0, 1, trace::TraceSink::sweeperTid};
    for (std::size_t cap : {1, 2, 3, 7, 64}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        {
            // Interleaved, cap events a tid, and a tid that starts
            // after the others.
            trace::TraceSink s(cap);
            RefSink ref(cap);
            for (std::size_t i = 0; i < cap; ++i)
                for (std::uint32_t t : tids)
                    emitBoth(s, ref, t);
            for (std::size_t i = 0; i < cap; ++i)
                emitBoth(s, ref, trace::TraceSink::kernelTid);
            expectSinkMatches(s, ref);
            EXPECT_EQ(s.totalDropped(), 0u);
            EXPECT_EQ(s.tids(), (std::vector<std::uint32_t>{
                                    0, 1, trace::TraceSink::sweeperTid,
                                    trace::TraceSink::kernelTid}));
        }
        for (std::size_t over : {std::size_t{1}, cap, 3 * cap + 2}) {
            SCOPED_TRACE("tid 1 overflows by " + std::to_string(over));
            trace::TraceSink s(cap);
            RefSink ref(cap);
            for (std::size_t i = 0; i < cap; ++i)
                for (std::uint32_t t : tids)
                    emitBoth(s, ref, t);
            for (std::size_t i = 0; i < over; ++i)
                emitBoth(s, ref, 1);
            expectSinkMatches(s, ref);
            // Exactly the first `over` seqs of the stream are gone.
            EXPECT_EQ(s.totalDropped(), over);
            EXPECT_EQ(s.events().front().seq, over);

            // A new tid raises the capacity: what was dropped stays
            // dropped, and the ring keeps every one of its events.
            for (std::size_t i = 0; i < cap; ++i)
                emitBoth(s, ref, trace::TraceSink::kernelTid);
            expectSinkMatches(s, ref);
            EXPECT_EQ(s.totalDropped(), over);
            EXPECT_EQ(s.events().size(), 4 * cap);
        }
    }
}

/**
 * A replay caught up before a wrap and again after it is complete
 * exactly when every event the ring dropped had already been fed to
 * it; one that was never caught up before the wrap is not.
 */
TEST(TimelineReplay, CompleteExactlyWhenEveryDroppedEventWasFed)
{
    const semantics::EwTracker none;
    for (std::size_t cap : {1, 3, 64}) {
        for (std::size_t fed : {std::size_t{0}, std::size_t{1}, cap}) {
            for (std::size_t more :
                 {std::size_t{0}, std::size_t{1}, cap - 1, cap, cap + 1,
                  2 * cap + 5}) {
                SCOPED_TRACE("capacity " + std::to_string(cap) + ", " +
                             std::to_string(fed) + " fed, then " +
                             std::to_string(more) + " more");
                trace::TraceSink s(cap);
                for (std::size_t i = 0; i < fed; ++i)
                    s.emit(0, EventKind::SweepTick, i);
                trace::TimelineReplay early;
                early.catchUp(s);
                for (std::size_t i = 0; i < more; ++i)
                    s.emit(0, EventKind::SweepTick, fed + i);
                const bool allFed = s.totalDropped() <= fed;
                trace::TimelineReplay resumed;
                trace::AuditReport a = trace::auditTimelineFrom(
                    early, s, fed + more, none, resumed);
                EXPECT_EQ(a.complete, allFed);
                EXPECT_EQ(a.ok, allFed) << a.summary();
                if (!allFed) {
                    EXPECT_EQ(a.mismatches.back().rfind(
                                  "trace incomplete", 0),
                              0u);
                }
                // The batch audit is a replay caught up only now.
                EXPECT_EQ(trace::auditTimeline(s, fed + more, none).complete,
                          s.complete());
            }
        }
    }
}

/**
 * A copy shares the events its original holds and each goes on alone:
 * both keep exactly the fixed-array ring's events, wrap included,
 * and the copy's survive the original. forEachSince(s) visits the
 * retained events from seq s on.
 */
TEST(TraceBuffer, CopiesDivergeLikeTwoRings)
{
    auto pushTo = [](trace::TraceBuffer &b, RefRing &ref,
                     std::uint64_t seq, std::uint64_t arg) {
        Event e;
        e.seq = seq;
        e.arg = arg;
        b.push(e);
        ref.push(e);
    };
    auto fields = [](const std::vector<Event> &es) {
        std::vector<std::uint64_t> out;
        for (const Event &e : es)
            out.insert(out.end(), {e.seq, e.arg});
        return out;
    };
    for (std::size_t cap : {1, 2, 3, 7, 64, 1000}) {
        const std::size_t n = 2 * cap + 70;
        for (std::size_t m :
             {std::size_t{0}, std::size_t{1}, cap / 2, cap, cap + 1,
              n / 2}) {
            SCOPED_TRACE("capacity " + std::to_string(cap) +
                         ", fork after " + std::to_string(m));
            auto a = std::make_unique<trace::TraceBuffer>(cap);
            RefRing refA(cap);
            for (std::uint64_t i = 0; i < m; ++i)
                pushTo(*a, refA, i, 0);
            trace::TraceBuffer b(*a);
            RefRing refB = refA;
            for (std::uint64_t i = m; i < n; ++i) {
                pushTo(*a, refA, i, 1);
                pushTo(b, refB, i, 2);
            }
            EXPECT_EQ(fields(a->events()), fields(refA.events()));
            EXPECT_EQ(a->dropped(), refA.dropped());
            a.reset();
            EXPECT_EQ(fields(b.events()), fields(refB.events()));
            EXPECT_EQ(b.written(), n);
            EXPECT_EQ(b.size(), std::min(n, cap));
            for (std::uint64_t from : {std::uint64_t{0}, std::uint64_t{m},
                                       std::uint64_t{n - 1},
                                       std::uint64_t{n + 5}}) {
                std::vector<Event> want;
                for (const Event &e : refB.events())
                    if (e.seq >= from)
                        want.push_back(e);
                std::vector<Event> got;
                b.forEachSince(from,
                               [&got](const Event &e) { got.push_back(e); });
                EXPECT_EQ(fields(got), fields(want)) << "from " << from;
            }
        }
    }
}

/**
 * An assigned buffer takes the source's events and keeps the chunk it
 * wrote before for its next one, but only if nothing shares that
 * chunk: a copy taken before the assignment must still read its own
 * events after the assigned buffer writes on.
 */
TEST(TraceBuffer, AssignmentReusesOnlyAnUnsharedChunk)
{
    auto pushTo = [](trace::TraceBuffer &b, RefRing &ref,
                     std::uint64_t seq, std::uint64_t arg) {
        Event e;
        e.seq = seq;
        e.arg = arg;
        b.push(e);
        ref.push(e);
    };
    auto fields = [](const std::vector<Event> &es) {
        std::vector<std::uint64_t> out;
        for (const Event &e : es)
            out.insert(out.end(), {e.seq, e.arg});
        return out;
    };
    for (std::size_t cap : {1, 3, 64, 1000}) {
        for (bool shared : {false, true}) {
            SCOPED_TRACE("capacity " + std::to_string(cap) +
                         (shared ? ", chunk shared" : ", chunk own"));
            trace::TraceBuffer a(cap), c(cap);
            RefRing refA(cap), refC(cap);
            for (std::uint64_t i = 0; i < 5; ++i)
                pushTo(a, refA, i, 0);
            for (std::uint64_t i = 0; i < 3; ++i)
                pushTo(c, refC, 100 + i, 3);
            std::optional<trace::TraceBuffer> b;
            RefRing refB = refA;
            if (shared)
                b.emplace(a);
            a = c;
            refA = refC;
            EXPECT_EQ(fields(a.events()), fields(refA.events()));
            for (std::uint64_t i = 0; i < 2 * cap + 9; ++i) {
                pushTo(a, refA, 200 + i, 1);
                pushTo(c, refC, 200 + i, 4);
            }
            EXPECT_EQ(fields(a.events()), fields(refA.events()));
            EXPECT_EQ(fields(c.events()), fields(refC.events()));
            if (b) {
                EXPECT_EQ(fields(b->events()), fields(refB.events()));
            }
        }
    }
}

TEST(TraceMetrics, DroppedEventsExported)
{
    // A ring of 8 events per thread wraps on any real run; the
    // registry reports exactly what the ring lost.
    workloads::WhisperParams p;
    p.sections = 20;
    workloads::RunResult r = workloads::runWhisper(
        "hashmap", RuntimeConfig::tt().withTrace(8), p);
    ASSERT_NE(r.trace, nullptr);
    ASSERT_NE(r.metrics, nullptr)
        << "run published no metrics registry";
    const std::uint64_t retained = r.trace->events().size();
    const metrics::Counter *dropped =
        r.metrics->findCounter("trace.dropped_events");
    ASSERT_NE(dropped, nullptr);
    EXPECT_GT(dropped->value(), 0u);
    EXPECT_EQ(dropped->value(), r.trace->totalEmitted() - retained);
    EXPECT_EQ(dropped->value(), r.trace->totalDropped());
}

TEST(TraceMetrics, UntracedRunPublishesNoDropCounter)
{
    workloads::WhisperParams p;
    p.sections = 5;
    workloads::RunResult r =
        workloads::runWhisper("echo", RuntimeConfig::tt(), p);
    ASSERT_NE(r.metrics, nullptr)
        << "run published no metrics registry";
    EXPECT_EQ(r.metrics->findCounter("trace.dropped_events"), nullptr);
}

// ------------------------------------------- disabled = true no-op

TEST(TraceSwitch, DisabledAllocatesNoSink)
{
    Rig r(RuntimeConfig::tt());
    EXPECT_EQ(r.rt->traceSink(), nullptr);
}

TEST(TraceSwitch, TracingNeverPerturbsCycleTotals)
{
    // The acceptance bar for the whole subsystem: enabling tracing
    // must not move a single simulated cycle.
    for (const auto &cfg :
         {RuntimeConfig::mm(), RuntimeConfig::tm(),
          RuntimeConfig::tt()}) {
        workloads::WhisperParams p;
        p.sections = 40;
        workloads::RunResult off =
            workloads::runWhisper("hashmap", cfg, p);
        workloads::RunResult on =
            workloads::runWhisper("hashmap", cfg.withTrace(), p);
        EXPECT_EQ(off.totalCycles, on.totalCycles);
        EXPECT_EQ(off.report.total, on.report.total);
        EXPECT_EQ(off.report.attachSyscalls, on.report.attachSyscalls);
        EXPECT_EQ(off.report.randomizations, on.report.randomizations);
    }
}

// ------------------------------------------------- event taxonomy

TEST(TraceEvents, TtRegionEmitsAttachGrantRevoke)
{
    Rig r(RuntimeConfig::tt().withTrace());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.rt->access(*r.tc, pm::Oid(r.pmo, 64), true);
    r.rt->regionEnd(*r.tc, r.pmo);

    std::vector<Event> es = r.events();
    EXPECT_EQ(countKind(es, EventKind::RegionBegin), 1u);
    EXPECT_EQ(countKind(es, EventKind::RegionEnd), 1u);
    EXPECT_EQ(countKind(es, EventKind::RealAttach), 1u);
    EXPECT_EQ(countKind(es, EventKind::ThreadGrant), 1u);
    EXPECT_EQ(countKind(es, EventKind::ThreadRevoke), 1u);
    EXPECT_EQ(countKind(es, EventKind::PmoMap), 1u);
    // EW target not reached: the detach is deferred, not real.
    EXPECT_EQ(countKind(es, EventKind::RealDetach), 0u);
    const Event *sd = firstOf(es, EventKind::SilentDetach);
    ASSERT_NE(sd, nullptr);
    EXPECT_EQ(sd->arg, trace::silent::delayed);

    // A second region on the still-resident PMO combines silently.
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    std::vector<Event> es2 = r.events();
    const Event *sa = firstOf(es2, EventKind::SilentAttach);
    ASSERT_NE(sa, nullptr);
    EXPECT_EQ(sa->arg, trace::silent::combined);
}

TEST(TraceEvents, AccessFaultEmitted)
{
    Rig r(RuntimeConfig::tt().withTrace());
    EXPECT_EQ(r.rt->tryAccess(*r.tc, pm::Oid(r.pmo, 0), false),
              AccessOutcome::NoMapping);
    std::vector<Event> es = r.eventsOfKind(EventKind::AccessFault);
    ASSERT_EQ(es.size(), 1u);
    EXPECT_EQ(es[0].pmo, r.pmo);
    EXPECT_EQ(es[0].arg, static_cast<std::uint64_t>(
                             AccessOutcome::NoMapping));
}

TEST(TraceEvents, ManualBookendsTraced)
{
    Rig r(RuntimeConfig::mm().withTrace());
    r.rt->manualBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.rt->manualEnd(*r.tc, r.pmo);
    std::vector<Event> es = r.events();
    EXPECT_EQ(countKind(es, EventKind::RegionBegin), 1u);
    EXPECT_EQ(countKind(es, EventKind::RealAttach), 1u);
    EXPECT_EQ(countKind(es, EventKind::RealDetach), 1u);
    EXPECT_EQ(countKind(es, EventKind::RegionEnd), 1u);
}

// ---------------------------------------------------- sweeper path

TEST(TraceSweeper, ForcedRandomizeWhileHeldThenDelayedDetach)
{
    // TM scheme, tiny EW target: end the region before the target so
    // the detach is deferred, then drive onSweep past the target and
    // expect the sweeper to apply the delayed detach.
    RuntimeConfig cfg = RuntimeConfig::tm(usToCycles(5));
    Rig r(cfg.withTrace());

    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.rt->regionEnd(*r.tc, r.pmo); // before target: deferred
    EXPECT_TRUE(r.rt->mapped(r.pmo));

    Cycles past = r.tc->now() + usToCycles(50);
    r.rt->onSweep(past);
    EXPECT_FALSE(r.rt->mapped(r.pmo));

    std::vector<Event> es = r.events();
    const Event *dd = firstOf(es, EventKind::DelayedDetach);
    const Event *rd = firstOf(es, EventKind::RealDetach);
    const Event *sd = firstOf(es, EventKind::SilentDetach);
    ASSERT_NE(dd, nullptr);
    ASSERT_NE(rd, nullptr);
    ASSERT_NE(sd, nullptr);
    // Order: the deferred (silent) detach at region end, then the
    // sweeper's delayed-detach application, then the real detach.
    EXPECT_LT(sd->seq, dd->seq);
    EXPECT_LT(dd->seq, rd->seq);
    EXPECT_EQ(dd->ts, past);
    EXPECT_EQ(countKind(es, EventKind::Randomize), 0u);

    // The audit must agree with the tracker even on forced paths.
    r.rt->finalize();
    trace::AuditReport a = trace::auditTimeline(
        *r.rt->traceSink(), r.mach.maxClock(), r.rt->exposure());
    EXPECT_TRUE(a.ok) << a.summary();
}

TEST(TraceSweeper, HeldPmoIsRandomizedInPlace)
{
    // A thread still inside the region when the target elapses: the
    // sweeper must re-randomize in place, not detach.
    RuntimeConfig cfg = RuntimeConfig::tm(usToCycles(5));
    Rig r(cfg.withTrace());

    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    Cycles past = r.tc->now() + usToCycles(50);
    r.rt->onSweep(past);
    EXPECT_TRUE(r.rt->mapped(r.pmo));

    std::vector<Event> es = r.events();
    const Event *rz = firstOf(es, EventKind::Randomize);
    ASSERT_NE(rz, nullptr);
    EXPECT_EQ(rz->ts, past);
    EXPECT_EQ(countKind(es, EventKind::DelayedDetach), 0u);
    EXPECT_EQ(countKind(es, EventKind::RealDetach), 0u);
    // The kernel track recorded the move.
    EXPECT_EQ(countKind(es, EventKind::PmoRemap), 1u);

    r.rt->regionEnd(*r.tc, r.pmo);
    r.rt->finalize();
    trace::AuditReport a = trace::auditTimeline(
        *r.rt->traceSink(), r.mach.maxClock(), r.rt->exposure());
    EXPECT_TRUE(a.ok) << a.summary();
}

TEST(TraceSweeper, TtSweepEventsOnSweeperTrack)
{
    // Full TT run: sweep ticks appear on the sweeper pseudo-track
    // and every forced action still audits clean.
    workloads::WhisperParams p;
    p.sections = 80;
    workloads::RunResult r = workloads::runWhisper(
        "ctree", RuntimeConfig::tt(usToCycles(10)).withTrace(), p);
    ASSERT_NE(r.trace, nullptr);
    std::vector<Event> es = r.trace->events();
    EXPECT_GT(countKind(es, EventKind::SweepTick), 0u);
    for (const Event &e : es) {
        if (e.kind == EventKind::SweepTick) {
            EXPECT_EQ(e.tid, trace::TraceSink::sweeperTid);
        }
    }
    ASSERT_NE(r.traceAudit, nullptr);
    EXPECT_TRUE(r.traceAudit->ok) << r.traceAudit->summary();
}

// ------------------------------------- ordering under 4-thread SPEC

TEST(TraceOrdering, FourThreadSpecSurrogate)
{
    workloads::SpecParams p;
    p.threads = 4;
    p.scale = 0.25;
    workloads::RunResult r = workloads::runSpec(
        "mcf", RuntimeConfig::tt().withTrace(), p);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_TRUE(r.trace->complete());

    std::vector<Event> es = r.trace->events();
    ASSERT_FALSE(es.empty());

    // seq is a strictly increasing total order.
    for (std::size_t i = 1; i < es.size(); ++i)
        EXPECT_LT(es[i - 1].seq, es[i].seq);

    // Per real thread, virtual time never goes backwards.
    std::map<std::uint32_t, Cycles> lastTs;
    std::map<std::uint32_t, std::uint64_t> perTid;
    for (const Event &e : es) {
        if (e.tid >= 4)
            continue;
        auto it = lastTs.find(e.tid);
        if (it != lastTs.end()) {
            EXPECT_GE(e.ts, it->second) << "tid " << e.tid;
        }
        lastTs[e.tid] = e.ts;
        ++perTid[e.tid];
    }
    EXPECT_EQ(perTid.size(), 4u); // every thread emitted something

    // Regions balance per (thread, PMO).
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::int64_t>
        depth;
    for (const Event &e : es) {
        std::int64_t &d = depth[{e.tid, e.pmo}];
        if (e.kind == EventKind::RegionBegin)
            ++d;
        if (e.kind == EventKind::RegionEnd) {
            --d;
            EXPECT_GE(d, 0);
        }
    }
    for (const auto &[key, d] : depth)
        EXPECT_EQ(d, 0) << "tid " << key.first << " pmo "
                        << key.second;

    // Every thread got start/finish markers.
    EXPECT_EQ(countKind(es, EventKind::ThreadStart), 4u);
    EXPECT_EQ(countKind(es, EventKind::ThreadFinish), 4u);

    ASSERT_NE(r.traceAudit, nullptr);
    EXPECT_TRUE(r.traceAudit->ok) << r.traceAudit->summary();
}

// ------------------------- auditor vs EwTracker, all schemes

namespace {

void
expectAuditOk(const workloads::RunResult &r, const std::string &what)
{
    ASSERT_NE(r.trace, nullptr) << what;
    ASSERT_NE(r.traceAudit, nullptr) << what;
    EXPECT_TRUE(r.trace->complete()) << what;
    EXPECT_TRUE(r.traceAudit->ok)
        << what << ": " << r.traceAudit->summary();
}

} // namespace

TEST(TraceAudit, DifferentialWhisperAllSchemes)
{
    struct SchemeDef
    {
        const char *name;
        RuntimeConfig cfg;
    };
    const SchemeDef schemes[] = {
        {"unprotected", RuntimeConfig::unprotected()},
        {"mm", RuntimeConfig::mm()},
        {"tm", RuntimeConfig::tm()},
        {"tt", RuntimeConfig::tt()},
        {"tt-nocb", RuntimeConfig::ttNoCombining()},
        {"basic", RuntimeConfig::basicSemantics()},
    };
    workloads::WhisperParams p;
    p.sections = 60;
    for (const char *w : {"echo", "hashmap"}) {
        for (const SchemeDef &s : schemes) {
            workloads::RunResult r =
                workloads::runWhisper(w, s.cfg.withTrace(), p);
            expectAuditOk(r, std::string(w) + "/" + s.name);
        }
    }
}

TEST(TraceAudit, DifferentialSpecBothInsertionStyles)
{
    // Manual (MM) vs automatic (TM/TT) attach semantics on the
    // multi-PMO surrogates. MM manual sections don't refcount across
    // threads, so it runs single-threaded as in bench/table4_spec.
    for (const char *w : {"mcf", "xz"}) {
        for (const auto &cfg :
             {RuntimeConfig::mm(), RuntimeConfig::tm(),
              RuntimeConfig::tt()}) {
            workloads::SpecParams p;
            p.threads = cfg.scheme == Scheme::MM ? 1 : 4;
            p.scale = 0.2;
            workloads::RunResult r =
                workloads::runSpec(w, cfg.withTrace(), p);
            expectAuditOk(r, std::string(w) + "/" +
                                 schemeName(cfg.scheme));
        }
    }
}

namespace {

/**
 * Audit @p es re-emitted, in order, into a sink of @p cap events per
 * thread.
 */
trace::AuditReport
auditReEmitted(const std::vector<Event> &es, std::size_t cap,
               Cycles t_end, const semantics::EwTracker &expected)
{
    trace::TraceSink s(cap);
    for (const Event &e : es)
        s.emit(e.tid, e.kind, e.ts, e.pmo, e.arg);
    return trace::auditTimeline(s, t_end, expected);
}

} // namespace

TEST(TraceAudit, TamperedStreamIsCaught)
{
    Rig r(RuntimeConfig::tm(usToCycles(5)).withTrace());
    r.rt->regionBegin(*r.tc, r.pmo, pm::Mode::ReadWrite);
    r.tc->work(usToCycles(10)); // exceed the EW target
    r.rt->regionEnd(*r.tc, r.pmo); // past target: real detach
    // Keep running after the detach so the missing-detach replay
    // cannot be papered over by the end-of-run closure.
    r.tc->work(usToCycles(10));
    r.rt->finalize();

    const trace::TraceSink &sink = *r.rt->traceSink();
    std::vector<Event> es = r.events();
    trace::AuditReport good = trace::auditTimeline(
        sink, r.mach.maxClock(), r.rt->exposure());
    EXPECT_TRUE(good.ok) << good.summary();

    // Drop the real detach: the recomputed EW must now disagree.
    std::vector<Event> tampered;
    bool dropped = false;
    for (const Event &e : es) {
        if (!dropped && e.kind == EventKind::RealDetach) {
            dropped = true;
            continue;
        }
        tampered.push_back(e);
    }
    ASSERT_TRUE(dropped);
    trace::AuditReport bad = auditReEmitted(
        tampered, es.size(), r.mach.maxClock(), r.rt->exposure());
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.mismatches.empty());

    // An incomplete (wrapped) trace must refuse to vouch.
    trace::AuditReport inc =
        auditReEmitted(es, 1, r.mach.maxClock(), r.rt->exposure());
    EXPECT_FALSE(inc.ok);
    EXPECT_FALSE(inc.complete);

    // The registry's window histograms are held to the same replay:
    // one stray sample in a rollup or a per-PMO series is caught and
    // named.
    std::shared_ptr<metrics::Registry> reg = r.rt->metricsRegistry();
    ASSERT_NE(reg, nullptr);
    auto namesSeries = [](const trace::AuditReport &a,
                          const std::string &series) {
        for (const std::string &m : a.mismatches)
            if (m.rfind(series + ": ", 0) == 0)
                return true;
        return false;
    };
    const std::string ewAll = "exposure.ew_cycles{pmo=\"all\"}";
    reg->histogram(ewAll).record(1);
    trace::AuditReport strayEw = trace::auditTimeline(
        sink, r.mach.maxClock(), r.rt->exposure());
    EXPECT_FALSE(strayEw.ok);
    EXPECT_TRUE(namesSeries(strayEw, ewAll)) << strayEw.summary();

    const std::string tewPmo = metrics::labeled(
        "exposure.tew_cycles", "pmo", std::to_string(r.pmo));
    reg->histogram(tewPmo).record(1);
    trace::AuditReport strayTew = trace::auditTimeline(
        sink, r.mach.maxClock(), r.rt->exposure());
    EXPECT_FALSE(strayTew.ok);
    EXPECT_TRUE(namesSeries(strayTew, tewPmo)) << strayTew.summary();
}

// ------------------------------------------------------- exporters

TEST(TraceExport, ChromeJsonAndJsonlWellFormed)
{
    workloads::WhisperParams p;
    p.sections = 30;
    workloads::RunResult r = workloads::runWhisper(
        "echo", RuntimeConfig::tt().withTrace(), p);
    ASSERT_NE(r.trace, nullptr);

    std::ostringstream chrome;
    trace::writeChromeTrace(*r.trace, chrome, "echo tt");
    std::string cj = chrome.str();
    EXPECT_NE(cj.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(cj.find("process_name"), std::string::npos);
    EXPECT_NE(cj.find("real_attach"), std::string::npos);
    EXPECT_NE(cj.find("\"cat\":\"pmo\""), std::string::npos);
    EXPECT_NE(cj.find("\"cat\":\"region\""), std::string::npos);
    // Balanced braces/brackets is a cheap well-formedness proxy.
    EXPECT_EQ(std::count(cj.begin(), cj.end(), '{'),
              std::count(cj.begin(), cj.end(), '}'));
    EXPECT_EQ(std::count(cj.begin(), cj.end(), '['),
              std::count(cj.begin(), cj.end(), ']'));

    std::ostringstream jsonl;
    trace::writeJsonl(*r.trace, jsonl);
    std::string lj = jsonl.str();
    std::uint64_t lines = static_cast<std::uint64_t>(
        std::count(lj.begin(), lj.end(), '\n'));
    EXPECT_EQ(lines, r.trace->totalEmitted());
    EXPECT_NE(lj.find("\"kind\":\"thread_grant\""),
              std::string::npos);
}
