#include "serve/shard.hh"

#include <limits>
#include <string>

#include "common/logging.hh"
#include "pm/tx_manager.hh"
#include "semantics/ew_tracker.hh"

namespace terp {
namespace serve {

namespace {

constexpr Cycles never = std::numeric_limits<Cycles>::max();

core::DomainConfig
domainConfig(const ServeConfig &cfg, unsigned shard)
{
    core::DomainConfig dc;
    dc.runtime = cfg.runtime.withExposureSlo(kEwSlo, kTewSlo);
    dc.machine = cfg.machine;
    // Workers are simulated threads of this shard's machine.
    dc.machine.cores = cfg.workersPerShard;
    // Placement randomness is owned per shard and derived from the
    // fleet seed, never shared (the old batch harnesses reused one
    // constant seed because there was only ever one manager).
    dc.placementSeed = cfg.seed * 0x9e3779b97f4a7c15ULL + shard;
    dc.shardId = shard;
    dc.persistence = cfg.persistence;
    return dc;
}

} // namespace

ServeShard::ServeShard(const ServeConfig &cfg_, unsigned shard,
                       std::vector<Request> stream_)
    : cfg(cfg_), dom(domainConfig(cfg_, shard)),
      stream(std::move(stream_))
{
    if (auto reg = dom.runtime().metricsRegistry())
        reg->setLabel("shard", std::to_string(shard));
    // Tenant PMOs: local index l holds global tenant l*shards+shard.
    auto &ewt = dom.runtime().exposureMut();
    for (unsigned l = 0; l < cfg.pmosPerShard; ++l) {
        std::string name = "tenant" + std::to_string(shard) + "." +
                           std::to_string(l);
        auto &p = dom.pmos().create(name, cfg.pmoSize);
        tenants.push_back(p.id());
        // Tenant label on the tracker: per-tenant blame counters.
        ewt.setTenant(p.id(), name);
    }
    queuedPerTenant.assign(cfg.pmosPerShard, 0);
    holdersSlow.assign(cfg.pmosPerShard, 0);

    workers.resize(cfg.workersPerShard);
    for (auto &w : workers)
        w.tid = dom.machine().spawnThread().tid();
    if (cfg.runtime.scheme == core::Scheme::MM)
        manualHeld.assign(cfg.pmosPerShard, 0);

    if (auto reg = dom.runtime().metricsRegistry()) {
        mArrived = &reg->counter("serve.requests_arrived");
        mDone = &reg->counter("serve.requests_done");
        mShed = &reg->counter("serve.requests_shed");
        mSlow = &reg->counter("serve.requests_slow");
        mDepth = &reg->gauge("serve.queue_depth");
        mLatency = &reg->histogram("serve.request_latency_cycles");
        mWait = &reg->histogram("serve.queue_wait_cycles");
    }

    if (cfg.tenantEwBudget > 0) {
        burn.resize(cfg.pmosPerShard);
        if (auto reg = dom.runtime().metricsRegistry()) {
            for (unsigned l = 0; l < cfg.pmosPerShard; ++l) {
                std::string base = metrics::labeled(
                    "serve.slo_burn", "tenant",
                    "tenant" + std::to_string(shard) + "." +
                        std::to_string(l));
                burn[l].fast = &reg->gauge(
                    metrics::labeled(base, "win", "fast"));
                burn[l].slow = &reg->gauge(
                    metrics::labeled(base, "win", "slow"));
            }
        }
        ewt.setCloseHook(
            [this](pm::PmoId pmo, Cycles closeAt, Cycles len) {
                onWindowClose(pmo, closeAt, len);
            });
    }
}

void
ServeShard::admit(const Request &req)
{
    ++sum.arrived;
    if (mArrived)
        mArrived->inc();
    unsigned l = static_cast<unsigned>(req.globalPmo / cfg.shards);
    if (queue.size() >= cfg.queueCapacity) {
        // Backpressure: shed, observably. The session's later
        // requests still arrive (open-loop clients don't wait).
        ++sum.shed;
        if (mShed)
            mShed->inc();
        if (auto sink = dom.runtime().traceSink())
            sink->emit(trace::TraceSink::kernelTid,
                       trace::EventKind::RequestShed, req.arrival,
                       trace::noPmo, req.session);
        return;
    }
    queue.push_back(req);
    // First waiter for this tenant: its exposure is now queue-bound,
    // not app- or sweeper-bound, until the backlog drains.
    if (++queuedPerTenant[l] == 1)
        dom.runtime().exposureMut().setIdleCause(
            tenants[l], semantics::BlameCause::QueueWait,
            req.arrival);
    if (queue.size() > sum.queueHwm)
        sum.queueHwm = queue.size();
    if (mDepth)
        mDepth->set(static_cast<double>(queue.size()));
}

void
ServeShard::assign(Worker &w, Cycles at)
{
    TERP_ASSERT(!queue.empty(), "ServeShard: assign from empty queue");
    w.req = queue.front();
    queue.pop_front();
    if (mDepth)
        mDepth->set(static_cast<double>(queue.size()));

    auto &tc = dom.machine().thread(w.tid);
    // Idle span between requests is the server's own time, not
    // protection overhead.
    tc.syncTo(at, sim::Charge::Work);
    w.phase = Phase::Begin;
    w.localIdx = static_cast<unsigned>(w.req.globalPmo / cfg.shards);
    w.localPmo = tenants.at(w.localIdx);
    w.opIdx = 0;
    w.holdLeft = w.req.slow ? cfg.slowHold : 0;
    w.startedAt = at;
    w.ops = Rng(w.req.salt);
    TERP_ASSERT(queuedPerTenant[w.localIdx] > 0,
                "ServeShard: tenant queue count underflow");
    if (--queuedPerTenant[w.localIdx] == 0)
        dom.runtime().exposureMut().clearIdleCause(w.localPmo, at);
    if (mWait)
        mWait->record(at - w.req.arrival);
    if (auto sink = dom.runtime().traceSink())
        sink->emit(tc.tid(), trace::EventKind::RequestStart, at,
                   w.localPmo, w.req.session);
}

void
ServeShard::stepWorker(Worker &w)
{
    auto &tc = dom.machine().thread(w.tid);
    auto &rt = dom.runtime();

    switch (w.phase) {
      case Phase::Begin: {
        // Both bookends, whisper-style: manualBegin is a no-op
        // unless the scheme is MM, regionBegin unless it inserts
        // automatically (TM/TT/ablations) — so one request shape
        // serves every scheme. Under basic blocking the begin may
        // park the thread; the event loop skips blocked workers
        // until the holder's end wakes this one, and we retry from
        // the same phase.
        if (!manualHeld.empty()) {
            TERP_ASSERT(!manualHeld[w.localIdx],
                        "ServeShard: Begin on a held manual PMO");
            manualHeld[w.localIdx] = 1;
        }
        rt.manualBegin(tc, w.localPmo, pm::Mode::ReadWrite);
        if (rt.regionBegin(tc, w.localPmo, pm::Mode::ReadWrite) ==
            core::GuardResult::Blocked)
            return;
        w.phase = Phase::Op;
        return;
      }
      case Phase::Op: {
        std::uint64_t span = cfg.pmoSize > kBytesPerOp
                                 ? cfg.pmoSize - kBytesPerOp
                                 : 1;
        std::uint64_t off = w.ops.nextBelow(span) & ~std::uint64_t{7};
        bool write = w.ops.nextBool(0.5);
        rt.accessRange(tc, pm::Oid(w.localPmo, off), kBytesPerOp,
                       write);
        dom.machine().execute(tc,
                              w.ops.jitter(kInstrPerOp, 0.5));
        if (++w.opIdx >= w.req.ops) {
            if (w.holdLeft > 0) {
                w.phase = Phase::Hold;
                // Slow client keeping the region open: attribute
                // the tenant's exposure to the client, not the app.
                if (++holdersSlow[w.localIdx] == 1)
                    rt.exposureMut().setHoldCause(
                        w.localPmo,
                        semantics::BlameCause::SlowClientHold,
                        tc.now());
            } else {
                w.phase = Phase::End;
            }
        }
        return;
      }
      case Phase::Hold: {
        // A slow client sits inside its protection region. Advance
        // in sweeper-period chunks so the event loop can interleave
        // sweep ticks with the hold — this is exactly the situation
        // that forces the sweeper to act on a live window.
        Cycles chunk = dom.machine().config().hookPeriod;
        if (chunk > w.holdLeft)
            chunk = w.holdLeft;
        tc.work(chunk);
        w.holdLeft -= chunk;
        if (w.holdLeft == 0) {
            w.phase = Phase::End;
            if (--holdersSlow[w.localIdx] == 0)
                rt.exposureMut().clearHoldCause(w.localPmo,
                                                tc.now());
        }
        return;
      }
      case Phase::End: {
        // The request's durable transaction, inside the protection
        // bookends: a multi-op TxManager commit on the tenant PMO.
        // Busy means another worker's transaction holds this tenant
        // right now — the request completes without one (counted in
        // pm.txn_busy), it does not wait.
        if (cfg.txnWrites > 0 && dom.persistence()) {
            pm::TxManager &txm = *rt.tx();
            bool redo = w.ops.nextBool(0.5);
            if (txm.begin(tc, w.tid, {w.localPmo},
                          redo ? pm::TxKind::Redo
                               : pm::TxKind::Undo)) {
                std::uint64_t span = cfg.pmoSize - 64;
                for (unsigned j = 0; j < cfg.txnWrites; ++j) {
                    std::uint64_t off =
                        w.ops.nextBelow(span) & ~std::uint64_t{7};
                    std::uint64_t val =
                        (static_cast<std::uint64_t>(w.req.session)
                         << 16) |
                        j;
                    txm.write(tc, w.tid, pm::Oid(w.localPmo, off),
                              val);
                }
                txm.commit(tc, w.tid);
            }
        }
        rt.regionEnd(tc, w.localPmo);
        rt.manualEnd(tc, w.localPmo);
        if (!manualHeld.empty()) {
            manualHeld[w.localIdx] = 0;
            // Waiters resume at the release time, like threads
            // woken from a runtime block.
            for (auto &o : workers)
                if (o.phase == Phase::Begin &&
                    o.localPmo == w.localPmo && o.tid != w.tid)
                    dom.machine().thread(o.tid).syncTo(
                        tc.now(), sim::Charge::Other);
        }
        complete(w);
        return;
      }
      case Phase::Idle:
        TERP_ASSERT(false, "ServeShard: stepped an idle worker");
    }
}

void
ServeShard::onWindowClose(pm::PmoId pmo, Cycles closeAt, Cycles len)
{
    unsigned l = 0;
    while (l < tenants.size() && tenants[l] != pmo)
        ++l;
    if (l >= burn.size())
        return;
    auto &b = burn[l];
    // Tumbling buckets aligned to t=0; a window is charged whole to
    // the bucket containing its close time (windows longer than the
    // bucket can legitimately push burn past 1/budget — that's the
    // budget being blown, not an accounting bug).
    auto bump = [&](std::uint64_t &bucket, Cycles &sumC, Cycles win,
                    metrics::Gauge *g) {
        std::uint64_t now = closeAt / win;
        if (now != bucket) {
            bucket = now;
            sumC = 0;
        }
        sumC += len;
        if (g)
            g->set(static_cast<double>(sumC) / static_cast<double>(win) /
                   cfg.tenantEwBudget);
    };
    bump(b.fastBucket, b.fastSum, kBurnFast, b.fast);
    bump(b.slowBucket, b.slowSum, kBurnSlow, b.slow);
}

void
ServeShard::complete(Worker &w)
{
    auto &tc = dom.machine().thread(w.tid);
    ++sum.completed;
    if (mDone)
        mDone->inc();
    if (w.req.slow) {
        ++sum.slowCompleted;
        if (mSlow)
            mSlow->inc();
    }
    if (mLatency)
        mLatency->record(tc.now() - w.req.arrival);
    if (auto sink = dom.runtime().traceSink())
        sink->emit(tc.tid(), trace::EventKind::RequestDone, tc.now(),
                   w.localPmo, w.req.session);
    w.phase = Phase::Idle;
}

void
ServeShard::run()
{
    for (;;) {
        // Candidate event times. Priorities at equal times:
        // arrival (0) < assignment (1) < worker op (2); workers tie
        // by id. This total order is what makes the shard's whole
        // evolution reproducible.
        Cycles tArr =
            nextArrival < stream.size() ? stream[nextArrival].arrival
                                        : never;

        Worker *idle = nullptr;
        Worker *busy = nullptr;
        for (auto &w : workers) {
            auto &tc = dom.machine().thread(w.tid);
            if (w.phase == Phase::Idle) {
                if (!idle ||
                    tc.now() <
                        dom.machine().thread(idle->tid).now())
                    idle = &w;
            } else if (w.phase == Phase::Begin &&
                       !manualHeld.empty() &&
                       manualHeld[w.localIdx]) {
                // Serialized behind a manual region; resumes when
                // the holder's End releases the tenant.
            } else if (!tc.blocked()) {
                if (!busy ||
                    tc.now() <
                        dom.machine().thread(busy->tid).now())
                    busy = &w;
            }
        }

        Cycles tAssign = never;
        if (idle && !queue.empty()) {
            Cycles free = dom.machine().thread(idle->tid).now();
            tAssign = free > queue.front().arrival
                          ? free
                          : queue.front().arrival;
        }
        Cycles tOp =
            busy ? dom.machine().thread(busy->tid).now() : never;

        Cycles t = tArr;
        int what = 0;
        if (tAssign < t) {
            t = tAssign;
            what = 1;
        }
        if (tOp < t) {
            t = tOp;
            what = 2;
        }
        if (t == never)
            break; // drained
        sum.lastEvent = t;

        // Fire every sweep boundary up to the event's time first —
        // the same "sweeper never lags the minimum runnable clock"
        // rule Machine::run applies in batch runs.
        dom.sweepTo(t);

        switch (what) {
          case 0:
            admit(stream[nextArrival++]);
            break;
          case 1:
            assign(*idle, t);
            break;
          default:
            stepWorker(*busy);
            break;
        }
    }

    sum.endClock = dom.machine().maxClock();

    // Post-run drain: with every worker marked done the sweeper's
    // detaches are chargeless (no live thread to bill), matching the
    // batch harnesses' end-of-run path. Run it past the exposure
    // horizon so delayed detaches and forced randomizations land.
    for (auto &w : workers)
        dom.machine().thread(w.tid).done = true;
    Cycles horizon = sum.endClock + cfg.runtime.ewTarget +
                     2 * dom.machine().config().hookPeriod;
    dom.sweepTo(horizon);
    dom.finalize();
}

} // namespace serve
} // namespace terp
