/**
 * @file
 * Tests for the terp-serve subsystem (src/serve) and its enabling
 * refactor (core::ShardDomain): load-generator determinism,
 * host-worker-count invariance of the fleet result, cycle-identity
 * of a 1-shard domain with the hand-assembled batch Runtime,
 * session lifecycle balance, slow-client window-holds vs the
 * sweeper under each semantics configuration, bounded-queue
 * backpressure, cross-shard metrics-merge commutativity, and the
 * exposure-SLO counters.
 */

#include <gtest/gtest.h>

#include "core/domain.hh"
#include "metrics/export.hh"
#include "semantics/ew_tracker.hh"
#include "serve/loadgen.hh"
#include "serve/report.hh"
#include "serve/server.hh"

using namespace terp;

namespace {

/** Small fleet the multi-worker tests share. */
serve::ServeConfig
tinyConfig()
{
    serve::ServeConfig cfg = serve::ServeConfig::quick();
    cfg.sessions = 60;
    cfg.requestsPerSession = 6;
    cfg.seed = 7;
    return cfg;
}

} // namespace

// ------------------------------------------------------------ loadgen

TEST(ServeLoadGen, DeterministicPerSeed)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::LoadGen a(cfg), b(cfg);
    ASSERT_EQ(a.totalRequests(), b.totalRequests());
    ASSERT_EQ(a.horizon(), b.horizon());
    for (unsigned k = 0; k < cfg.shards; ++k) {
        const auto &sa = a.shardStream(k);
        const auto &sb = b.shardStream(k);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].arrival, sb[i].arrival);
            EXPECT_EQ(sa[i].session, sb[i].session);
            EXPECT_EQ(sa[i].seq, sb[i].seq);
            EXPECT_EQ(sa[i].globalPmo, sb[i].globalPmo);
            EXPECT_EQ(sa[i].ops, sb[i].ops);
            EXPECT_EQ(sa[i].slow, sb[i].slow);
            EXPECT_EQ(sa[i].salt, sb[i].salt);
        }
    }
}

TEST(ServeLoadGen, SeedChangesTheStream)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::LoadGen a(cfg);
    cfg.seed = cfg.seed + 1;
    serve::LoadGen b(cfg);
    bool differs = a.horizon() != b.horizon();
    for (unsigned k = 0; !differs && k < cfg.shards; ++k) {
        const auto &sa = a.shardStream(k);
        const auto &sb = b.shardStream(k);
        if (sa.size() != sb.size()) {
            differs = true;
            break;
        }
        for (std::size_t i = 0; i < sa.size(); ++i)
            if (sa[i].arrival != sb[i].arrival ||
                sa[i].globalPmo != sb[i].globalPmo) {
                differs = true;
                break;
            }
    }
    EXPECT_TRUE(differs);
}

TEST(ServeLoadGen, PartitionsByTenantAndSortsByArrival)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::LoadGen g(cfg);
    std::uint64_t total = 0;
    for (unsigned k = 0; k < cfg.shards; ++k) {
        const auto &s = g.shardStream(k);
        total += s.size();
        for (std::size_t i = 0; i < s.size(); ++i) {
            EXPECT_EQ(s[i].globalPmo % cfg.shards, k);
            EXPECT_LT(s[i].globalPmo, cfg.totalPmos());
            if (i > 0) {
                EXPECT_LE(s[i - 1].arrival, s[i].arrival);
            }
        }
    }
    EXPECT_EQ(total, g.totalRequests());
    EXPECT_EQ(total,
              std::uint64_t(cfg.sessions) * cfg.requestsPerSession);
}

// ------------------------------------------- worker-count invariance

TEST(ServeFleet, ResultIndependentOfHostWorkers)
{
    // Fewer host workers than shards, and more.
    serve::ServeConfig cfg = tinyConfig();
    cfg.shards = 6;
    serve::FleetResult r1 = serve::runFleet(cfg, 1);
    for (unsigned workers : {4u, 8u}) {
        SCOPED_TRACE(workers);
        serve::FleetResult rn = serve::runFleet(cfg, workers);

        // The golden contract: byte-identical posture report.
        EXPECT_EQ(serve::postureReport(r1), serve::postureReport(rn));
        EXPECT_EQ(r1.epochs, rn.epochs);
        EXPECT_EQ(r1.endClock, rn.endClock);

        // And the underlying aggregates, not just their rendering.
        ASSERT_EQ(r1.shards.size(), rn.shards.size());
        for (std::size_t k = 0; k < r1.shards.size(); ++k) {
            const serve::ShardSummary &a = r1.shards[k];
            const serve::ShardSummary &b = rn.shards[k];
            EXPECT_EQ(a.arrived, b.arrived);
            EXPECT_EQ(a.completed, b.completed);
            EXPECT_EQ(a.shed, b.shed);
            EXPECT_EQ(a.slowCompleted, b.slowCompleted);
            EXPECT_EQ(a.queueHwm, b.queueHwm);
            EXPECT_EQ(a.lastEvent, b.lastEvent);
            EXPECT_EQ(a.endClock, b.endClock);
        }
        ASSERT_TRUE(r1.fleet && rn.fleet);
        EXPECT_EQ(metrics::toJson(*r1.fleet),
                  metrics::toJson(*rn.fleet));
    }
}

// Values recorded from the fleet driver that stepped every shard in
// lockstep 100 us epochs. epochs is now computed from each shard's
// last event, and must still count the epochs that stepping took.

TEST(ServeFleet, SparseFleetMatchesLockstepStepping)
{
    // Seven of the sixteen shards get no request at all.
    serve::ServeConfig cfg = tinyConfig();
    cfg.shards = 16;
    cfg.sessions = 3;
    serve::FleetResult res = serve::runFleet(cfg, 4);
    EXPECT_EQ(res.epochs, 6u);
    EXPECT_EQ(res.endClock, 1132372u);
    EXPECT_EQ(serve::postureReport(res),
              "terp-serve posture report\n"
              "config: scheme=tt shards=16 workers/shard=4 pmos/shard=8 "
              "sessions=3 reqs/session=6 seed=7\n"
              "load: zipf=0.99 slow=2.0% hold=120.00us queue-cap=16 "
              "slo-ew=80.00us slo-tew=20.00us\n"
              "stream: generated=18 arrived=18 completed=18 shed=0 "
              "slow-completed=0 slow-sessions=0\n"
              "clock: horizon=511.76us end=514.71us epochs=6\n"
              "fleet: latency p50=4.89us p95=9.43us p99=9.43us p999=9.43us\n"
              "fleet: queue-wait p50=0.00us p95=0.00us p99=0.00us "
              "p999=0.00us depth-hwm=1\n"
              "fleet: EW  p50=39.10us p95=40.40us p99=40.40us p999=40.40us\n"
              "fleet: TEW p50=3.96us p95=7.41us p99=7.41us p999=7.41us\n"
              "fleet: slo-violations ew=0 tew=0\n"
              "shard 0: completed=4 shed=0 qhwm=1 lat-p99=7.62us "
              "ew-p99=40.00us tew-p99=5.60us slo-ew=0 slo-tew=0\n"
              "shard 1: completed=2 shed=0 qhwm=1 lat-p99=9.32us "
              "ew-p99=39.97us tew-p99=7.29us slo-ew=0 slo-tew=0\n"
              "shard 2: completed=3 shed=0 qhwm=1 lat-p99=6.61us "
              "ew-p99=39.74us tew-p99=4.59us slo-ew=0 slo-tew=0\n"
              "shard 3: completed=2 shed=0 qhwm=1 lat-p99=4.82us "
              "ew-p99=38.66us tew-p99=4.81us slo-ew=0 slo-tew=0\n"
              "shard 4: completed=1 shed=0 qhwm=1 lat-p99=2.94us "
              "ew-p99=38.62us tew-p99=0.92us slo-ew=0 slo-tew=0\n"
              "shard 5: completed=3 shed=0 qhwm=1 lat-p99=9.43us "
              "ew-p99=40.40us tew-p99=7.41us slo-ew=0 slo-tew=0\n"
              "shard 6: completed=0 shed=0 qhwm=0 lat-p99=- ew-p99=- "
              "tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 7: completed=0 shed=0 qhwm=0 lat-p99=- ew-p99=- "
              "tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 8: completed=0 shed=0 qhwm=0 lat-p99=- ew-p99=- "
              "tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 9: completed=1 shed=0 qhwm=1 lat-p99=2.95us "
              "ew-p99=38.22us tew-p99=0.93us slo-ew=0 slo-tew=0\n"
              "shard 10: completed=0 shed=0 qhwm=0 lat-p99=- ew-p99=- "
              "tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 11: completed=0 shed=0 qhwm=0 lat-p99=- ew-p99=- "
              "tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 12: completed=1 shed=0 qhwm=1 lat-p99=6.57us "
              "ew-p99=38.35us tew-p99=4.55us slo-ew=0 slo-tew=0\n"
              "shard 13: completed=0 shed=0 qhwm=0 lat-p99=- ew-p99=- "
              "tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 14: completed=0 shed=0 qhwm=0 lat-p99=- ew-p99=- "
              "tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 15: completed=1 shed=0 qhwm=1 lat-p99=4.86us "
              "ew-p99=38.56us tew-p99=2.83us slo-ew=0 slo-tew=0\n");
}

TEST(ServeFleet, ManualTxnFleetMatchesLockstepStepping)
{
    serve::ServeConfig cfg = tinyConfig();
    cfg.runtime = core::RuntimeConfig::mm();
    cfg.txnWrites = 4;
    cfg.persistence = true;
    serve::FleetResult res = serve::runFleet(cfg, 2);
    EXPECT_EQ(res.epochs, 14u);
    EXPECT_EQ(res.endClock, 2936695u);
    EXPECT_EQ(serve::postureReport(res),
              "terp-serve posture report\n"
              "config: scheme=mm shards=2 workers/shard=4 pmos/shard=8 "
              "sessions=60 reqs/session=6 seed=7\n"
              "load: zipf=0.99 slow=2.0% hold=120.00us queue-cap=16 "
              "slo-ew=80.00us slo-tew=20.00us\n"
              "stream: generated=360 arrived=360 completed=239 shed=121 "
              "slow-completed=10 slow-sessions=3\n"
              "clock: horizon=1192.49us end=1334.86us epochs=14\n"
              "fleet: latency p50=50.27us p95=223.42us p99=275.55us "
              "p999=298.19us\n"
              "fleet: queue-wait p50=32.58us p95=197.35us p99=215.97us "
              "p999=220.87us depth-hwm=16\n"
              "fleet: EW  p50=6.98us p95=40.03us p99=40.81us p999=40.81us\n"
              "fleet: TEW -\n"
              "fleet: slo-violations ew=0 tew=0\n"
              "shard 0: completed=110 shed=109 qhwm=16 lat-p99=275.55us "
              "ew-p99=40.81us tew-p99=- slo-ew=0 slo-tew=0\n"
              "shard 1: completed=129 shed=12 qhwm=16 lat-p99=141.50us "
              "ew-p99=40.41us tew-p99=- slo-ew=0 slo-tew=0\n");
}

// -------------------------------------- 1-shard vs batch cycle parity

namespace {

/** A fixed little batch program: regions + strided accesses. */
class BatchJob : public sim::Job
{
  public:
    BatchJob(core::Runtime &rt, pm::PmoId pmo, unsigned steps)
        : rt(rt), pmo(pmo), left(steps)
    {
    }

    bool
    step(sim::ThreadContext &tc) override
    {
        if (left == 0)
            return false;
        --left;
        rt.regionBegin(tc, pmo, pm::Mode::ReadWrite);
        rt.accessRange(tc, pm::Oid(pmo, (left * 4096) % (1 * MiB)),
                       256, (left & 1) != 0);
        rt.regionEnd(tc, pmo);
        tc.work(5 * cyclesPerUs);
        return true;
    }

  private:
    core::Runtime &rt;
    pm::PmoId pmo;
    unsigned left;
};

} // namespace

TEST(ShardDomain, OneShardCycleIdenticalToBatchRuntime)
{
    constexpr unsigned kThreads = 3;
    constexpr unsigned kSteps = 40;

    // Batch assembly, exactly as the workloads do it.
    sim::MachineConfig mc;
    mc.cores = kThreads;
    sim::Machine mach(mc);
    pm::PmoManager pmos(1234);
    core::Runtime rt(mach, pmos, core::RuntimeConfig::tt());
    std::vector<std::unique_ptr<BatchJob>> batchJobs;
    std::vector<sim::Job *> batchPtrs;
    for (unsigned t = 0; t < kThreads; ++t) {
        pm::Pmo &p = pmos.create(
            std::string("b").append(std::to_string(t)), 1 * MiB);
        mach.spawnThread();
        batchJobs.push_back(
            std::make_unique<BatchJob>(rt, p.id(), kSteps));
        batchPtrs.push_back(batchJobs.back().get());
    }
    mach.run(batchPtrs, [&](Cycles now) { rt.onSweep(now); });
    rt.finalize();

    // Same program through a 1-shard domain.
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::tt();
    dc.machine = mc;
    dc.placementSeed = 1234;
    core::ShardDomain dom(dc);
    std::vector<std::unique_ptr<BatchJob>> domJobs;
    std::vector<sim::Job *> domPtrs;
    for (unsigned t = 0; t < kThreads; ++t) {
        pm::Pmo &p =
            dom.pmos().create(std::string("b").append(std::to_string(t)),
                              1 * MiB);
        dom.machine().spawnThread();
        domJobs.push_back(std::make_unique<BatchJob>(
            dom.runtime(), p.id(), kSteps));
        domPtrs.push_back(domJobs.back().get());
    }
    dom.runJobs(domPtrs);
    dom.finalize();

    // Cycle-exact agreement, category by category and thread by
    // thread — the refactor must not change batch behavior at all.
    core::OverheadReport a = rt.report();
    core::OverheadReport b = dom.runtime().report();
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(a.attach, b.attach);
    EXPECT_EQ(a.detach, b.detach);
    EXPECT_EQ(a.rand, b.rand);
    EXPECT_EQ(a.cond, b.cond);
    EXPECT_EQ(a.other, b.other);
    EXPECT_EQ(a.attachSyscalls, b.attachSyscalls);
    EXPECT_EQ(a.detachSyscalls, b.detachSyscalls);
    EXPECT_EQ(a.randomizations, b.randomizations);
    EXPECT_EQ(a.condOps, b.condOps);
    EXPECT_EQ(mach.maxClock(), dom.machine().maxClock());
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(mach.thread(t).now(),
                  dom.machine().thread(t).now());

    // Exposure statistics agree too.
    const Cycles total = mach.maxClock();
    auto ea = rt.exposure().metricsAll(total, kThreads);
    auto eb = dom.runtime().exposure().metricsAll(total, kThreads);
    EXPECT_EQ(ea.ewCount, eb.ewCount);
    EXPECT_EQ(ea.tewCount, eb.tewCount);
}

// -------------------------------------------------- session lifecycle

TEST(ServeFleet, LifecycleBalancedAndEverythingDetached)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::FleetResult res = serve::runFleet(cfg, 2);

    std::uint64_t arrived = 0, completed = 0, shed = 0;
    for (const auto &s : res.shards) {
        arrived += s.arrived;
        completed += s.completed;
        shed += s.shed;
    }
    // No request is lost or double-counted: everything generated
    // arrives at some shard, and everything that arrived either
    // completed or was observably shed.
    EXPECT_EQ(arrived, res.generated);
    EXPECT_EQ(completed + shed, arrived);
    EXPECT_GT(completed, 0u);

    // Attach/detach balance: the fleet aggregate performed exactly
    // as many real detaches as real attaches (every window that
    // opened was closed by regionEnd, the sweeper, or the drain).
    ASSERT_TRUE(res.fleet);
    const metrics::Counter *at =
        res.fleet->findCounter("runtime.attach_syscalls");
    const metrics::Counter *dt =
        res.fleet->findCounter("runtime.detach_syscalls");
    ASSERT_TRUE(at && dt);
    EXPECT_GT(at->value(), 0u);
    EXPECT_EQ(at->value(), dt->value());
}

// ----------------------------- slow clients vs sweeper, per semantics

namespace {

/** Slow-heavy fleet: every session holds windows past the target. */
serve::ServeConfig
slowConfig(const core::RuntimeConfig &rc)
{
    serve::ServeConfig cfg;
    cfg.shards = 1;
    cfg.workersPerShard = 2;
    cfg.pmosPerShard = 4;
    cfg.sessions = 12;
    cfg.requestsPerSession = 3;
    cfg.slowFraction = 1.0;
    cfg.slowHold = 3 * target::defaultEw;
    cfg.seed = 11;
    cfg.runtime = rc;
    return cfg;
}

} // namespace

TEST(ServeSlowClients, SweeperBoundsEwUnderEveryScheme)
{
    const core::RuntimeConfig schemes[] = {
        core::RuntimeConfig::tt(),
        core::RuntimeConfig::ttNoCombining(),
        core::RuntimeConfig::tm(),
        core::RuntimeConfig::mm(),
        core::RuntimeConfig::basicSemantics(),
    };
    for (const auto &rc : schemes) {
        serve::ServeConfig cfg = slowConfig(rc);
        serve::FleetResult res = serve::runFleet(cfg, 1);
        SCOPED_TRACE(core::schemeTag(rc.scheme));

        ASSERT_EQ(res.shards.size(), 1u);
        EXPECT_GT(res.shards[0].completed, 0u);

        // The sweeper (hardware CB or software timer) must keep
        // every *process* exposure window near the target even
        // though every client holds its region 3x past it: no EW
        // SLO violations at 2x the target.
        ASSERT_TRUE(res.fleet);
        const metrics::Counter *ew = res.fleet->findCounter(
            "exposure.slo_violations{win=\"ew\"}");
        EXPECT_EQ(ew ? ew->value() : 0, 0u)
            << "sweeper let an exposure window outlive 2x target";

        // Schemes with per-thread permissions (EW-conscious) see
        // the holds as TEW SLO violations — the slow-client signal
        // the posture report is for.
        if (rc.threadPerms()) {
            const metrics::Counter *tew = res.fleet->findCounter(
                "exposure.slo_violations{win=\"tew\"}");
            ASSERT_TRUE(tew);
            EXPECT_GT(tew->value(), 0u);
            EXPECT_GE(tew->value(), res.shards[0].slowCompleted);
        }
    }
}

// ------------------------------------------------------- backpressure

TEST(ServeBackpressure, TinyQueueShedsObservablyNeverSilently)
{
    serve::ServeConfig cfg = tinyConfig();
    cfg.queueCapacity = 1;
    cfg.workersPerShard = 1;
    serve::FleetResult res = serve::runFleet(cfg, 2);

    std::uint64_t completed = 0, shed = 0;
    for (const auto &s : res.shards) {
        completed += s.completed;
        shed += s.shed;
    }
    EXPECT_GT(shed, 0u) << "a 1-deep queue under this load must shed";
    EXPECT_GT(completed, 0u);
    EXPECT_EQ(completed + shed, res.generated);

    // The shed count is published, so operators can alert on it.
    ASSERT_TRUE(res.fleet);
    const metrics::Counter *c =
        res.fleet->findCounter("serve.requests_shed");
    ASSERT_TRUE(c);
    EXPECT_EQ(c->value(), shed);
}

// ------------------------------------------------- merge commutativity

TEST(ServeFleet, CrossShardMergeIsCommutative)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::FleetResult res = serve::runFleet(cfg, 2);
    ASSERT_GE(res.shardMetrics.size(), 2u);
    ASSERT_TRUE(res.shardMetrics[0] && res.shardMetrics[1]);

    auto keep = [](const std::string &) { return true; };
    metrics::Registry fwd, rev;
    for (std::size_t k = 0; k < res.shardMetrics.size(); ++k)
        fwd.merge(*res.shardMetrics[k], keep);
    for (std::size_t k = res.shardMetrics.size(); k-- > 0;)
        rev.merge(*res.shardMetrics[k], keep);
    EXPECT_EQ(metrics::toJson(fwd), metrics::toJson(rev));
}

// ------------------------------------------------------- exposure SLO

TEST(EwTrackerSlo, CountsWindowsPastThreshold)
{
    metrics::Registry reg;
    semantics::EwTracker t;
    t.enableMetrics(&reg);
    t.setSlo(100, 50);

    t.processOpen(0, 0);
    t.processClose(0, 100); // len 100: not > threshold, no violation
    t.processOpen(0, 200);
    t.processClose(0, 301); // len 101: violation
    t.threadOpen(0, 0, 0);
    t.threadClose(0, 0, 50); // len 50: ok
    t.threadOpen(1, 0, 0);
    t.threadClose(1, 0, 200); // len 200: violation
    t.threadOpen(2, 0, 10);
    t.threadClose(2, 0, 80); // len 70: violation

    EXPECT_EQ(t.sloEwViolations(), 1u);
    EXPECT_EQ(t.sloTewViolations(), 2u);
    const metrics::Counter *ew =
        reg.findCounter("exposure.slo_violations{win=\"ew\"}");
    const metrics::Counter *tew =
        reg.findCounter("exposure.slo_violations{win=\"tew\"}");
    ASSERT_TRUE(ew && tew);
    EXPECT_EQ(ew->value(), 1u);
    EXPECT_EQ(tew->value(), 2u);
}

TEST(EwTrackerSlo, OffByDefault)
{
    metrics::Registry reg;
    semantics::EwTracker t;
    t.enableMetrics(&reg);
    t.processOpen(0, 0);
    t.processClose(0, 1000000);
    EXPECT_EQ(t.sloEwViolations(), 0u);
    // The counter is never even created, so batch-run exports are
    // byte-identical to pre-SLO builds.
    EXPECT_EQ(reg.findCounter("exposure.slo_violations{win=\"ew\"}"),
              nullptr);
}

// ------------------------------------------------------------- report

TEST(ServeReport, DeterministicAndCoversShards)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::FleetResult res = serve::runFleet(cfg, 2);
    std::string rep = serve::postureReport(res);
    EXPECT_NE(rep.find("terp-serve posture report"), std::string::npos);
    EXPECT_NE(rep.find("fleet: slo-violations"), std::string::npos);
    for (unsigned k = 0; k < cfg.shards; ++k)
        EXPECT_NE(rep.find("shard " + std::to_string(k) + ":"),
                  std::string::npos);
    // No host-dependent content: rendering twice is identical.
    EXPECT_EQ(rep, serve::postureReport(res));
}


// ------------------------------------------------------------ txns

TEST(ServeTxn, DurableTransactionsPerRequestAreObservable)
{
    serve::ServeConfig cfg = tinyConfig();
    cfg.txnWrites = 3;
    cfg.persistence = true;
    serve::FleetResult a = serve::runFleet(cfg, 1);
    ASSERT_NE(a.fleet, nullptr);
    const metrics::Counter *commits =
        a.fleet->findCounter("pm.txn_commits");
    ASSERT_NE(commits, nullptr) << "no pm.txn_commits counter";
    EXPECT_GT(commits->value(), 0u)
        << "every completed request ends in a durable commit";

    // The worker-count invariance contract holds with the
    // transactional tail enabled too.
    serve::FleetResult b = serve::runFleet(cfg, 3);
    EXPECT_EQ(serve::postureReport(a), serve::postureReport(b));
}

TEST(ServeTxn, OffByDefault)
{
    serve::ServeConfig cfg = tinyConfig();
    ASSERT_EQ(cfg.txnWrites, 0u);
    serve::FleetResult res = serve::runFleet(cfg, 1);
    ASSERT_NE(res.fleet, nullptr);
    const metrics::Counter *begins =
        res.fleet->findCounter("pm.txn_begins");
    EXPECT_TRUE(begins == nullptr || begins->value() == 0u);
}

// ----------------------------- exposure provenance + burn alerting

TEST(ServeBlame, AttributionIsChargeFreeAndTenantLabeled)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::FleetResult off = serve::runFleet(cfg, 1);
    cfg.tenantEwBudget = 0.05;
    serve::FleetResult on = serve::runFleet(cfg, 2);

    // Budgets/burn alerting must never perturb the simulation: the
    // posture report is byte-identical with them on or off (and
    // independent of host workers, as everywhere).
    EXPECT_EQ(serve::postureReport(off), serve::postureReport(on));

    // Per-tenant blame counters carry the serve-only causes: the
    // slow-client scenario and the bounded queue are both active in
    // the quick config, so both causes must have cycles somewhere.
    ASSERT_TRUE(on.fleet);
    std::uint64_t queueWait = 0, slowHold = 0, appHold = 0;
    for (const auto &[name, e] : on.fleet->entries()) {
        if (metrics::baseName(name) != "exposure.blame_total" ||
            e.kind != metrics::Kind::Counter)
            continue;
        auto ls = metrics::nameLabels(name);
        if (!ls.count("tenant"))
            continue;
        if (ls["cause"] == "queue_wait")
            queueWait += e.counter.value();
        else if (ls["cause"] == "slow_client_hold")
            slowHold += e.counter.value();
        else if (ls["cause"] == "app_hold")
            appHold += e.counter.value();
    }
    EXPECT_GT(queueWait, 0u);
    EXPECT_GT(slowHold, 0u);
    EXPECT_GT(appHold, 0u);

    // Burn gauges exist per tenant and window, and the quick
    // config's deliberately tight budget pushes peak burn past 1.0
    // for at least the hottest tenant.
    double peak = 0;
    unsigned gauges = 0;
    for (const auto &[name, e] : on.fleet->entries()) {
        if (metrics::baseName(name) != "serve.slo_burn" ||
            e.kind != metrics::Kind::Gauge)
            continue;
        ++gauges;
        peak = std::max(peak, e.gauge.hwm());
    }
    EXPECT_EQ(gauges, 2 * cfg.totalPmos());
    EXPECT_GT(peak, 1.0);

    // Budgets off: no burn gauges.
    ASSERT_TRUE(off.fleet);
    for (const auto &[name, e] : off.fleet->entries())
        EXPECT_NE(metrics::baseName(name), "serve.slo_burn");
}

TEST(ServeBlame, BlameSumsMatchEwSumsPerShard)
{
    serve::ServeConfig cfg = tinyConfig();
    serve::FleetResult res = serve::runFleet(cfg, 1);
    // Bit-exact tiling, observed end-to-end: per shard, total blame
    // across all causes equals the EW summary's total cycles.
    ASSERT_TRUE(res.fleet);
    for (const auto &sm : res.shardMetrics) {
        ASSERT_TRUE(sm);
        const metrics::LogHistogram *ew =
            sm->findHistogram("exposure.ew_cycles{pmo=\"all\"}");
        ASSERT_NE(ew, nullptr);
        std::uint64_t blame = 0;
        for (const auto &[name, e] : sm->entries()) {
            if (metrics::baseName(name) != "exposure.blame_total" ||
                e.kind != metrics::Kind::Counter)
                continue;
            if (metrics::nameLabels(name).count("tenant"))
                continue; // tenant rows double the cause rows
            blame += e.counter.value();
        }
        EXPECT_EQ(blame, ew->sum());
    }
}
