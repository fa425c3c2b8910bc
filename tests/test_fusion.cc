/**
 * @file
 * Fused-vs-unfused differential tests and sweeper-generation scan
 * accounting.
 *
 * Superinstruction fusion (TERP_FUSE) is a pure dispatch-count
 * optimization: fused handlers replay their constituents' bodies
 * verbatim and charge the identical Table-2 cycle sum, so every
 * observable — simulated cycles, overhead report, exposure metrics —
 * must be bit-identical with fusion on and off. These tests pin that
 * equivalence on the SPEC surrogates and on the differential fuzzer,
 * and separately assert that fusion actually fires (the equivalence
 * test would pass vacuously if decode never emitted a fused op).
 *
 * The sweeper-generation tests pin the O(active) property: an idle
 * fleet tick visits only mapped PMOs (host.sweep_pmo_scans counts
 * per-PMO deadline checks), not the whole map table.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "check/fuzzer.hh"
#include "compiler/interp.hh"
#include "core/runtime.hh"
#include "metrics/registry.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"
#include "workloads/spec.hh"

using namespace terp;

namespace {

/** Scoped TERP_FUSE override; restores the prior value on exit. */
class FuseEnv
{
  public:
    explicit FuseEnv(bool on)
    {
        const char *prev = std::getenv("TERP_FUSE");
        had = prev != nullptr;
        if (had)
            saved = prev;
        setenv("TERP_FUSE", on ? "1" : "0", 1);
    }
    ~FuseEnv()
    {
        if (had)
            setenv("TERP_FUSE", saved.c_str(), 1);
        else
            unsetenv("TERP_FUSE");
    }

  private:
    bool had = false;
    std::string saved;
};

/** Everything a run can observe, flattened for exact comparison. */
struct Observables
{
    Cycles total = 0;
    Cycles work = 0, attach = 0, detach = 0, rand = 0, cond = 0,
           other = 0;
    std::uint64_t attachSys = 0, detachSys = 0, randomizations = 0;
    double ewAvgUs = 0, ewMaxUs = 0, er = 0;
    std::uint64_t ewCount = 0, tewCount = 0;

    bool
    operator==(const Observables &o) const
    {
        return total == o.total && work == o.work &&
               attach == o.attach && detach == o.detach &&
               rand == o.rand && cond == o.cond && other == o.other &&
               attachSys == o.attachSys && detachSys == o.detachSys &&
               randomizations == o.randomizations &&
               ewAvgUs == o.ewAvgUs && ewMaxUs == o.ewMaxUs &&
               er == o.er && ewCount == o.ewCount &&
               tewCount == o.tewCount;
    }
};

Observables
runOne(const std::string &kernel, bool fuse)
{
    FuseEnv env(fuse);
    workloads::SpecParams p;
    p.threads = 2;
    p.scale = 0.05;
    workloads::RunResult r = workloads::runSpec(
        kernel, core::RuntimeConfig::tt(usToCycles(40)), p);
    Observables o;
    o.total = r.totalCycles;
    o.work = r.report.work;
    o.attach = r.report.attach;
    o.detach = r.report.detach;
    o.rand = r.report.rand;
    o.cond = r.report.cond;
    o.other = r.report.other;
    o.attachSys = r.report.attachSyscalls;
    o.detachSys = r.report.detachSyscalls;
    o.randomizations = r.report.randomizations;
    o.ewAvgUs = r.exposure.ewAvgUs;
    o.ewMaxUs = r.exposure.ewMaxUs;
    o.er = r.exposure.er;
    o.ewCount = r.exposure.ewCount;
    o.tewCount = r.exposure.tewCount;
    return o;
}

} // namespace

// ------------------------------------------------ fused == unfused

TEST(FusionDifferential, SpecKernelsBitIdenticalAcrossModes)
{
    for (const std::string &kernel : workloads::specNames()) {
        Observables off = runOne(kernel, false);
        Observables on = runOne(kernel, true);
        EXPECT_TRUE(off == on)
            << kernel << ": fused run diverged from unfused "
            << "(total " << off.total << " vs " << on.total << ")";
    }
}

TEST(FusionDifferential, FusionActuallyFires)
{
    // Guard against the equivalence test passing vacuously: a fused
    // run must report peephole fused dispatches, and an unfused run
    // must report none. Kind 0 (addrun) predates peephole fusion and
    // executes in both modes, so only kinds 1.. are compared.
    for (bool fuse : {true, false}) {
        FuseEnv env(fuse);
        workloads::SpecParams p;
        p.scale = 0.05;
        workloads::RunResult r = workloads::runSpec(
            "mcf", core::RuntimeConfig::tt(usToCycles(40)), p);
        ASSERT_TRUE(r.metrics);
        std::uint64_t peephole = 0;
        for (unsigned k = 1; k < compiler::Interpreter::kFusionKinds;
             ++k) {
            const metrics::Counter *c = r.metrics->findCounter(
                metrics::labeled("host.interp.fused_dispatches", "kind",
                                 compiler::Interpreter::fusionKindName(
                                     k)));
            peephole += c ? c->value() : 0;
        }
        if (fuse) {
            EXPECT_GT(peephole, 0u)
                << "fused run dispatched no peephole superinstruction";
            const metrics::Counter *s =
                r.metrics->findCounter("host.interp.fusion_candidates");
            ASSERT_NE(s, nullptr);
            EXPECT_GT(s->value(), 0u);
        } else {
            EXPECT_EQ(peephole, 0u)
                << "unfused run dispatched a fused superinstruction";
        }
    }
}

TEST(FusionDifferential, FuzzMatrixCleanUnderBothModes)
{
    for (bool fuse : {false, true}) {
        FuseEnv env(fuse);
        check::FuzzOptions opt;
        opt.seeds = 8;
        opt.shrink = false;
        check::FuzzResult res = check::fuzz(opt);
        for (const check::Divergence &d : res.divergences) {
            std::string detail;
            for (const std::string &c : d.complaints)
                detail += "  " + c + "\n";
            ADD_FAILURE()
                << "TERP_FUSE=" << fuse << " " << d.scheme << " seed "
                << d.seed << " diverged:\n"
                << detail;
        }
    }
}

// ------------------------------------------ sweeper generations

namespace {

struct FleetRig
{
    sim::Machine mach;
    pm::PmoManager pmos;
    std::vector<pm::PmoId> ids;
    std::unique_ptr<core::Runtime> rt;
    sim::ThreadContext *tc;

    // MM takes the MERR software-timer sweep path (TT's default
    // routes through the circular buffer, which is already O(queue)).
    explicit FleetRig(unsigned n) : pmos(7)
    {
        for (unsigned i = 0; i < n; ++i)
            ids.push_back(
                pmos.create(std::string("p").append(std::to_string(i)),
                            64 * KiB)
                    .id());
        rt = std::make_unique<core::Runtime>(
            mach, pmos, core::RuntimeConfig::mm(usToCycles(40)));
        mach.spawnThread();
        tc = &mach.thread(0);
    }

    std::uint64_t
    scans() const
    {
        const metrics::Counter *c =
            rt->metricsRegistry()->findCounter("host.sweep_pmo_scans");
        return c ? c->value() : 0;
    }
};

} // namespace

TEST(SweeperGenerations, IdleFleetTickVisitsNothing)
{
    FleetRig r(1000);
    std::uint64_t before = r.scans();
    for (int i = 0; i < 5; ++i)
        r.rt->onSweep(usToCycles(10 * (i + 1)));
    EXPECT_EQ(r.scans() - before, 0u)
        << "a tick with no mapped PMOs must scan no map state";
}

TEST(SweeperGenerations, TickScansOnlyMappedPmos)
{
    FleetRig r(1000);
    r.rt->manualBegin(*r.tc, r.ids[123], pm::Mode::ReadWrite);
    std::uint64_t before = r.scans();
    r.rt->onSweep(usToCycles(10));
    EXPECT_EQ(r.scans() - before, 1u)
        << "one mapped PMO in a 1000-PMO fleet must cost one scan";

    r.rt->manualBegin(*r.tc, r.ids[777], pm::Mode::ReadWrite);
    before = r.scans();
    r.rt->onSweep(usToCycles(20));
    EXPECT_EQ(r.scans() - before, 2u);

    r.rt->manualEnd(*r.tc, r.ids[123]);
    r.rt->manualEnd(*r.tc, r.ids[777]);
    before = r.scans();
    r.rt->onSweep(usToCycles(30));
    EXPECT_EQ(r.scans() - before, 0u)
        << "detached PMOs must drop back out of the scan set";
}

TEST(SweeperGenerations, DeadlineCacheStillFiresSweeps)
{
    // The scanGen/sweepDeadline cache must not suppress an actual
    // overstay: after the EW target passes, the sweeper still acts
    // (here: re-randomizes a window its holder overstayed), and the
    // randomization bumps the generation so the next scan re-derives
    // the deadline rather than reusing the stale one.
    FleetRig r(8);
    r.rt->manualBegin(*r.tc, r.ids[0], pm::Mode::ReadWrite);
    std::uint64_t base = r.pmos.pmo(r.ids[0]).vaddrBase();
    r.tc->work(usToCycles(60)); // overstay the 40us target
    r.rt->onSweep(usToCycles(50));
    EXPECT_TRUE(r.rt->mapped(r.ids[0]));
    EXPECT_NE(r.pmos.pmo(r.ids[0]).vaddrBase(), base);

    // A second tick before the refreshed deadline must do nothing.
    base = r.pmos.pmo(r.ids[0]).vaddrBase();
    r.rt->onSweep(usToCycles(55));
    EXPECT_EQ(r.pmos.pmo(r.ids[0]).vaddrBase(), base);
    r.rt->manualEnd(*r.tc, r.ids[0]);
}
