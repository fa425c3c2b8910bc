/**
 * @file
 * Quickstart: create a PMO, protect it with TERP (the TT scheme),
 * run a small access pattern, and inspect the protection metrics.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "core/domain.hh"

using namespace terp;

namespace {

/** A tiny job: 200 transactions of a few PMO accesses each. */
class MiniJob : public sim::Job
{
  public:
    MiniJob(core::Runtime &rt_, pm::PmoId pmo_) : rt(rt_), pmo(pmo_) {}

    bool
    step(sim::ThreadContext &tc) override
    {
        // Non-persistent work between transactions.
        tc.work(8 * cyclesPerUs);

        // The region a TERP compiler would bracket with CONDAT/CONDDT.
        rt.regionBegin(tc, pmo, pm::Mode::ReadWrite);
        for (int i = 0; i < 6; ++i) {
            pm::Oid rec(pmo, 4096 + (txn * 61 + i) % 1000 * 64);
            rt.access(tc, rec, /*write=*/i % 2 == 0);
        }
        rt.regionEnd(tc, pmo);

        return ++txn < 200;
    }

  private:
    core::Runtime &rt;
    pm::PmoId pmo;
    std::uint64_t txn = 0;
};

} // namespace

int
main()
{
    // 1. One simulated process protected by a TERP runtime: EW
    //    target 40 us, TEW target 2 us, with conditional
    //    instructions and window combining (scheme TT).
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::tt();
    core::ShardDomain process(dc);
    sim::Machine &machine = process.machine();
    core::Runtime &rt = process.runtime();

    // 2. A persistent memory object in that process.
    pm::Pmo &pmo = process.pmos().create("quickstart.data", 64 * MiB);

    // 3. Run a workload under protection; the domain fires the
    //    hardware sweeper on its hookPeriod grid.
    MiniJob job(rt, pmo.id());
    machine.spawnThread();
    process.runJobs({&job});
    process.finalize();

    // 4. Inspect what the protection did.
    core::OverheadReport rep = rt.report();
    auto m = rt.exposure().metricsFor(pmo.id(), machine.maxClock(), 1);

    std::printf("quickstart: TERP (TT) protected run\n");
    std::printf("  simulated time      : %.1f us\n",
                cyclesToUs(machine.maxClock()));
    std::printf("  attach syscalls     : %llu\n",
                (unsigned long long)rep.attachSyscalls);
    std::printf("  detach syscalls     : %llu\n",
                (unsigned long long)rep.detachSyscalls);
    std::printf("  conditional ops     : %llu (%.1f%% silent)\n",
                (unsigned long long)rep.condOps,
                100.0 * rep.silentFraction);
    std::printf("  exposure window avg : %.1f us (target 40)\n",
                m.ewAvgUs);
    std::printf("  thread EW avg       : %.2f us (target 2)\n",
                m.tewAvgUs);
    std::printf("  exposure rate       : %.1f%%\n", 100.0 * m.er);
    std::printf("  thread exposure rate: %.1f%%\n", 100.0 * m.ter);
    return 0;
}
