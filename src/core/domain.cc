#include "core/domain.hh"

#include "common/logging.hh"

namespace terp {
namespace core {

ShardDomain::ShardDomain(const DomainConfig &cfg)
    : id(cfg.shardId),
      mach(std::make_unique<sim::Machine>(cfg.machine)),
      pm(std::make_unique<pm::PmoManager>(cfg.placementSeed)),
      dom(cfg.persistence ? std::make_unique<pm::PersistDomain>()
                          : nullptr),
      rt(std::make_unique<Runtime>(*mach, *pm, cfg.runtime)),
      nextHook(cfg.machine.hookPeriod),
      hookPeriod(cfg.machine.hookPeriod)
{
    TERP_ASSERT(hookPeriod > 0, "ShardDomain: zero hook period");
    if (dom)
        rt->attachPersistence(dom.get());
}

ShardDomain::ShardDomain(const ShardDomain &o)
    : id(o.id), mach(std::make_unique<sim::Machine>(*o.mach)),
      pm(std::make_unique<pm::PmoManager>(*o.pm)),
      dom(o.dom ? std::make_unique<pm::PersistDomain>(*o.dom) : nullptr),
      rt(std::make_unique<Runtime>(*o.rt, *mach, *pm, dom.get())),
      nextHook(o.nextHook), hookPeriod(o.hookPeriod)
{
    TERP_ASSERT(!dom || !dom->controller().tapped(),
                "ShardDomain: copy of a domain whose fault plan is tapped");
}

void
ShardDomain::sweepTo(Cycles t, const SweepGate &gate)
{
    for (; nextHook <= t; nextHook += hookPeriod) {
        if (gate && !gate(nextHook))
            continue;
        if (auto sink = rt->traceSink()) {
            sink->emit(trace::TraceSink::sweeperTid,
                       trace::EventKind::SweepTick, nextHook);
        }
        rt->onSweep(nextHook);
    }
}

void
ShardDomain::runJobs(const std::vector<sim::Job *> &jobs)
{
    // Machine::run keeps its own boundary cursor starting at one
    // hookPeriod; replaying boundaries this domain already fired
    // (via sweepTo) would double-bill the sweeper, so route the hook
    // through sweepTo's cursor instead of calling onSweep directly.
    // Machine::run emits the SweepTick trace event itself, so only
    // forward the runtime call here.
    mach->run(jobs, [this](Cycles now) {
        if (now >= nextHook) {
            rt->onSweep(now);
            nextHook = now + hookPeriod;
        }
    });
}

void
ShardDomain::finalize()
{
    rt->finalize();
}

void
ShardDomain::crash(Cycles at)
{
    rt->crash(at);
}

unsigned
ShardDomain::recover(sim::ThreadContext &tc, Cycles resumeAt)
{
    // Grid-aligned skip keeps mixed sweepTo/runJobs drivers in step;
    // never move the cursor backwards (a zero-length outage must not
    // re-fire boundaries that already fired).
    const Cycles next = (resumeAt / hookPeriod + 1) * hookPeriod;
    if (next > nextHook)
        nextHook = next;
    if (tc.now() < resumeAt)
        tc.syncTo(resumeAt, sim::Charge::Other);
    return rt->recover(tc);
}

} // namespace core
} // namespace terp
