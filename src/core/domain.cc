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
    : ShardDomain(DomainConfig{o.rt->config(), o.mach->config(), 0, o.id,
                               o.dom != nullptr})
{
    *this = o;
}

ShardDomain &
ShardDomain::operator=(const ShardDomain &o)
{
    TERP_ASSERT(!o.dom || !o.dom->controller().tapped(),
                "ShardDomain: copy of a domain whose fault plan is tapped");
    if (this == &o)
        return *this;
    id = o.id;
    *mach = *o.mach;
    *pm = *o.pm;
    if (o.dom && !dom) {
        dom = std::make_unique<pm::PersistDomain>();
        rt->attachPersistence(dom.get());
    } else if (!o.dom && dom) {
        rt->attachPersistence(nullptr);
        dom.reset();
    }
    if (dom)
        *dom = *o.dom;
    *rt = *o.rt;
    nextHook = o.nextHook;
    hookPeriod = o.hookPeriod;
    return *this;
}

void
ShardDomain::sweepTo(Cycles t, const SweepGate &gate)
{
    if (nextHook > t)
        return;
    const std::shared_ptr<trace::TraceSink> &sink = rt->traceSink();
    // The ticks before the sweeper's next possible action only count:
    // they reach the runtime as one run, just before a tick that may
    // act and at the end.
    Cycles act = rt->nextSweepAction();
    std::uint64_t idle = 0;
    for (; nextHook <= t; nextHook += hookPeriod) {
        if (gate && !gate(nextHook))
            continue;
        if (sink) {
            sink->emit(trace::TraceSink::sweeperTid,
                       trace::EventKind::SweepTick, nextHook);
        }
        if (nextHook < act) {
            ++idle;
            continue;
        }
        rt->idleSweeps(idle);
        idle = 0;
        rt->onSweep(nextHook);
        act = rt->nextSweepAction();
    }
    rt->idleSweeps(idle);
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
