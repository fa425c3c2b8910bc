#include "sim/machine.hh"

#include <algorithm>

#include "common/deep_assign.hh"
#include "common/logging.hh"

namespace terp {
namespace sim {

Machine::Machine(const MachineConfig &cfg_)
    : cfg(cfg_), l2(cfg_.l2Size, cfg_.l2Ways)
{
    TERP_ASSERT(cfg.cores > 0);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        l1d.emplace_back(cfg.l1Size, cfg.l1Ways);
        tlbs.emplace_back();
    }
}

Machine &
Machine::operator=(const Machine &o)
{
    cfg = o.cfg;
    assignDeep(threads, o.threads);
    l1d = o.l1d;
    tlbs = o.tlbs;
    l2 = o.l2;
    return *this;
}

ThreadContext &
Machine::spawnThread()
{
    unsigned tid = static_cast<unsigned>(threads.size());
    threads.push_back(
        std::make_unique<ThreadContext>(tid, tid % cfg.cores));
    return *threads.back();
}

void
Machine::run(const std::vector<Job *> &jobs,
             const std::function<void(Cycles)> &hook)
{
    TERP_ASSERT(jobs.size() == threads.size(),
                "one job per spawned thread required");
    for (auto &t : threads)
        t->done = false;

    if (traceSink) {
        for (auto &t : threads) {
            traceSink->emit(t->tid(), trace::EventKind::ThreadStart,
                            t->now());
        }
    }

    Cycles next_hook = cfg.hookPeriod;
    for (;;) {
        // Pick the runnable (not done, not blocked) thread with the
        // smallest clock.
        ThreadContext *next = nullptr;
        bool any_live = false;
        for (auto &t : threads) {
            if (t->done)
                continue;
            any_live = true;
            if (t->blocked())
                continue;
            if (!next || t->now() < next->now())
                next = t.get();
        }
        if (!any_live)
            break;
        TERP_ASSERT(next != nullptr,
                    "all live threads blocked: PMO deadlock");

        // Fire the periodic hardware hook up to the current time.
        if (hook) {
            while (next_hook <= next->now()) {
                if (traceSink) {
                    traceSink->emit(trace::TraceSink::sweeperTid,
                                    trace::EventKind::SweepTick,
                                    next_hook);
                }
                hook(next_hook);
                next_hook += cfg.hookPeriod;
            }
        }

        if (!jobs[next->tid()]->step(*next)) {
            next->done = true;
            if (traceSink) {
                traceSink->emit(next->tid(),
                                trace::EventKind::ThreadFinish,
                                next->now());
            }
        }
    }
}

void
Machine::shootdownRange(std::uint64_t lo, std::uint64_t hi)
{
    for (auto &tlb : tlbs)
        tlb.shootdownRange(lo, hi);
}

Cycles
Machine::maxClock() const
{
    Cycles m = 0;
    for (const auto &t : threads)
        m = std::max(m, t->now());
    return m;
}

void
Machine::suspendAllUntil(Cycles t, Charge c)
{
    for (auto &tc : threads)
        if (!tc->done)
            tc->syncTo(t, c);
}

void
Machine::wake(std::uint64_t token, Cycles t)
{
    for (auto &tc : threads) {
        if (tc->blocked() && tc->blockToken() == token) {
            tc->unblock();
            tc->syncTo(t, Charge::Other);
        }
    }
}

std::uint64_t
Machine::totalWalks() const
{
    std::uint64_t sum = 0;
    for (const auto &tlb : tlbs)
        sum += tlb.walkCount();
    return sum;
}

} // namespace sim
} // namespace terp
