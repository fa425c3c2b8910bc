/**
 * @file
 * One simulated process: the only place a core::Runtime is built.
 *
 * A ShardDomain owns one complete protection stack — Machine,
 * PmoManager (with its placement RNG), optional PersistDomain and the
 * Runtime over them (circular buffer, sweeper, EwTracker) — and the
 * single cursor that decides when the hardware sweep timer fires.
 * Every driver goes through it: the batch workloads and figure
 * harnesses (runJobs), terp-serve's request pipeline and the
 * crash/differential/energy checkers (sweepTo), so the rule for
 * which hookPeriod boundaries fire — including "not while the power
 * is off" (recover) — lives in one place.
 *
 * Shards share no mutable state, so a fleet proceeds concurrently;
 * cross-shard coordination is limited to merging metrics registries
 * (terp-serve runs each shard to the end as one host task, with no
 * simulated-clock agreement between shards). A domain driven through
 * runJobs is cycle-identical to Machine::run with Runtime::onSweep
 * as its hook (held down by tests/test_serve.cc).
 */

#ifndef TERP_CORE_DOMAIN_HH
#define TERP_CORE_DOMAIN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/runtime.hh"
#include "pm/persist.hh"
#include "pm/pmo_manager.hh"
#include "sim/machine.hh"

namespace terp {
namespace core {

/** Everything needed to build one shard's runtime domain. */
struct DomainConfig
{
    RuntimeConfig runtime;
    sim::MachineConfig machine;
    /**
     * Seed of the shard's placement RNG (PmoManager). Derive it from
     * (fleet seed, shard id) so shards draw independent streams; a
     * shared RNG would make one shard's attach order perturb
     * another's placements — exactly the hidden-singleton coupling
     * this type exists to rule out.
     */
    std::uint64_t placementSeed = 42;
    /** Shard index within the fleet. */
    unsigned shardId = 0;
    /** Construct a persistence domain and attach it to the runtime. */
    bool persistence = false;
};

/**
 * One shard's complete, self-owned protection stack.
 *
 * Members are constructed machine -> pmos -> persistence -> runtime
 * and destroyed in reverse, so the Runtime's destructor can safely
 * unhook the trace sink from the machine and PMO manager it was
 * built over.
 */
class ShardDomain
{
  public:
    explicit ShardDomain(const DomainConfig &cfg);

    /** A domain of @p o's shape, then assigned from @p o. */
    ShardDomain(const ShardDomain &o);

    /**
     * Take @p o's whole state, sharing nothing with it: from here on
     * both run as if each had run alone from the start. Each part is
     * assigned into the one this domain holds, so containers keep
     * the storage they have (a scratch domain assigned at every crash
     * point reuses its own), and every pointer inside the stack (the
     * runtime's machine, PMO manager and persistence domain, the
     * trace sink and metrics registry the parts emit into, the
     * transaction logs' controller) stays bound to this domain's
     * own. A domain whose fault plan has a tap is not copied: the tap
     * belongs to its driver.
     */
    ShardDomain &operator=(const ShardDomain &o);

    unsigned shardId() const { return id; }

    sim::Machine &machine() { return *mach; }
    pm::PmoManager &pmos() { return *pm; }
    Runtime &runtime() { return *rt; }
    const Runtime &runtime() const { return *rt; }
    pm::PersistDomain *persistence() { return dom.get(); }

    // ---- sweeper drive ----------------------------------------------

    /**
     * Optional per-boundary predicate for sweepTo(): return false to
     * skip that tick. The cursor still moves past a skipped boundary
     * — the timer fired, the sweeper could not act on it — which is
     * how the energy harness models a tick the backup reserve cannot
     * afford. It is asked at every boundary and may annotate the
     * exposure tracker (energy-dark spans), but must not change what
     * the sweeper could act on: sweepTo() reads that once per run of
     * ticks that cannot act.
     */
    using SweepGate = std::function<bool(Cycles)>;

    /**
     * Fire the shard's hardware sweep timer at every hookPeriod
     * boundary <= @p t that has not fired yet, emitting one SweepTick
     * trace event per tick that runs. The ticks before
     * Runtime::nextSweepAction() reach the runtime as one
     * Runtime::idleSweeps() run instead of one onSweep() each, which
     * leaves the same state. Idempotent per boundary;
     * callers may invoke it as often as convenient (before each
     * request, between micro-ops, during a held window) and the tick
     * sequence stays identical — which is what makes the serve
     * pipeline's results independent of host worker count. To fire
     * exactly the next boundary, whatever the clocks say, call
     * sweepTo(nextSweepTick()).
     */
    void sweepTo(Cycles t, const SweepGate &gate = nullptr);

    /** The next boundary sweepTo() would fire. */
    Cycles nextSweepTick() const { return nextHook; }

    /**
     * Batch-compatibility drive: Machine::run with the sweeper hook,
     * exactly as the figure harnesses wire it by hand. Jobs run to
     * completion; the domain is NOT finalized (callers may keep
     * issuing work or crash/recover first).
     *
     * Note Machine::run fires the hook from its own boundary cursor;
     * sweepTo()'s cursor is advanced to match afterwards so mixed
     * drivers never double-fire a boundary.
     */
    void runJobs(const std::vector<sim::Job *> &jobs);

    /** Close still-open windows and publish final metrics. */
    void finalize();

    // ---- power cycling ----------------------------------------------

    /**
     * Power-fail the shard at @p at: volatile protection state is
     * dropped via Runtime::crash — windows closed, transactions
     * aborted, every PMO unmapped. The sweep cursor is left alone;
     * the outage's extent is only known at recover() time.
     */
    void crash(Cycles at);

    /**
     * Power restored at @p resumeAt (>= the crash instant): realign
     * the sweep cursor to the first hook boundary after the outage —
     * the sweep timer is hardware and the hardware was off, so
     * boundaries inside the dark period never fired and must not be
     * replayed as a catch-up burst — then replay every pending log
     * on @p tc. Returns the number of logs recovered. Requires a
     * persistence domain.
     */
    unsigned recover(sim::ThreadContext &tc, Cycles resumeAt);

  private:
    unsigned id;
    std::unique_ptr<sim::Machine> mach;
    std::unique_ptr<pm::PmoManager> pm;
    std::unique_ptr<pm::PersistDomain> dom;
    std::unique_ptr<Runtime> rt;
    Cycles nextHook;
    Cycles hookPeriod;
};

} // namespace core
} // namespace terp

#endif // TERP_CORE_DOMAIN_HH
