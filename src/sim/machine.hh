/**
 * @file
 * The simulated machine: per-core L1D caches and TLBs, a shared L2,
 * DRAM/NVM latencies and a min-clock-first cooperative scheduler for
 * multi-threaded workloads.
 *
 * This is the reproduction's substitute for the paper's Sniper-based
 * simulator (see DESIGN.md): the evaluation only observes event
 * frequencies multiplied by the Table II latencies, which this model
 * reproduces exactly.
 */

#ifndef TERP_SIM_MACHINE_HH
#define TERP_SIM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hh"
#include "sim/cache.hh"
#include "sim/thread.hh"
#include "sim/tlb.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace sim {

/** Backing medium of an access (Table II: DRAM 120cyc, NVM 360cyc). */
enum class MemKind { Dram, Nvm };

/** A single memory reference issued by a thread. */
struct MemAccess
{
    std::uint64_t vaddr; //!< virtual address (drives the TLB)
    std::uint64_t paddr; //!< physical address (drives the caches)
    bool write;
    MemKind kind;
};

/**
 * A simulated thread's program. The scheduler repeatedly calls step()
 * on the runnable thread with the smallest clock; step() performs a
 * small quantum of work (typically one operation or transaction) and
 * returns false when the program finished.
 */
class Job
{
  public:
    virtual ~Job() = default;
    virtual bool step(ThreadContext &tc) = 0;
};

/** Configuration of the simulated machine (defaults = Table II). */
struct MachineConfig
{
    unsigned cores = 4;
    double cpi = 0.5;                     //!< 4-wide OoO base CPI
    std::uint64_t l1Size = 32 * KiB;      //!< 8-way L1D
    unsigned l1Ways = 8;
    std::uint64_t l2Size = 1 * MiB;       //!< 16-way shared L2
    unsigned l2Ways = 16;
    Cycles hookPeriod = 1 * cyclesPerUs;  //!< sweeper timer granularity
};

/**
 * The machine. Owns per-core L1/TLB, shared L2 and the scheduler.
 * Protection runtimes layer permission checks on top via hooks.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg = MachineConfig{});

    Machine(const Machine &) = delete;

    /**
     * Take @p o's config, threads, caches and TLBs, written into the
     * ones this machine holds. The trace sink stays this machine's
     * own (its owner attaches it).
     */
    Machine &operator=(const Machine &o);

    /** Create a thread pinned to core (tid % cores). */
    ThreadContext &spawnThread();

    ThreadContext &thread(unsigned tid) { return *threads.at(tid); }
    unsigned threadCount() const
    {
        return static_cast<unsigned>(threads.size());
    }

    /**
     * Charge one memory access on the thread: TLB, then L1/L2/memory
     * latency. Returns the cycles charged (attributed as Work).
     */
    Cycles
    access(ThreadContext &tc, const MemAccess &a)
    {
        Cycles cycles = tlbs[tc.coreId()].lookup(a.vaddr).cycles;

        if (l1d[tc.coreId()].access(a.paddr)) {
            cycles += latency::l1Hit;
        } else if (l2.access(a.paddr)) {
            cycles += latency::l1Hit + latency::l2Hit;
        } else {
            cycles += latency::l1Hit + latency::l2Hit +
                      (a.kind == MemKind::Nvm ? latency::nvm
                                              : latency::dram);
        }

        tc.work(cycles);
        return cycles;
    }

    /** Charge n instructions of pure compute at the base CPI. */
    void
    execute(ThreadContext &tc, std::uint64_t n_instr)
    {
        double cycles = static_cast<double>(n_instr) * cfg.cpi +
                        tc.cpiCarry;
        auto whole = static_cast<Cycles>(cycles);
        tc.cpiCarry = cycles - static_cast<double>(whole);
        tc.work(whole);
    }

    /**
     * Run jobs[i] on thread i until all are done. @p hook (if set) is
     * invoked at every hookPeriod boundary of the minimum thread
     * clock — this drives the TERP hardware sweeper.
     */
    void run(const std::vector<Job *> &jobs,
             const std::function<void(Cycles)> &hook = nullptr);

    /** Invalidate the virtual range in every TLB (shootdown). */
    void shootdownRange(std::uint64_t lo, std::uint64_t hi);

    /** Latest clock across all threads (total runtime when done). */
    Cycles maxClock() const;

    /** Suspend every thread up to time @p t, charging category @p c. */
    void suspendAllUntil(Cycles t, Charge c);

    /** Wake threads blocked on @p token at time @p t. */
    void wake(std::uint64_t token, Cycles t);

    /** Sum of TLB page walks across cores. */
    std::uint64_t totalWalks() const;

    /** Core @p c's L1D, and the shared L2 (for their hit counts). */
    const Cache &l1Cache(unsigned c) const { return l1d.at(c); }
    const Cache &l2Cache() const { return l2; }

    const MachineConfig &config() const { return cfg; }

    /**
     * Attach (or detach, with nullptr) an event sink. The machine
     * emits thread start/finish markers and one SweepTick per firing
     * of the periodic hook; with no sink every site is a single
     * pointer test and the simulation is untouched.
     */
    void setTraceSink(trace::TraceSink *sink) { traceSink = sink; }

  private:
    MachineConfig cfg;
    trace::TraceSink *traceSink = nullptr;
    std::vector<std::unique_ptr<ThreadContext>> threads;
    std::vector<Cache> l1d;          //!< one per core
    std::vector<TlbHierarchy> tlbs;  //!< one per core
    Cache l2;
};

} // namespace sim
} // namespace terp

#endif // TERP_SIM_MACHINE_HH
