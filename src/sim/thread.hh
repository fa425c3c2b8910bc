/**
 * @file
 * Simulated thread context: a per-thread virtual clock plus
 * category-attributed overhead accounting.
 *
 * The evaluation figures break protection overhead into Attach,
 * Detach, Rand(omization), Cond(itional instruction) and Other
 * components; every cycle charged to a thread carries one of those
 * labels (or Work for the application's own time).
 */

#ifndef TERP_SIM_THREAD_HH
#define TERP_SIM_THREAD_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/units.hh"

namespace terp {
namespace sim {

/** Overhead attribution categories used by the paper's figures. */
enum class Charge : unsigned
{
    Work = 0,  //!< application work (not overhead)
    Attach,    //!< full attach() system calls
    Detach,    //!< full detach() system calls
    Rand,      //!< PMO layout re-randomization + shootdowns
    Cond,      //!< conditional attach/detach instruction execution
    Other,     //!< permission matrix, misc runtime bookkeeping
    NumCharges
};

/** One simulated thread of execution. */
class ThreadContext
{
  public:
    explicit ThreadContext(unsigned tid, unsigned core_id)
        : id(tid), core(core_id)
    {
    }

    unsigned tid() const { return id; }
    unsigned coreId() const { return core; }

    /** Current virtual time of this thread. */
    Cycles now() const { return clock; }

    /** Advance the clock, attributing the cycles to a category. */
    void
    charge(Charge c, Cycles cycles)
    {
        clock += cycles;
        buckets[static_cast<unsigned>(c)] += cycles;
    }

    /** Plain application work. */
    void work(Cycles cycles) { charge(Charge::Work, cycles); }

    /** Total cycles attributed to a category. */
    Cycles
    charged(Charge c) const
    {
        return buckets[static_cast<unsigned>(c)];
    }

    /** Sum of all non-Work categories. */
    Cycles overheadTotal() const;

    /**
     * Jump the clock forward to at least @p t (used when the thread
     * is released from a block or suspended during randomization);
     * the skipped span is attributed to @p c.
     */
    void syncTo(Cycles t, Charge c);

    /** Block this thread until another event wakes it. */
    void blockOn(std::uint64_t token);
    void unblock();
    bool blocked() const { return isBlocked; }
    std::uint64_t blockToken() const { return blockedToken; }

    /** True once the job driving this thread finished. */
    bool done = false;

    /** Fractional-cycle carry for sub-cycle CPI charging. */
    double cpiCarry = 0.0;

  private:
    unsigned id;
    unsigned core;
    Cycles clock = 0;
    std::array<Cycles, static_cast<unsigned>(Charge::NumCharges)>
        buckets{};
    bool isBlocked = false;
    std::uint64_t blockedToken = 0;
};

} // namespace sim
} // namespace terp

#endif // TERP_SIM_THREAD_HH
