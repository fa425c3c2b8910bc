/**
 * @file
 * The TERP window-combining circular buffer (Fig 7 of the paper).
 *
 * 32 entries of {PMO id (10b), timestamp of last real attach (10b,
 * coarse-grained in hardware; full-precision here), thread counter
 * (13b), delayed-detach bit (1b)} = 34 bits per entry, about 140
 * bytes of on-chip state (0.006% of a Nehalem die per the paper's
 * Cacti estimate).
 *
 * The buffer implements the decision logic of the CONDAT and CONDDT
 * instructions (cases 1-6) and the periodic sweep that force-detaches
 * or re-randomizes PMOs whose exposure window target elapsed.
 */

#ifndef TERP_ARCH_CIRCULAR_BUFFER_HH
#define TERP_ARCH_CIRCULAR_BUFFER_HH

#include <array>
#include <cstdint>
#include <cstddef>
#include <optional>

#include "common/units.hh"
#include "pm/oid.hh"

namespace terp {
namespace arch {

/** Outcome of executing a CONDAT instruction (Fig 7b). */
enum class CondAttachCase
{
    FirstAttach,      //!< case 1: not in CB -> full attach syscall
    SubsequentAttach, //!< case 2: in CB, DD=0 -> thread perm only
    SilentAttach,     //!< case 3: in CB, DD=1 -> elide detach+attach
};

/** Outcome of executing a CONDDT instruction (Fig 7c). */
enum class CondDetachCase
{
    PartialDetach, //!< case 4: other threads remain -> perm only
    FullDetach,    //!< case 5: last thread, EW met -> detach syscall
    DelayedDetach, //!< case 6: last thread, EW not met -> set DD
};

/** Action a sweep decided for one PMO. */
struct SweepAction
{
    pm::PmoId pmo;
    bool detach;    //!< true: fully detach; false: re-randomize
};

/**
 * At most @p N items, held in place: what a sweep or a resident scan
 * of the buffer returns, so neither allocates.
 */
template <class T, unsigned N>
class InlineList
{
  public:
    void push_back(const T &x) { items[n++] = x; }
    const T *begin() const { return items.data(); }
    const T *end() const { return items.data() + n; }
    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
    const T &operator[](std::size_t i) const { return items[i]; }

  private:
    std::array<T, N> items;
    unsigned n = 0;
};

/** The 32-entry hardware circular buffer. */
class CircularBuffer
{
  public:
    static constexpr unsigned capacity = 32;
    static constexpr unsigned pmoIdBits = 10;
    static constexpr unsigned tsBits = 10;
    static constexpr unsigned ctrBits = 13;
    static constexpr unsigned ddBits = 1;
    static constexpr unsigned entryBits =
        pmoIdBits + tsBits + ctrBits + ddBits;

    /** Total on-chip storage in bytes (entries + head pointer). */
    static constexpr unsigned storageBytes =
        (capacity * entryBits + 7) / 8 + 4;

    /**
     * Execute the CONDAT decision logic for @p pmo at time @p now.
     * Mutates the buffer per Fig 7(b) and reports which case fired.
     * The caller performs the side effects (thread permission set,
     * attach syscall for case 1).
     */
    CondAttachCase condAttach(pm::PmoId pmo, Cycles now);

    /**
     * Execute the CONDDT decision logic for @p pmo at time @p now
     * with exposure-window target @p max_ew. Mutates the buffer per
     * Fig 7(c). The caller revokes the thread permission and, for
     * FullDetach, performs the detach syscall.
     */
    CondDetachCase condDetach(pm::PmoId pmo, Cycles now, Cycles max_ew);

    /**
     * Periodic sweep (Fig 7a): for every resident PMO whose window
     * opened >= @p max_ew ago, emit FullDetach (Ctr==0, DD set) or
     * Randomize (Ctr>0). Detached PMOs are evicted; randomized PMOs
     * get a fresh timestamp.
     */
    using SweepActions = InlineList<SweepAction, capacity>;
    SweepActions sweep(Cycles now, Cycles max_ew);

    /**
     * The earliest time at which sweep(now, @p max_ew) could act:
     * minTs + @p max_ew, or never (the largest Cycles) while the
     * buffer is empty. A lower bound, as minTs is.
     */
    Cycles
    nextExpiry(Cycles max_ew) const
    {
        return nLive ? minTs + max_ew : ~Cycles(0);
    }

    /** Is a PMO resident in the buffer (attached or delayed)? */
    bool resident(pm::PmoId pmo) const;

    /** Thread counter of a resident PMO. */
    unsigned counter(pm::PmoId pmo) const;

    /** Delayed-detach flag of a resident PMO. */
    bool delayed(pm::PmoId pmo) const;

    /** Timestamp of the last real attach of a resident PMO. */
    Cycles timestamp(pm::PmoId pmo) const;

    /** Number of live entries. */
    unsigned liveEntries() const { return nLive; }

    /** Ids of all resident PMOs, in entry order (sweep visit order). */
    InlineList<pm::PmoId, capacity> residentPmos() const;

    /** Forced eviction (used when a PMO is detached externally). */
    void evict(pm::PmoId pmo);

    struct Stats
    {
        std::uint64_t case1 = 0, case2 = 0, case3 = 0;
        std::uint64_t case4 = 0, case5 = 0, case6 = 0;
        std::uint64_t sweepDetach = 0, sweepRandomize = 0;

        std::uint64_t condAttachTotal() const
        {
            return case1 + case2 + case3;
        }
        std::uint64_t condDetachTotal() const
        {
            return case4 + case5 + case6;
        }
        /** Fraction of conditional calls that avoided a syscall. */
        double silentFraction() const;
    };

    const Stats &stats() const { return st; }

  private:
    struct Entry
    {
        bool valid = false;
        pm::PmoId pmo = pm::invalidPmoId;
        Cycles ts = 0;
        unsigned ctr = 0;
        bool dd = false;
    };

    std::array<Entry, capacity> entries{};
    Stats st;

    /**
     * Sweep fast path: the periodic tick fires orders of magnitude
     * more often than a window actually expires, so sweep() bails
     * without scanning when no live entry can have reached the EW
     * target yet. nLive counts valid entries; minTs is a conservative
     * lower bound on their timestamps (exact after every real scan,
     * only ever too low in between, so a stale bound costs at most a
     * scan that finds nothing — never a missed expiry).
     */
    unsigned nLive = 0;
    Cycles minTs = 0;

    Entry *find(pm::PmoId pmo);
    const Entry *find(pm::PmoId pmo) const;
    Entry &allocate(pm::PmoId pmo, Cycles now);
};

} // namespace arch
} // namespace terp

#endif // TERP_ARCH_CIRCULAR_BUFFER_HH
