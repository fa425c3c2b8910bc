/**
 * @file
 * Word-granularity backing store for simulated program data.
 *
 * Words are keyed by location-independent pointer values: ObjectIDs
 * for PMO data (pool id in the top 16 bits) and arena offsets for
 * DRAM data. Because the key is the ObjectID rather than the mapped
 * virtual address, PMO re-randomization is transparent to programs —
 * exactly the property relocatable PMO pointers give real TERP
 * applications. Persistence across "runs" is modeled by reusing the
 * same image in a new simulation.
 *
 * The store is a linear-probing open-addressing table (peek/poke sit
 * directly on the interpreter's Load/Store path, where the previous
 * std::unordered_map's bucket chasing and prime rehashing showed up
 * in profiles). Each slot holds its {key, value} pair in 16 bytes,
 * so a probe touches one cache line. Key 0 marks an empty slot;
 * address 0 is an ordinary word kept beside the table, so no 64-bit
 * address is reserved. Slots never move between grows and values
 * don't depend on insertion order, so the substitution is
 * observationally identical.
 */

#ifndef TERP_PM_MEM_IMAGE_HH
#define TERP_PM_MEM_IMAGE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace terp {
namespace pm {

/** 64-bit finalizer that scrambles a word or line key for hashing. */
inline std::uint64_t
mixKey(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Shared word-addressed memory image. */
class MemImage
{
  public:
    /** Physical base of the simulated DRAM arena. */
    static constexpr std::uint64_t dramPhysBase = 1ULL << 42;
    /** Virtual base of the simulated DRAM arena. */
    static constexpr std::uint64_t dramVirtBase = 0x7f0000000000ULL;

    // Host memory grows with use, not with a guessed footprint: the
    // table starts at smallSlots (16 KB, enough for crash worlds and
    // oracle images of a few hundred words), its first growth jumps
    // straight to fullSlots, and later ones double. Any image past
    // ~700 words therefore sees the same capacity sequence and 0.7
    // load factor as a table that started at fullSlots. Geometry is
    // host-side only (peek of an unused slot is 0 at any capacity).
    MemImage() { grow(smallSlots); }

    void
    poke(std::uint64_t addr, std::uint64_t value)
    {
        exchange(addr, value);
    }

    /** Store @p value at @p addr; @return the word it replaced. */
    std::uint64_t
    exchange(std::uint64_t addr, std::uint64_t value)
    {
        if (addr == 0) {
            if (!hasZero) {
                reserveWord();
                hasZero = true;
            }
            return std::exchange(zeroVal, value);
        }
        std::size_t i = slotOf(addr);
        if (slots[i].key == 0) {
            if (reserveWord())
                i = slotOf(addr);
            slots[i].key = addr;
        }
        return std::exchange(slots[i].val, value);
    }

    std::uint64_t
    peek(std::uint64_t addr) const
    {
        if (addr == 0)
            return zeroVal;
        // An empty slot's value is 0, so a miss needs no branch.
        return slots[slotOf(addr)].val;
    }

    std::size_t wordCount() const { return nUsed; }

    /** Table slots: host-side geometry, never visible to peek(). */
    std::size_t slotCount() const { return cap; }

    /** Is this pointer value a PMO ObjectID (pool id != 0)? */
    static bool
    isPmoPointer(std::uint64_t v)
    {
        return (v >> 48) != 0;
    }

  private:
    static constexpr std::size_t smallSlots = 1u << 10;
    static constexpr std::size_t fullSlots = 1u << 16;

    struct Slot
    {
        std::uint64_t key; //!< 0: empty
        std::uint64_t val;
    };

    /** First slot holding @p addr (nonzero), or the empty slot to claim. */
    std::size_t
    slotOf(std::uint64_t addr) const
    {
        std::size_t i = mixKey(addr) & (cap - 1);
        while (slots[i].key != addr && slots[i].key != 0)
            i = (i + 1) & (cap - 1);
        return i;
    }

    /**
     * Count one new word, growing first if it would push the load
     * past 0.7. Address 0 counts too, so the capacity sequence is that
     * of a table holding every word. @return true if the table grew.
     */
    bool
    reserveWord()
    {
        bool grew = (nUsed + 1) * 10 > cap * 7;
        if (grew)
            grow(cap < fullSlots ? fullSlots : cap * 2);
        ++nUsed;
        return grew;
    }

    void
    grow(std::size_t new_cap)
    {
        std::vector<Slot> old = std::move(slots);
        cap = new_cap;
        slots.assign(cap, Slot{0, 0});
        for (const Slot &s : old)
            if (s.key != 0)
                slots[slotOf(s.key)] = s;
    }

    std::size_t cap = 0;
    std::size_t nUsed = 0;
    std::vector<Slot> slots;
    bool hasZero = false;
    std::uint64_t zeroVal = 0; //!< the word at address 0
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_MEM_IMAGE_HH
