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
 * in profiles). Slots never move between grows and values don't
 * depend on insertion order, so the substitution is observationally
 * identical.
 */

#ifndef TERP_PM_MEM_IMAGE_HH
#define TERP_PM_MEM_IMAGE_HH

#include <cstdint>
#include <vector>

namespace terp {
namespace pm {

/** Shared word-addressed memory image. */
class MemImage
{
  public:
    /** Physical base of the simulated DRAM arena. */
    static constexpr std::uint64_t dramPhysBase = 1ULL << 42;
    /** Virtual base of the simulated DRAM arena. */
    static constexpr std::uint64_t dramVirtBase = 0x7f0000000000ULL;

    // Host memory grows with use, not with a guessed footprint: the
    // table starts at smallSlots (~17 KB, enough for crash worlds and
    // oracle images of a few hundred words), its first growth jumps
    // straight to fullSlots, and later ones double. Any image past
    // ~700 words therefore sees the same capacity sequence and 0.7
    // load factor as a table that started at fullSlots. Geometry is
    // host-side only (peek of an unused slot is 0 at any capacity).
    MemImage() { grow(smallSlots); }

    void
    poke(std::uint64_t addr, std::uint64_t value)
    {
        std::size_t i = slotOf(addr);
        if (!used[i]) {
            if ((nUsed + 1) * 10 > cap * 7) { // keep load below 0.7
                grow(cap < fullSlots ? fullSlots : cap * 2);
                i = slotOf(addr);
            }
            used[i] = 1;
            keys[i] = addr;
            ++nUsed;
        }
        vals[i] = value;
    }

    std::uint64_t
    peek(std::uint64_t addr) const
    {
        std::size_t i = slotOf(addr);
        return used[i] ? vals[i] : 0;
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

    static std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return x;
    }

    /** First slot holding @p addr, or the empty slot to claim. */
    std::size_t
    slotOf(std::uint64_t addr) const
    {
        std::size_t i = mix(addr) & (cap - 1);
        while (used[i] && keys[i] != addr)
            i = (i + 1) & (cap - 1);
        return i;
    }

    void
    grow(std::size_t new_cap)
    {
        std::vector<std::uint64_t> ok = std::move(keys);
        std::vector<std::uint64_t> ov = std::move(vals);
        std::vector<std::uint8_t> ou = std::move(used);
        cap = new_cap;
        keys.assign(cap, 0);
        vals.assign(cap, 0);
        used.assign(cap, 0);
        for (std::size_t i = 0; i < ok.size(); ++i) {
            if (!ou[i])
                continue;
            std::size_t j = slotOf(ok[i]);
            used[j] = 1;
            keys[j] = ok[i];
            vals[j] = ov[i];
        }
    }

    std::size_t cap = 0;
    std::size_t nUsed = 0;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> vals;
    std::vector<std::uint8_t> used;
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_MEM_IMAGE_HH
