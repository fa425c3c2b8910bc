/**
 * @file
 * The persistence layer's flat hash map: a 64-bit key and a value
 * held in its slot, for the controller's side table, the logs' write
 * indexes and the pool allocator's live blocks.
 *
 * Linear probing over a power-of-two array kept at most half full,
 * homed by a Fibonacci multiply whose top bits take every key bit
 * (pool id included), with backward-shift erase, so there are no
 * tombstones. A slot is live iff its stamp equals the table's
 * generation, so clear() is O(1) whatever the table grew to. A slot's
 * value outlives its key: a new key finds what the slot last held
 * (a default V in a slot never used) and the caller resets what it
 * needs, so values that own memory keep it through churn.
 */

#ifndef TERP_PM_PROBE_TABLE_HH
#define TERP_PM_PROBE_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace terp {
namespace pm {

template <typename V>
class ProbeTable
{
  public:
    /** Keys held. */
    std::size_t size() const { return used; }

    /** The value of @p key, or null. */
    V *
    find(std::uint64_t key)
    {
        Slot &s = slots[slotOf(key)];
        return s.gen == gen ? &s.value : nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<ProbeTable *>(this)->find(key);
    }

    /**
     * The value of @p key, and true if the key was new. A new key's
     * value is whatever its slot last held.
     */
    std::pair<V &, bool>
    insert(std::uint64_t key)
    {
        std::size_t i = slotOf(key);
        if (slots[i].gen == gen)
            return {slots[i].value, false};
        if ((used + 1) * 2 > slots.size()) {
            grow();
            i = slotOf(key);
        }
        ++used;
        slots[i].key = key;
        slots[i].gen = gen;
        return {slots[i].value, true};
    }

    /**
     * Drop @p key. Returns its value, left in the slot the shift
     * freed until the next insert, or null when the key is absent.
     */
    V *
    erase(std::uint64_t key)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t hole = slotOf(key);
        if (slots[hole].gen != gen)
            return nullptr;
        // Pull back every later slot of the cluster whose home does
        // not lie cyclically in (hole, j].
        for (std::size_t j = (hole + 1) & mask; slots[j].gen == gen;
             j = (j + 1) & mask) {
            if (((j - home(slots[j].key)) & mask) >= ((j - hole) & mask)) {
                std::swap(slots[hole], slots[j]);
                hole = j;
            }
        }
        slots[hole].gen = 0;
        --used;
        return &slots[hole].value;
    }

    void
    clear()
    {
        used = 0;
        if (++gen == 0) { // stamps wrapped: retire every slot
            for (Slot &s : slots)
                s.gen = 0;
            gen = 1;
        }
    }

    /** Visit every (key, value), in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.gen == gen)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t gen = 0;
        V value{};
    };

    static constexpr unsigned minBits = 4;

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift);
    }

    /** The slot holding @p key, or the free slot ending its chain. */
    std::size_t
    slotOf(std::uint64_t key) const
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = home(key);
        while (slots[i].gen == gen && slots[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old(slots.size() * 2);
        old.swap(slots);
        --shift;
        for (Slot &s : old)
            if (s.gen == gen)
                slots[slotOf(s.key)] = std::move(s);
    }

    std::vector<Slot> slots = std::vector<Slot>(std::size_t{1} << minBits);
    unsigned shift = 64 - minBits; //!< 64 - log2(slots.size())
    std::size_t used = 0;
    std::uint32_t gen = 1;
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_PROBE_TABLE_HH
