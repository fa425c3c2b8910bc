#include "pm/mem_image.hh"

#include <algorithm>
#include <memory>

namespace terp {
namespace pm {

std::size_t
MemImage::freeSlotOf(std::uint64_t key) const
{
    std::size_t i = homeOf(key);
    while (slots[i].key != none)
        i = (i + 1) & mask();
    return i;
}

void
MemImage::insert(std::uint64_t addr, std::uint64_t value)
{
    ++nWords;
    // The block's sparse words all lie in the run from its home.
    unsigned kin = 0;
    std::size_t i = homeOf(addr);
    for (; slots[i].key != none; i = (i + 1) & mask())
        kin += (slots[i].key >> blockShift) == (addr >> blockShift);
    if (kin + 1 == denseAt) {
        densify(addr >> blockShift << blockShift).exchange(addr, value);
        return;
    }
    if ((nSlots + 1) * 10 > slots.size() * 7) {
        grow();
        i = freeSlotOf(addr);
    }
    ++nSlots;
    slots[i] = Slot{addr, value};
}

bool
MemImage::isDense(std::uint64_t base) const
{
    const std::uint64_t tag = base | 1;
    for (std::size_t i = homeOf(base); slots[i].key != none;
         i = (i + 1) & mask())
        if (slots[i].key == tag)
            return true;
    return false;
}

MemImage::Dense &
MemImage::densify(std::uint64_t base)
{
    if (chunkUsed == chunkBlocks) {
        // Left uninitialized: each array is zeroed when claimed, so
        // the chunk's unclaimed pages cost no resident memory.
        chunks.push_back(std::make_unique_for_overwrite<Dense[]>(chunkBlocks));
        chunkUsed = 0;
    }
    Dense &d = chunks.back()[chunkUsed++];
    d = Dense{};

    // One backward-shift sweep over the run from the block's home
    // erases all of its words: each becomes a hole, and every other
    // slot moves back into the earliest hole that lies cyclically in
    // [its home, its slot), leaving a hole behind. Holes always trail
    // the sweep, so the first empty slot it meets ends the run.
    const std::uint64_t block = base >> blockShift;
    std::size_t holes[denseAt] = {};
    unsigned nHoles = 0;
    for (std::size_t j = homeOf(base); slots[j].key != none;
         j = (j + 1) & mask()) {
        Slot &s = slots[j];
        if ((s.key >> blockShift) == block) {
            d.exchange(s.key, s.val);
            s.key = none;
            --nSlots;
            holes[nHoles++] = j;
            continue;
        }
        const std::size_t back = (j - homeOf(s.key)) & mask();
        for (unsigned h = 0; h < nHoles; ++h) {
            if (((j - holes[h]) & mask()) <= back) {
                slots[holes[h]] = s;
                s.key = none;
                // Holes stay in sweep order: drop h, append j.
                std::copy(holes + h + 1, holes + nHoles, holes + h);
                holes[nHoles - 1] = j;
                break;
            }
        }
    }
    // The tag replaces the block's words; only a block that had none
    // (a reserved one) can push the load past the limit.
    if ((nSlots + 1) * 10 > slots.size() * 7)
        grow();
    slots[freeSlotOf(base)] =
        Slot{tagOf(base), reinterpret_cast<std::uintptr_t>(&d)};
    ++nSlots;
    return d;
}

void
MemImage::reserveDense(std::uint64_t addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    const std::uint64_t last =
        bytes - 1 > ~addr ? ~0ULL : addr + (bytes - 1);
    for (std::uint64_t base = addr >> blockShift << blockShift;;
         base += 1ULL << blockShift) {
        if (!isDense(base))
            densify(base);
        if (base >> blockShift == last >> blockShift)
            break;
    }
}

void
MemImage::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{none, 0});
    for (const Slot &s : old)
        if (s.key != none)
            slots[freeSlotOf(s.key)] = s;
}

std::uint64_t
MemImage::exchangeUnaligned(std::uint64_t addr, std::uint64_t value)
{
    auto [it, fresh] = unaligned.try_emplace(addr, 0);
    nWords += fresh;
    return std::exchange(it->second, value);
}

std::uint64_t
MemImage::peekUnaligned(std::uint64_t addr) const
{
    auto it = unaligned.find(addr);
    return it == unaligned.end() ? 0 : it->second;
}

} // namespace pm
} // namespace terp
