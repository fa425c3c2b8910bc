#include "pm/mem_image.hh"

#include <algorithm>
#include <bit>
#include <memory>

namespace terp {
namespace pm {

MemImage &
MemImage::operator=(const MemImage &o)
{
    if (this == &o)
        return *this;
    if (slots.size() == o.slots.size()) {
        for (std::size_t w = 0; w < occupied.size(); ++w) {
            for (std::uint64_t bits = occupied[w] | o.occupied[w]; bits;
                 bits &= bits - 1) {
                const std::size_t first =
                    (64 * w + static_cast<std::size_t>(
                                  std::countr_zero(bits))) *
                    groupSlots;
                std::copy_n(&o.slots[first], groupSlots, &slots[first]);
            }
        }
    } else {
        slots = o.slots;
    }
    occupied = o.occupied;
    nSlots = o.nSlots;
    nWords = o.nWords;
    nDense = o.nDense;
    unaligned = o.unaligned;
    chunk = nullptr;
    chunkUsed = chunkBlocks;
    fillTag = none;
    fillBlock = nullptr;
    if (nDense > copyBlocks) {
        arenas.clear();
        arenas.push_back(std::make_unique_for_overwrite<Dense[]>(nDense));
        copyBlocks = nDense;
    } else {
        arenas.resize(copyBlocks ? 1 : 0);
    }
    if (nDense == 0)
        return *this;
    Dense *d = arenas.front().get();
    for (std::size_t w = 0; w < occupied.size(); ++w) {
        for (std::uint64_t bits = occupied[w]; bits; bits &= bits - 1) {
            const std::size_t first =
                (64 * w + static_cast<std::size_t>(std::countr_zero(bits))) *
                groupSlots;
            for (std::size_t i = first; i < first + groupSlots; ++i) {
                Slot &s = slots[i];
                if (s.key != none && (s.key & 1)) {
                    *d = denseOf(s);
                    s.val = reinterpret_cast<std::uintptr_t>(d++);
                }
            }
        }
    }
    return *this;
}

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
        densify(addr >> blockShift << blockShift, claim())
            .exchange(addr, value);
        return;
    }
    if ((nSlots + 1) * 10 > slots.size() * 7) {
        grow(slots.size() * 2);
        i = freeSlotOf(addr);
    }
    ++nSlots;
    occupy(i, Slot{addr, value});
}

MemImage::Dense *
MemImage::denseBlock(std::uint64_t base) const
{
    const std::uint64_t tag = base | 1;
    for (std::size_t i = homeOf(base); slots[i].key != none;
         i = (i + 1) & mask())
        if (slots[i].key == tag)
            return &denseOf(slots[i]);
    return nullptr;
}

MemImage::Dense &
MemImage::claim()
{
    if (chunkUsed == chunkBlocks) {
        // Left uninitialized: each array is zeroed when densified, so
        // the chunk's unclaimed pages cost no resident memory.
        arenas.push_back(std::make_unique_for_overwrite<Dense[]>(chunkBlocks));
        chunk = arenas.back().get();
        chunkUsed = 0;
    }
    return chunk[chunkUsed++];
}

MemImage::Dense &
MemImage::densify(std::uint64_t base, Dense &d)
{
    d = Dense{};
    ++nDense;

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
    // The tag replaces the block's words. A promoted block drops
    // denseAt - 1 of them and reserveDense sized the table first, so
    // the load stays within its limit.
    occupy(freeSlotOf(base),
           Slot{tagOf(base), reinterpret_cast<std::uintptr_t>(&d)});
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
    std::vector<std::uint64_t> fresh; // bases of blocks not yet dense
    for (std::uint64_t base = addr >> blockShift << blockShift;;
         base += 1ULL << blockShift) {
        if (!denseBlock(base))
            fresh.push_back(base);
        if (base >> blockShift == last >> blockShift)
            break;
    }
    if (fresh.empty())
        return;
    // Each new tag can add a slot (a sparse block's words leave), so
    // one rehash sized for all of them keeps every densify below the
    // load limit.
    std::size_t size = slots.size();
    while ((nSlots + fresh.size()) * 10 > size * 7)
        size *= 2;
    if (size != slots.size())
        grow(size);
    arenas.push_back(std::make_unique_for_overwrite<Dense[]>(fresh.size()));
    Dense *d = arenas.back().get();
    for (std::uint64_t base : fresh)
        densify(base, *d++);
}

void
MemImage::grow(std::size_t size)
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(size, Slot{none, 0});
    occupied.assign(size / groupSlots / 64, 0);
    for (const Slot &s : old)
        if (s.key != none)
            occupy(freeSlotOf(s.key), s);
}

void
MemImage::fillSlow(std::uint64_t addr, std::uint64_t value)
{
    Dense *d = (addr & 7) == 0 ? denseBlock(addr >> blockShift << blockShift)
                               : nullptr;
    if (!d) {
        poke(addr, value);
        return;
    }
    fillTag = tagOf(addr);
    fillBlock = d;
    fill(addr, value);
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
