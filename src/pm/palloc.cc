#include "pm/palloc.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace terp {
namespace pm {

PoolAllocator::PoolAllocator(PmoId pmo_id, std::uint64_t pool_size,
                             std::uint64_t reserve)
    : pool(pmo_id), capacity(pool_size),
      tail(std::min(align(reserve), pool_size)), blocks(16)
{
    TERP_ASSERT(pool_size > reserve);
}

std::size_t
PoolAllocator::home(std::uint64_t off) const
{
    // Offsets are multiples of 16: Fibonacci-hash the block index.
    std::uint64_t h = (off >> 4) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 32) & (blocks.size() - 1);
}

std::size_t
PoolAllocator::slotOf(std::uint64_t off) const
{
    std::size_t mask = blocks.size() - 1;
    std::size_t i = home(off);
    while (blocks[i].len != 0 && blocks[i].off != off)
        i = (i + 1) & mask;
    return i;
}

void
PoolAllocator::addBlock(std::uint64_t off, std::uint64_t len)
{
    if ((nLive + 1) * 2 > blocks.size()) { // keep load at most 0.5
        std::vector<Block> old(blocks.size() * 2);
        old.swap(blocks);
        for (const Block &b : old)
            if (b.len != 0)
                blocks[slotOf(b.off)] = b;
    }
    blocks[slotOf(off)] = Block{off, len};
    ++nLive;
    live += len;
    ++nAllocs;
}

Oid
PoolAllocator::pmalloc(std::uint64_t size)
{
    if (size > capacity)
        return nullOid; // never fits, and align() must not wrap to 0
    if (size == 0)
        size = 1;
    size = align(size);

    for (auto it = holes.begin(); it != holes.end(); ++it) {
        if (it->second < size)
            continue;
        std::uint64_t off = it->first;
        std::uint64_t len = it->second;
        holes.erase(it);
        if (len > size)
            holes[off + size] = len - size;
        addBlock(off, size);
        return Oid(pool, off);
    }
    if (capacity - tail < size)
        return nullOid; // pool exhausted
    std::uint64_t off = tail;
    tail += size;
    addBlock(off, size);
    return Oid(pool, off);
}

void
PoolAllocator::pfree(Oid oid)
{
    TERP_ASSERT(oid.pool() == pool, "pfree: wrong pool");
    std::size_t i = slotOf(oid.offset());
    TERP_ASSERT(blocks[i].len != 0, "pfree: not a live block");
    std::uint64_t off = blocks[i].off;
    std::uint64_t len = blocks[i].len;
    --nLive;
    live -= len;
    ++nFrees;

    // Backward-shift delete: pull later entries of the probe run into
    // the gap unless the gap lies before their home slot.
    std::size_t mask = blocks.size() - 1;
    for (std::size_t j = (i + 1) & mask; blocks[j].len != 0;
         j = (j + 1) & mask) {
        if (((j - home(blocks[j].off)) & mask) >= ((j - i) & mask)) {
            blocks[i] = blocks[j];
            i = j;
        }
    }
    blocks[i] = Block{};

    // Coalesce with the hole above, then with the hole below.
    auto next = holes.lower_bound(off);
    if (next != holes.end() && off + len == next->first) {
        len += next->second;
        next = holes.erase(next);
    }
    if (next != holes.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == off) {
            off = prev->first;
            len += prev->second;
            holes.erase(prev);
        }
    }
    // A hole that reaches the tail becomes part of it.
    if (off + len == tail)
        tail = off;
    else
        holes.emplace(off, len);
}

void
PoolAllocator::reservePrefix(std::uint64_t up_to)
{
    TERP_ASSERT(nAllocs == 0, "reservePrefix after pmalloc");
    tail = std::max(tail, std::min(align(up_to), capacity));
}

std::uint64_t
PoolAllocator::blockSize(Oid oid) const
{
    return blocks[slotOf(oid.offset())].len;
}

} // namespace pm
} // namespace terp
