#include "pm/palloc.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace terp {
namespace pm {

PoolAllocator::PoolAllocator(PmoId pmo_id, std::uint64_t pool_size,
                             std::uint64_t reserve)
    : pool(pmo_id), capacity(pool_size),
      tail(std::min(align(reserve), pool_size))
{
    TERP_ASSERT(pool_size > reserve);
}

void
PoolAllocator::addBlock(std::uint64_t off, std::uint64_t len)
{
    blocks.insert(off).first = len;
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

Oid
PoolAllocator::pmallocRun(std::uint64_t n, std::uint64_t size)
{
    TERP_ASSERT(n > 0, "pmallocRun: empty run");
    TERP_ASSERT(holes.empty(), "pmallocRun: holes below the tail");
    if (size > capacity)
        return nullOid;
    size = align(std::max<std::uint64_t>(size, 1));
    if ((capacity - tail) / size < n)
        return nullOid; // the run does not fit whole
    std::uint64_t off = tail;
    tail += n * size;
    runs.emplace_hint(runs.end(), off, Run{size, n});
    nLive += n;
    live += n * size;
    nAllocs += n;
    return Oid(pool, off);
}

std::map<std::uint64_t, PoolAllocator::Run>::const_iterator
PoolAllocator::runOf(std::uint64_t off) const
{
    auto it = runs.upper_bound(off);
    if (it == runs.begin())
        return runs.end();
    --it;
    const std::uint64_t rel = off - it->first;
    const Run &r = it->second;
    if (rel % r.len != 0 || rel / r.len >= r.count)
        return runs.end();
    return it;
}

std::uint64_t
PoolAllocator::removeBlock(std::uint64_t off)
{
    if (const std::uint64_t *len = blocks.erase(off))
        return *len;
    // A run member: keep the members on either side as runs.
    auto it = runOf(off);
    TERP_ASSERT(it != runs.end(), "pfree: not a live block");
    const std::uint64_t first = it->first;
    const Run r = it->second;
    const std::uint64_t k = (off - first) / r.len;
    auto next = runs.erase(it);
    if (k > 0)
        runs.emplace_hint(next, first, Run{r.len, k});
    if (k + 1 < r.count)
        runs.emplace_hint(next, off + r.len, Run{r.len, r.count - k - 1});
    return r.len;
}

void
PoolAllocator::pfree(Oid oid)
{
    TERP_ASSERT(oid.pool() == pool, "pfree: wrong pool");
    std::uint64_t off = oid.offset();
    std::uint64_t len = removeBlock(off);
    --nLive;
    live -= len;
    ++nFrees;

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
    if (const std::uint64_t *len = blocks.find(oid.offset()))
        return *len;
    auto it = runOf(oid.offset());
    return it == runs.end() ? 0 : it->second.len;
}

} // namespace pm
} // namespace terp
