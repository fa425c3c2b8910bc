/**
 * @file
 * Persistent pool allocator: pmalloc()/pfree() over the byte range of
 * one PMO (Table I of the paper). First-fit free list with
 * coalescing; all metadata is host-side for simplicity, as the paper
 * never measures allocator persistence itself.
 *
 * The free space is a bump tail [tail, capacity) plus the holes below
 * it. A hole that reaches the tail merges back into it, so the holes
 * in address order followed by the tail are exactly the coalesced
 * first-fit free list, and an allocator that never frees never
 * touches the hole map. Live blocks sit in a ProbeTable from offset
 * to length.
 *
 * A bulk build (a PMO prefilled with thousands of equal records)
 * takes its blocks with pmallocRun, which carves n equal blocks from
 * the tail and records them as one run {first, size, n} in an ordered
 * map instead of n table slots. While there are no holes the run's
 * blocks sit exactly where n pmalloc(size) calls would put them. A
 * run member is a live block like any other: blockSize answers for
 * it, and pfree of member k splits its run into the members before k
 * and those after it (either side may be empty), then frees the block
 * as usual. The table holds only pmalloc's blocks, so a run never
 * grows it.
 */

#ifndef TERP_PM_PALLOC_HH
#define TERP_PM_PALLOC_HH

#include <cstdint>
#include <map>

#include "pm/oid.hh"
#include "pm/probe_table.hh"

namespace terp {
namespace pm {

class Pmo;

/** First-fit allocator over a single PMO's offset space. */
class PoolAllocator
{
  public:
    /**
     * @param pmo_id    Pool id used in returned ObjectIDs.
     * @param pool_size Bytes available (offsets [reserve, pool_size)).
     * @param reserve   Bytes at offset 0 kept for the root object.
     */
    PoolAllocator(PmoId pmo_id, std::uint64_t pool_size,
                  std::uint64_t reserve = 64);

    /**
     * Allocate @p size bytes (16-byte aligned).
     * @return ObjectID of the first byte, or nullOid if exhausted.
     */
    Oid pmalloc(std::uint64_t size);

    /**
     * Allocate @p n > 0 blocks of @p size bytes each from the tail, as
     * one run. Must be called while the allocator has no holes (before
     * any pfree that left one), so block i sits at the first block's
     * offset plus i * (size rounded up to 16), exactly where n
     * pmalloc(size) calls would put it.
     * @return ObjectID of the first block, or nullOid (allocating
     *         nothing) if the n blocks do not all fit.
     */
    Oid pmallocRun(std::uint64_t n, std::uint64_t size);

    /** Free a block previously returned by pmalloc or pmallocRun. */
    void pfree(Oid oid);

    /**
     * Permanently remove offsets below @p up_to from the free space,
     * reserving them for fixed data-structure layout (root objects,
     * bucket arrays, tables). Must be called before any pmalloc.
     */
    void reservePrefix(std::uint64_t up_to);

    /** Size of the live block at @p oid (0 if not live). */
    std::uint64_t blockSize(Oid oid) const;

    std::uint64_t liveBytes() const { return live; }
    std::uint64_t liveBlocks() const { return nLive; }
    std::uint64_t allocCount() const { return nAllocs; }
    std::uint64_t freeCount() const { return nFrees; }

  private:
    /** Live blocks of len bytes at first + i * len, i < count. */
    struct Run
    {
        std::uint64_t len;
        std::uint64_t count;
    };

    PmoId pool;
    std::uint64_t capacity;
    std::uint64_t tail;                          //!< free from here up
    std::map<std::uint64_t, std::uint64_t> holes; //!< below tail: off -> len
    ProbeTable<std::uint64_t> blocks; //!< live blocks: off -> len
    std::map<std::uint64_t, Run> runs; //!< first offset -> run
    std::uint64_t nLive = 0;   //!< table blocks plus run members
    std::uint64_t live = 0;
    std::uint64_t nAllocs = 0;
    std::uint64_t nFrees = 0;

    static std::uint64_t align(std::uint64_t v) { return (v + 15) & ~15ULL; }

    void addBlock(std::uint64_t off, std::uint64_t len);
    /** The run holding a block that starts at @p off, or runs.end(). */
    std::map<std::uint64_t, Run>::const_iterator
    runOf(std::uint64_t off) const;
    /** Take the live block at @p off out of the table or its run. */
    std::uint64_t removeBlock(std::uint64_t off);
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_PALLOC_HH
