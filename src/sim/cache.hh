/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * The model tracks tags only (no data) and answers hit/miss queries;
 * the Machine composes an L1D per core with a shared L2 and charges
 * the Table II latencies, and TlbHierarchy reuses it for both TLB
 * levels.
 *
 * Layout (see DESIGN.md §9). Each set keeps its tags in one
 * contiguous slot of bit_ceil(ways) 32-bit words, 64-byte aligned, so
 * a set scan touches one host cache line (a 16-way L2 set is exactly
 * 64 bytes). A way holds tag + 1, and 0 marks an empty way. Beside the
 * tags, each set has one 64-bit recency word that lists its ways from
 * most to least recently used, 4 bits per way (hence at most 16
 * ways). A hit moves its way to rank 0; a miss fills the way at the
 * last rank and moves it to rank 0; an invalidated way moves to the
 * last rank. Empty ways therefore always sit behind every valid way,
 * so a miss fills an empty way if there is one and otherwise evicts
 * the least recently used line. That is exactly the replacement of a
 * per-line timestamp LRU that fills empty ways first, and tags are
 * stored exactly (a tag that does not fit in 32 bits is an assertion
 * failure, never an alias), so the hit/miss sequence, and every
 * simulated cycle, is the same as with timestamps.
 *
 * Host-side shortcuts, none of which is model state:
 *  - a one-line MRU hint: the line of the last access is at rank 0 of
 *    its set, so a repeat access is a compare and a hit count, with
 *    no recency write. Invalidating that line clears the hint;
 *  - a whole-set compare: a lookup compares the key against the
 *    16-slot, 64-byte-aligned block that holds its set in one vector
 *    compare, then keeps the mask bits of the set's own slots, so a
 *    set of any width takes the same branch-free code;
 *  - a list of live slots, unordered: a slot is pushed when a miss
 *    fills an empty way and swap-removed when an invalidation drops
 *    it, so invalidateRange walks exactly the valid lines. The first
 *    invalidateRange builds the list from the tags, a block at a
 *    time and only if the cache ever missed, so a cache that is never
 *    invalidated (the data caches) keeps none;
 *  - a bit per set that a miss ever filled. A set without it is as
 *    the constructor left it (no tags, ranks in way order), so an
 *    assignment between caches of one geometry copies only the sets
 *    either side ever filled: a crash point's scratch machine takes
 *    the few sets its driver's workload touched, not the whole L2.
 */

#ifndef TERP_SIM_CACHE_HH
#define TERP_SIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/units.hh"

namespace terp {
namespace sim {

/** Tag-only set-associative cache with LRU replacement. */
class Cache
{
  public:
    /** Largest associativity the 4-bit recency ranks can order. */
    static constexpr unsigned maxWays = 16;

    /**
     * @param size_bytes Total capacity in bytes.
     * @param ways       Associativity, 1 to maxWays.
     * @param line_bytes Line size in bytes (default 64).
     */
    Cache(std::uint64_t size_bytes, unsigned ways,
          std::uint64_t line_bytes = lineSize);

    Cache(const Cache &o) { *this = o; }
    Cache(Cache &&) noexcept = default;
    /** Take @p o's geometry and lines, into the tag array held. */
    Cache &operator=(const Cache &o);

    /**
     * Access one line by physical address.
     * @return true on hit; on miss the line is filled.
     */
    bool
    access(std::uint64_t paddr)
    {
        const std::uint64_t line_addr = paddr >> lineShiftBits;
        // MRU fast path: the last line accessed is resident and
        // already at rank 0, so a hit changes nothing but the count.
        if (line_addr == mruLineAddr) {
            ++nHits;
            return true;
        }
        return accessSlow(line_addr);
    }

    /**
     * Drop lines whose physical address falls in [lo, hi). Both
     * bounds must be line-aligned.
     */
    void invalidateRange(std::uint64_t lo, std::uint64_t hi);

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t sets() const { return nSets; }

  private:
    /** Allocator that starts the tag array on a host cache line. */
    template <class T>
    struct LineAligned
    {
        using value_type = T;
        static constexpr std::align_val_t align{64};
        LineAligned() = default;
        template <class U> LineAligned(const LineAligned<U> &) {}
        /** Default-initialize, so a copy can fill the array in bulk. */
        template <class U>
        void
        construct(U *p)
        {
            ::new (static_cast<void *>(p)) U;
        }
        T *
        allocate(std::size_t n)
        {
            return static_cast<T *>(::operator new(n * sizeof(T), align));
        }
        void deallocate(T *p, std::size_t) { ::operator delete(p, align); }
        bool operator==(const LineAligned &) const { return true; }
    };

    std::uint64_t lineShiftBits = 0;
    std::uint64_t nSets = 0;
    unsigned setShiftBits = 0;    //!< log2(nSets)
    unsigned nWays = 0;
    unsigned strideShiftBits = 0; //!< log2(bit_ceil(nWays)): slots per set
    unsigned setSlotBits = 0;     //!< one bit per slot of a set

    // Way slot i is way (i & (stride - 1)) of set (i >> strideShift).
    // Slots past nWays in a set, and past the last set up to a whole
    // 16-slot block, stay 0.
    std::vector<std::uint32_t, LineAligned<std::uint32_t>> tags;
    std::vector<std::uint64_t> order; //!< per set, rank r in bits 4r..
    /** Bit s: a miss filled set s (host-side; see the file comment). */
    std::vector<std::uint64_t> filled;
    /** Slots holding a valid line, in no order; see `listed`. */
    std::vector<std::uint32_t> live;
    /** live is kept: set by the first invalidateRange. */
    bool listed = false;

    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;

    std::uint64_t mruLineAddr = ~0ULL; //!< host-side hint only

    bool accessSlow(std::uint64_t line_addr);
    void dropSlot(std::size_t i);
};

} // namespace sim
} // namespace terp

#endif // TERP_SIM_CACHE_HH
