#include "sim/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace terp {
namespace sim {

namespace {

constexpr std::uint64_t nibbleOnes = 0x1111111111111111ULL;
/** Every way in way order: rank r holds way r. */
constexpr std::uint64_t identityOrder = 0xFEDCBA9876543210ULL;
/** Largest tag whose tag + 1 still fits a 32-bit way. */
constexpr std::uint64_t maxTag = 0xFFFFFFFEULL;

/** Rank of way in a recency word. Each of the 16 nibbles holds a
 *  distinct way number, so exactly one matches; the borrow trick
 *  flags the lowest zero nibble of ord ^ way exactly. */
unsigned
rankOf(std::uint64_t ord, unsigned way)
{
    const std::uint64_t x = ord ^ (way * nibbleOnes);
    const std::uint64_t zero = (x - nibbleOnes) & ~x & (8 * nibbleOnes);
    return static_cast<unsigned>(std::countr_zero(zero)) >> 2;
}

/** Move the way at rank r to rank 0; ranks below r shift back one. */
std::uint64_t
toFront(std::uint64_t ord, unsigned r)
{
    const unsigned s = 4 * r;
    const std::uint64_t below = ord & ((1ULL << s) - 1);
    const std::uint64_t above = ord & ((~0ULL << s) << 4);
    return above | (below << 4) | ((ord >> s) & 15);
}

/** Move the way at rank r to rank last; ranks r+1..last shift
 *  forward one. Ranks past last (unused ways) stay put. */
std::uint64_t
toBack(std::uint64_t ord, unsigned r, unsigned last)
{
    const unsigned s = 4 * r;
    const unsigned e = 4 * last;
    const std::uint64_t below = ord & ((1ULL << s) - 1);
    const std::uint64_t between =
        (ord >> 4) & ((1ULL << e) - 1) & ~((1ULL << s) - 1);
    const std::uint64_t above = ord & ((~0ULL << e) << 4);
    return below | between | (((ord >> s) & 15) << e) | above;
}

/** Four 32-bit way slots: one SSE2 or NEON register. */
using Slots4 = std::uint32_t __attribute__((vector_size(16)));

/** Bit s is set iff slot s of the 16-slot block holds key. */
unsigned
matchBlock(const std::uint32_t *block, std::uint32_t key)
{
    Slots4 acc = {0, 0, 0, 0};
    Slots4 bit = {1, 2, 4, 8};
    for (unsigned q = 0; q < Cache::maxWays / 4; ++q) {
        Slots4 t;
        std::memcpy(&t, block + 4 * q, sizeof t);
        acc |= reinterpret_cast<Slots4>(t == key) & bit;
        bit <<= 4;
    }
    return acc[0] | acc[1] | acc[2] | acc[3];
}

} // namespace

Cache::Cache(std::uint64_t size_bytes, unsigned ways,
             std::uint64_t line_bytes)
    : nWays(ways)
{
    TERP_ASSERT(std::has_single_bit(line_bytes));
    TERP_ASSERT(ways > 0);
    TERP_ASSERT(ways <= maxWays,
                "cache associativity above 16 ways does not fit the "
                "4-bit recency ranks");
    lineShiftBits = static_cast<std::uint64_t>(
        std::countr_zero(line_bytes));
    nSets = size_bytes / (line_bytes * ways);
    TERP_ASSERT(nSets > 0 && std::has_single_bit(nSets),
                "cache geometry must give a power-of-two set count");
    setShiftBits = static_cast<unsigned>(std::countr_zero(nSets));
    strideShiftBits =
        static_cast<unsigned>(std::countr_zero(std::bit_ceil(ways)));
    setSlotBits = (2u << ((1u << strideShiftBits) - 1)) - 1;
    const std::size_t n = nSets << strideShiftBits;
    TERP_ASSERT(n <= 0xFFFFFFFFULL,
                "cache has more way slots than 32-bit slot indices");
    // Whole 16-slot blocks, so a lookup may read its set's block.
    tags.assign(std::max<std::size_t>(n, maxWays), 0);
    order.assign(nSets, identityOrder);
    filled.assign((nSets + 63) / 64, 0);
}

Cache &
Cache::operator=(const Cache &o)
{
    if (this == &o)
        return *this;
    if (nSets == o.nSets && nWays == o.nWays &&
        tags.size() == o.tags.size()) {
        // One geometry: only the sets either side filled differ from
        // a cold set.
        const std::size_t stride = std::size_t{1} << strideShiftBits;
        for (std::size_t w = 0; w < filled.size(); ++w) {
            for (std::uint64_t bits = filled[w] | o.filled[w]; bits;
                 bits &= bits - 1) {
                const std::size_t set =
                    64 * w +
                    static_cast<std::size_t>(std::countr_zero(bits));
                std::copy_n(&o.tags[set << strideShiftBits], stride,
                            &tags[set << strideShiftBits]);
                order[set] = o.order[set];
            }
        }
    } else {
        // A vector copy through the aligned allocator would construct
        // the tags one at a time; sized without a fill, they copy in
        // bulk.
        tags.resize(o.tags.size());
        std::copy(o.tags.begin(), o.tags.end(), tags.begin());
        order = o.order;
    }
    filled = o.filled;
    lineShiftBits = o.lineShiftBits;
    nSets = o.nSets;
    setShiftBits = o.setShiftBits;
    nWays = o.nWays;
    strideShiftBits = o.strideShiftBits;
    setSlotBits = o.setSlotBits;
    live = o.live;
    listed = o.listed;
    nHits = o.nHits;
    nMisses = o.nMisses;
    mruLineAddr = o.mruLineAddr;
    return *this;
}

bool
Cache::accessSlow(std::uint64_t line_addr)
{
    const std::uint64_t set_idx = line_addr & (nSets - 1);
    const std::uint64_t tag = line_addr >> setShiftBits;
    TERP_ASSERT(tag <= maxTag, "cache tag ", tag,
                " does not fit in 32 bits (line address ", line_addr,
                ")");
    const auto key = static_cast<std::uint32_t>(tag + 1);
    const std::size_t base = set_idx << strideShiftBits;
    std::uint32_t *set_tags = &tags[base];
    std::uint64_t &ord = order[set_idx];
    mruLineAddr = line_addr;

    // Compare the key against the set's 16-slot block at once, then
    // keep the set's own slots: one code path for every width.
    const std::size_t off = base & (maxWays - 1);
    const unsigned match =
        (matchBlock(set_tags - off, key) >> off) & setSlotBits;
    if (match) {
        const auto w = static_cast<unsigned>(std::countr_zero(match));
        ord = toFront(ord, rankOf(ord, w));
        ++nHits;
        return true;
    }
    // Empty ways sit behind every valid way, so the last rank is an
    // empty way if the set has one, else the least recently used.
    const unsigned last = nWays - 1;
    const unsigned victim = (ord >> (4 * last)) & 15;
    if (set_tags[victim] == 0) {
        // A set's first fill is into an empty way; later ones find it
        // marked.
        filled[set_idx >> 6] |= 1ULL << (set_idx & 63);
        if (listed)
            live.push_back(static_cast<std::uint32_t>(base + victim));
    }
    set_tags[victim] = key;
    ord = toFront(ord, last);
    ++nMisses;
    return false;
}

void
Cache::dropSlot(std::size_t i)
{
    const std::size_t set_idx = i >> strideShiftBits;
    const auto way = static_cast<unsigned>(
        i & ((std::size_t{1} << strideShiftBits) - 1));
    std::uint64_t &ord = order[set_idx];
    ord = toBack(ord, rankOf(ord, way), nWays - 1);
    tags[i] = 0;
}

void
Cache::invalidateRange(std::uint64_t lo, std::uint64_t hi)
{
    const std::uint64_t line_bytes = 1ULL << lineShiftBits;
    TERP_ASSERT((lo & (line_bytes - 1)) == 0 &&
                    (hi & (line_bytes - 1)) == 0,
                "invalidateRange bounds must be line-aligned");
    if (hi <= lo)
        return;
    if (!listed) {
        listed = true;
        // Only a miss fills a way, so an idle core's TLB has nothing
        // to list. Crash worlds shoot down young TLBs, whose slots are
        // mostly empty: test a block of 16 slots per compare.
        for (std::size_t b = 0; nMisses != 0 && b < tags.size();
             b += maxWays) {
            for (unsigned full = ~matchBlock(&tags[b], 0) & 0xFFFF; full;
                 full &= full - 1)
                live.push_back(static_cast<std::uint32_t>(
                    b + static_cast<unsigned>(std::countr_zero(full))));
        }
    }

    const std::uint64_t first_line = lo >> lineShiftBits;
    const std::uint64_t last_line = (hi - 1) >> lineShiftBits;
    if (mruLineAddr >= first_line && mruLineAddr <= last_line)
        mruLineAddr = ~0ULL;

    // Walk the valid lines. A dropped slot's entry is overwritten by
    // the last one, which is examined next.
    for (std::size_t k = 0; k < live.size();) {
        const std::uint32_t i = live[k];
        const std::uint64_t line_addr =
            ((std::uint64_t{tags[i]} - 1) << setShiftBits) |
            (i >> strideShiftBits);
        if (line_addr < first_line || line_addr > last_line) {
            ++k;
            continue;
        }
        dropSlot(i);
        live[k] = live.back();
        live.pop_back();
    }
}

} // namespace sim
} // namespace terp
