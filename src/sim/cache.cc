#include "sim/cache.hh"

#include <bit>

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
    const std::size_t n = nSets << strideShiftBits;
    tags.assign(n, 0);
    order.assign(nSets, identityOrder);
    validBits.assign((n + 63) / 64, 0);
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

    for (unsigned w = 0; w < nWays; ++w) {
        if (set_tags[w] == key) {
            ord = toFront(ord, rankOf(ord, w));
            ++nHits;
            return true;
        }
    }
    // Empty ways sit behind every valid way, so the last rank is an
    // empty way if the set has one, else the least recently used.
    const unsigned last = nWays - 1;
    const unsigned victim = (ord >> (4 * last)) & 15;
    if (set_tags[victim] == 0) {
        ++nValid;
        setValid(base + victim);
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
    clearValid(i);
    --nValid;
}

void
Cache::invalidateRange(std::uint64_t lo, std::uint64_t hi)
{
    const std::uint64_t line_bytes = 1ULL << lineShiftBits;
    TERP_ASSERT((lo & (line_bytes - 1)) == 0 &&
                    (hi & (line_bytes - 1)) == 0,
                "invalidateRange bounds must be line-aligned");
    if (hi <= lo || nValid == 0)
        return;

    const std::uint64_t first_line = lo >> lineShiftBits;
    const std::uint64_t last_line = (hi - 1) >> lineShiftBits;
    const std::uint64_t span = last_line - first_line + 1;
    if (mruLineAddr >= first_line && mruLineAddr <= last_line)
        mruLineAddr = ~0ULL;

    if (span < nSets) {
        // Narrow range: only the sets the range maps to can hold a
        // matching line, so probe those directly by set index.
        for (std::uint64_t la = first_line; la <= last_line; ++la) {
            const std::uint64_t tag = la >> setShiftBits;
            if (tag > maxTag)
                break; // never resident, nor is any line above it
            const auto key = static_cast<std::uint32_t>(tag + 1);
            const std::size_t base = (la & (nSets - 1))
                                     << strideShiftBits;
            for (unsigned w = 0; w < nWays; ++w) {
                if (tags[base + w] == key) {
                    dropSlot(base + w);
                    break;
                }
            }
        }
        return;
    }

    // Wide range: every set is in play. Walk the validity bitmap so
    // only live lines are visited — 64 empty slots cost one word
    // test.
    for (std::size_t wi = 0; wi < validBits.size(); ++wi) {
        std::uint64_t word = validBits[wi];
        while (word) {
            const unsigned b =
                static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            const std::size_t i = (wi << 6) | b;
            const std::uint64_t set_idx = i >> strideShiftBits;
            const std::uint64_t line_addr =
                ((std::uint64_t{tags[i]} - 1) << setShiftBits) | set_idx;
            if (line_addr >= first_line && line_addr <= last_line)
                dropSlot(i);
        }
    }
}

} // namespace sim
} // namespace terp
