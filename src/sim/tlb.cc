#include "sim/tlb.hh"

namespace terp {
namespace sim {

TlbHierarchy::TlbHierarchy()
    // 64 entries, 4-way; 1536 entries, 6-way. Capacity in "bytes" is
    // entries * lineSize for the tag-only Cache model. The L2 TLB is
    // 1536 = 256 sets * 6 ways; 256 is a power of two so geometry is
    // valid.
    : l1(64 * lineSize, 4), l2(1536 * lineSize, 6)
{
}

void
TlbHierarchy::shootdownRange(std::uint64_t lo, std::uint64_t hi)
{
    l1.invalidateRange(pageKey(lo), pageKey(hi - 1) + lineSize);
    l2.invalidateRange(pageKey(lo), pageKey(hi - 1) + lineSize);
}

} // namespace sim
} // namespace terp
