/**
 * @file
 * Two-level TLB model (Table II: L1 DTLB 64-entry 4-way, L2 TLB
 * 1536-entry 6-way, 30-cycle walk penalty on a full miss).
 *
 * Keyed by virtual page number, so PMO layout re-randomization must
 * shoot down the translations of the old mapping range.
 */

#ifndef TERP_SIM_TLB_HH
#define TERP_SIM_TLB_HH

#include <cstdint>

#include "common/units.hh"
#include "sim/cache.hh"

namespace terp {
namespace sim {

/** Result of a TLB lookup: where it hit and the cycles it cost. */
struct TlbResult
{
    enum class Where { L1, L2, Walk };
    Where where;
    Cycles cycles;
};

/** L1 + L2 TLB pair with a fixed page-walk penalty. */
class TlbHierarchy
{
  public:
    TlbHierarchy();

    /** Translate the page containing vaddr, filling on misses. */
    TlbResult
    lookup(std::uint64_t vaddr)
    {
        const std::uint64_t key = pageKey(vaddr);
        if (l1.access(key))
            return {TlbResult::Where::L1, latency::tlbL1};
        if (l2.access(key))
            return {TlbResult::Where::L2, latency::tlbL2};
        ++nWalks;
        return {TlbResult::Where::Walk,
                latency::tlbL2 + latency::tlbMiss};
    }

    /** Invalidate translations for virtual range [lo, hi). */
    void shootdownRange(std::uint64_t lo, std::uint64_t hi);

    std::uint64_t walkCount() const { return nWalks; }

  private:
    // Map a virtual address to a pseudo-address whose cache line is
    // the page number, so a Cache of N entries with line size
    // 1<<lineShift behaves as an N-entry TLB.
    static std::uint64_t
    pageKey(std::uint64_t vaddr)
    {
        return (vaddr >> pageShift) << lineShift;
    }

    // Reuse the tag-only cache as a TLB structure: "addresses" are
    // virtual page numbers shifted so that the line index equals the
    // page number.
    Cache l1;
    Cache l2;
    std::uint64_t nWalks = 0;
};

} // namespace sim
} // namespace terp

#endif // TERP_SIM_TLB_HH
