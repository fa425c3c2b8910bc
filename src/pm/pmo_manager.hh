/**
 * @file
 * PMO manager: naming, creation, opening, and the randomized
 * virtual-address placement used by attach.
 *
 * Placement model: PMOs are mapped inside a 1 TB randomization arena
 * at 4 MB-aligned slots, giving 2^18 possible placements — the 18-bit
 * entropy the paper assumes for a 1 GB PMO in its security analysis
 * (Table V).
 */

#ifndef TERP_PM_PMO_MANAGER_HH
#define TERP_PM_PMO_MANAGER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "pm/oid.hh"
#include "pm/palloc.hh"
#include "pm/pmo.hh"
#include "sim/machine.hh"
#include "trace/trace_buffer.hh"

namespace terp {
namespace pm {

/** Result of mapping/randomizing: the mapping change, for shootdown. */
struct MapChange
{
    std::uint64_t oldBase = 0; //!< 0 if previously unmapped
    std::uint64_t newBase = 0; //!< 0 if now unmapped
    std::uint64_t size = 0;
};

/**
 * Creates and tracks PMOs, assigns physical NVM placement, and
 * performs the (re)randomized virtual mapping on attach.
 */
class PmoManager
{
  public:
    /** Virtual randomization arena: 1 TB starting at 16 TB. */
    static constexpr std::uint64_t arenaBase = 1ULL << 44;
    static constexpr std::uint64_t arenaSize = 1ULL << 40;
    /** Placement alignment: 4 MB slots -> 2^18 slots of entropy. */
    static constexpr std::uint64_t slotAlign = 4 * MiB;

    explicit PmoManager(std::uint64_t seed = 42);

    PmoManager(const PmoManager &) = delete;

    /**
     * Take @p o's PMOs, allocators and placement stream, written into
     * the ones this manager holds. The trace sink stays this
     * manager's own (its owner attaches it).
     */
    PmoManager &operator=(const PmoManager &o);

    /** PMO_create: new PMO; the caller becomes the owner. */
    Pmo &create(const std::string &name, std::uint64_t size,
                Mode mode = Mode::ReadWrite);

    /** PMO_open: look up an existing PMO by name. */
    Pmo *open(const std::string &name, Mode mode);

    /** PMO_close: drop the name binding (PMO storage persists). */
    void close(Pmo &pmo);

    Pmo &pmo(PmoId id);
    const Pmo &pmo(PmoId id) const;
    bool exists(PmoId id) const;
    std::size_t count() const { return pmos.size(); }

    /** The allocator bound to a PMO (pmalloc/pfree). */
    PoolAllocator &allocator(PmoId id);

    /**
     * Map the PMO at a fresh random slot (the "real attach" mapping
     * step). Does not charge time; callers charge Table II costs.
     */
    MapChange mapRandomized(Pmo &pmo);

    /** Unmap (the "real detach" mapping step). */
    MapChange unmap(Pmo &pmo);

    /** Move to a new random slot while staying attached. */
    MapChange rerandomize(Pmo &pmo);

    /**
     * Process-exit cleanup: unmap every attached PMO. The PMOs and
     * their contents persist (they are persistent memory); only the
     * address-space state of the exiting process is discarded.
     */
    void resetMappings();

    /** oid_direct: translate an ObjectID to a virtual address. */
    std::uint64_t oidDirect(const Oid &oid) const;

    /**
     * Reverse translation: the attached PMO containing @p vaddr, or
     * nullptr. Used to resolve attacker-style raw-pointer accesses.
     */
    const Pmo *findByVaddr(std::uint64_t vaddr) const;

    /** Entropy bits of the placement randomization. */
    static constexpr unsigned entropyBits = 18;

    /**
     * Attach (or detach, with nullptr) an event sink. Mapping-table
     * changes — map, unmap, move — are recorded on the kernel
     * pseudo-track with the affected virtual base address.
     */
    void setTraceSink(trace::TraceSink *sink) { traceSink = sink; }

  private:
    Rng rng;
    trace::TraceSink *traceSink = nullptr;
    std::vector<std::unique_ptr<Pmo>> pmos;
    std::vector<std::unique_ptr<PoolAllocator>> allocs;
    std::map<std::string, PmoId> names;
    std::uint64_t nextPhys = 1ULL << 33; //!< NVM physical bump pointer

    std::uint64_t pickFreeSlot(std::uint64_t size);
    bool overlapsAttached(std::uint64_t base, std::uint64_t size) const;
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_PMO_MANAGER_HH
