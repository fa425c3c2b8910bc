/**
 * @file
 * The persistent memory object (PMO) abstraction.
 *
 * A PMO wraps one or more data structures that live in persistent
 * memory without file backing: it has a name, a size, OS-level
 * permissions, an embedded page-table subtree for O(1) attach, and a
 * current (possibly randomized) attach address. Data inside a PMO is
 * addressed by relocatable ObjectIDs.
 */

#ifndef TERP_PM_PMO_HH
#define TERP_PM_PMO_HH

#include <cstdint>
#include <string>

#include "common/units.hh"
#include "pm/oid.hh"
#include "pm/page_table.hh"

namespace terp {
namespace sim {
struct MemAccess;
} // namespace sim

namespace pm {

/** Requested access mode for create/open/attach. */
enum class Mode : unsigned
{
    None = 0,
    Read = 1,
    Write = 2,
    ReadWrite = 3,
};

inline bool
modeAllows(Mode granted, bool write)
{
    auto g = static_cast<unsigned>(granted);
    return write ? (g & static_cast<unsigned>(Mode::Write)) != 0
                 : (g & static_cast<unsigned>(Mode::Read)) != 0;
}

/** One persistent memory object. Created via PmoManager. */
class Pmo
{
  public:
    Pmo(PmoId id, std::string name, std::uint64_t size, Mode mode,
        std::uint64_t phys_base);

    PmoId id() const { return pmoId; }
    const std::string &name() const { return pmoName; }
    std::uint64_t size() const { return pmoSize; }
    Mode mode() const { return pmoMode; }

    /** Fixed physical placement in the simulated NVM. */
    std::uint64_t physBase() const { return phys; }

    /** True while mapped into the process address space. */
    bool attached() const { return base != 0; }

    /** Current virtual base; 0 when detached. */
    std::uint64_t vaddrBase() const { return base; }

    /** Map at @p vbase (performed by PmoManager only). */
    void mapAt(std::uint64_t vbase) { base = vbase; }
    void unmap() { base = 0; }

    /** Virtual address of an offset; PMO must be attached. */
    std::uint64_t vaddrOf(std::uint64_t offset) const;

    /** Physical address of an offset (always valid). */
    std::uint64_t
    paddrOf(std::uint64_t offset) const
    {
        return phys + offset;
    }

    /** The simulator access record for an offset; PMO must be attached. */
    sim::MemAccess accessAt(std::uint64_t offset, bool write) const;

    const EmbeddedSubtree &subtree() const { return pageSubtree; }

    /** Number of times this PMO was (re)mapped, incl. randomization. */
    std::uint64_t mapCount = 0;

  private:
    PmoId pmoId;
    std::string pmoName;
    std::uint64_t pmoSize;
    Mode pmoMode;
    std::uint64_t phys;
    std::uint64_t base = 0;
    EmbeddedSubtree pageSubtree;
};

} // namespace pm
} // namespace terp

#endif // TERP_PM_PMO_HH
