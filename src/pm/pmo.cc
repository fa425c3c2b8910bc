#include "pm/pmo.hh"

#include "common/logging.hh"
#include "sim/machine.hh"

namespace terp {
namespace pm {

Pmo::Pmo(PmoId id, std::string name, std::uint64_t size, Mode mode,
         std::uint64_t phys_base)
    : pmoId(id), pmoName(std::move(name)), pmoSize(size),
      pmoMode(mode), phys(phys_base), pageSubtree(size)
{
}

std::uint64_t
Pmo::vaddrOf(std::uint64_t offset) const
{
    TERP_ASSERT(attached(), "vaddrOf on detached PMO ", pmoName);
    TERP_ASSERT(offset < pmoSize, "offset out of PMO bounds");
    return base + offset;
}

sim::MemAccess
Pmo::accessAt(std::uint64_t offset, bool write) const
{
    return sim::MemAccess{vaddrOf(offset), paddrOf(offset), write,
                          sim::MemKind::Nvm};
}

} // namespace pm
} // namespace terp
