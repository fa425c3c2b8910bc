#include "pm/pmo_manager.hh"

#include "common/deep_assign.hh"
#include "common/logging.hh"

namespace terp {
namespace pm {

PmoManager::PmoManager(std::uint64_t seed) : rng(seed)
{
    // PmoId 0 is reserved so that Oid{0,0} can act as null.
    pmos.push_back(nullptr);
    allocs.push_back(nullptr);
}

PmoManager &
PmoManager::operator=(const PmoManager &o)
{
    rng = o.rng;
    // Slot 0 (the reserved id) stays null.
    assignDeep(pmos, o.pmos);
    assignDeep(allocs, o.allocs);
    names = o.names;
    nextPhys = o.nextPhys;
    return *this;
}

Pmo &
PmoManager::create(const std::string &name, std::uint64_t size,
                   Mode mode)
{
    TERP_ASSERT(!names.count(name), "PMO name exists: ", name);
    TERP_ASSERT(size > 0 && size <= arenaSize / 4,
                "PMO size unsupported");
    auto id = static_cast<PmoId>(pmos.size());
    std::uint64_t aligned =
        (size + pageSize - 1) / pageSize * pageSize;
    pmos.push_back(
        std::make_unique<Pmo>(id, name, aligned, mode, nextPhys));
    allocs.push_back(std::make_unique<PoolAllocator>(id, aligned));
    nextPhys += aligned;
    names[name] = id;
    return *pmos.back();
}

Pmo *
PmoManager::open(const std::string &name, Mode mode)
{
    auto it = names.find(name);
    if (it == names.end())
        return nullptr;
    Pmo &p = pmo(it->second);
    // OS permission check: the open mode must be a subset of the
    // PMO's mode.
    auto want = static_cast<unsigned>(mode);
    auto have = static_cast<unsigned>(p.mode());
    if ((want & have) != want)
        return nullptr;
    return &p;
}

void
PmoManager::close(Pmo &p)
{
    names.erase(p.name());
}

Pmo &
PmoManager::pmo(PmoId id)
{
    TERP_ASSERT(id > 0 && id < pmos.size(), "bad PmoId ", id);
    return *pmos[id];
}

const Pmo &
PmoManager::pmo(PmoId id) const
{
    TERP_ASSERT(id > 0 && id < pmos.size(), "bad PmoId ", id);
    return *pmos[id];
}

bool
PmoManager::exists(PmoId id) const
{
    return id > 0 && id < pmos.size();
}

PoolAllocator &
PmoManager::allocator(PmoId id)
{
    TERP_ASSERT(id > 0 && id < allocs.size());
    return *allocs[id];
}

bool
PmoManager::overlapsAttached(std::uint64_t base,
                             std::uint64_t size) const
{
    for (const auto &p : pmos) {
        if (!p || !p->attached())
            continue;
        std::uint64_t lo = p->vaddrBase();
        std::uint64_t hi = lo + p->size();
        if (base < hi && base + size > lo)
            return true;
    }
    return false;
}

std::uint64_t
PmoManager::pickFreeSlot(std::uint64_t size)
{
    const std::uint64_t slots = arenaSize / slotAlign;
    for (int tries = 0; tries < 1024; ++tries) {
        std::uint64_t base =
            arenaBase + rng.nextBelow(slots) * slotAlign;
        if (base + size <= arenaBase + arenaSize &&
            !overlapsAttached(base, size)) {
            return base;
        }
    }
    TERP_PANIC("randomization arena exhausted");
}

MapChange
PmoManager::mapRandomized(Pmo &p)
{
    TERP_ASSERT(!p.attached(), "mapRandomized on attached PMO");
    MapChange ch;
    ch.size = p.size();
    ch.newBase = pickFreeSlot(p.size());
    p.mapAt(ch.newBase);
    ++p.mapCount;
    if (traceSink) {
        traceSink->emitKernel(trace::EventKind::PmoMap, p.id(),
                              ch.newBase);
    }
    return ch;
}

MapChange
PmoManager::unmap(Pmo &p)
{
    TERP_ASSERT(p.attached(), "unmap on detached PMO");
    MapChange ch;
    ch.size = p.size();
    ch.oldBase = p.vaddrBase();
    p.unmap();
    if (traceSink) {
        traceSink->emitKernel(trace::EventKind::PmoUnmap, p.id(),
                              ch.oldBase);
    }
    return ch;
}

MapChange
PmoManager::rerandomize(Pmo &p)
{
    TERP_ASSERT(p.attached(), "rerandomize on detached PMO");
    MapChange ch;
    ch.size = p.size();
    ch.oldBase = p.vaddrBase();
    p.unmap();
    ch.newBase = pickFreeSlot(p.size());
    p.mapAt(ch.newBase);
    ++p.mapCount;
    if (traceSink) {
        traceSink->emitKernel(trace::EventKind::PmoRemap, p.id(),
                              ch.newBase);
    }
    return ch;
}

const Pmo *
PmoManager::findByVaddr(std::uint64_t vaddr) const
{
    for (const auto &p : pmos) {
        if (!p || !p->attached())
            continue;
        if (vaddr >= p->vaddrBase() &&
            vaddr < p->vaddrBase() + p->size()) {
            return p.get();
        }
    }
    return nullptr;
}

void
PmoManager::resetMappings()
{
    for (auto &p : pmos) {
        if (p && p->attached())
            p->unmap();
    }
}

std::uint64_t
PmoManager::oidDirect(const Oid &oid) const
{
    const Pmo &p = pmo(oid.pool());
    return p.vaddrOf(oid.offset());
}

} // namespace pm
} // namespace terp
