/**
 * @file
 * Definitions 1 and 2 of the paper: permission sets (binary
 * read/write/execute rights over data objects) and permission groups
 * (sets of agents sharing a permission set).
 */

#ifndef TERP_SEMANTICS_PERMISSION_HH
#define TERP_SEMANTICS_PERMISSION_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace terp {
namespace semantics {

/** The three access rights of Definition 1. */
enum class Right : unsigned { Read = 1, Write = 2, Execute = 4 };

/** A set of rights over one object, encoded as a bitmask. */
class Rights
{
  public:
    Rights() = default;
    explicit Rights(unsigned bits_) : bits(bits_ & 7u) {}

    static Rights none() { return Rights(0); }
    static Rights r() { return Rights(1); }
    static Rights rw() { return Rights(3); }

    bool has(Right r) const
    {
        return (bits & static_cast<unsigned>(r)) != 0;
    }

    Rights
    unionWith(Rights o) const
    {
        return Rights(bits | o.bits);
    }

    Rights
    intersect(Rights o) const
    {
        return Rights(bits & o.bits);
    }

    /** Subset relation: every right in *this is also in o. */
    bool
    subsetOf(Rights o) const
    {
        return (bits & ~o.bits) == 0;
    }

    bool operator==(const Rights &o) const { return bits == o.bits; }

    unsigned raw() const { return bits; }

  private:
    unsigned bits = 0;
};

/**
 * Definition 1 — Permission set: a map from object ids to rights.
 * Objects absent from the map carry no rights.
 */
class PermissionSet
{
  public:
    void set(std::uint64_t object, Rights r) { perms[object] = r; }

    Rights
    rightsOn(std::uint64_t object) const
    {
        auto it = perms.find(object);
        return it == perms.end() ? Rights::none() : it->second;
    }

    /** P subset-of Q: every granted right of P is granted by Q. */
    bool subsetOf(const PermissionSet &q) const;

    /** Pointwise intersection. */
    PermissionSet intersect(const PermissionSet &q) const;

    std::size_t objectCount() const { return perms.size(); }

  private:
    std::map<std::uint64_t, Rights> perms;
};

/**
 * Definition 2 — Permission group: agents (threads, processes,
 * users) that share a permission set P, i.e. P is a subset of the
 * intersection of the members' own permission sets.
 */
class PermissionGroup
{
  public:
    PermissionGroup(std::string name, PermissionSet shared)
        : groupName(std::move(name)), sharedPerms(std::move(shared))
    {
    }

    void addAgent(std::uint64_t agent, const PermissionSet &agent_perms);

    /** Check the Definition 2 side condition. */
    bool wellFormed() const;

    const std::string &name() const { return groupName; }
    const PermissionSet &shared() const { return sharedPerms; }
    const std::set<std::uint64_t> &agents() const { return members; }

  private:
    std::string groupName;
    PermissionSet sharedPerms;
    std::set<std::uint64_t> members;
    std::map<std::uint64_t, PermissionSet> memberPerms;
};

} // namespace semantics
} // namespace terp

#endif // TERP_SEMANTICS_PERMISSION_HH
