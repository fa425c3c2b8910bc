/**
 * @file
 * Assignment of owned objects that keeps the objects: the element
 * assignment a scratch copy of a world is written through, so its
 * containers keep the storage they already hold.
 */

#ifndef TERP_COMMON_DEEP_ASSIGN_HH
#define TERP_COMMON_DEEP_ASSIGN_HH

#include <memory>
#include <vector>

namespace terp {

/**
 * Make @p to hold copies of @p from's objects (null where @p from is
 * null): an object @p to already holds at an index is assigned into,
 * and only a missing one is allocated.
 */
template <class T>
void
assignDeep(std::vector<std::unique_ptr<T>> &to,
           const std::vector<std::unique_ptr<T>> &from)
{
    to.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) {
        if (!from[i])
            to[i].reset();
        else if (to[i])
            *to[i] = *from[i];
        else
            to[i] = std::make_unique<T>(*from[i]);
    }
}

} // namespace terp

#endif // TERP_COMMON_DEEP_ASSIGN_HH
