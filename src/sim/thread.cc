#include "sim/thread.hh"

#include "common/logging.hh"

namespace terp {
namespace sim {

Cycles
ThreadContext::overheadTotal() const
{
    Cycles sum = 0;
    for (unsigned i = 1; i < static_cast<unsigned>(Charge::NumCharges);
         ++i) {
        sum += buckets[i];
    }
    return sum;
}

void
ThreadContext::syncTo(Cycles t, Charge c)
{
    if (t > clock)
        charge(c, t - clock);
}

void
ThreadContext::blockOn(std::uint64_t token)
{
    TERP_ASSERT(!isBlocked, "thread double-blocked");
    isBlocked = true;
    blockedToken = token;
}

void
ThreadContext::unblock()
{
    isBlocked = false;
    blockedToken = 0;
}

} // namespace sim
} // namespace terp
