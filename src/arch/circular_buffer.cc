#include "arch/circular_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace terp {
namespace arch {

double
CircularBuffer::Stats::silentFraction() const
{
    // "Silent" = conditional calls that did not become a system
    // call: subsequent/silent attaches (cases 2,3) and partial or
    // delayed detaches (cases 4,6).
    std::uint64_t total = condAttachTotal() + condDetachTotal();
    if (total == 0)
        return 0.0;
    std::uint64_t silent = case2 + case3 + case4 + case6;
    return static_cast<double>(silent) / static_cast<double>(total);
}

CircularBuffer::Entry *
CircularBuffer::find(pm::PmoId pmo)
{
    for (auto &e : entries)
        if (e.valid && e.pmo == pmo)
            return &e;
    return nullptr;
}

const CircularBuffer::Entry *
CircularBuffer::find(pm::PmoId pmo) const
{
    for (const auto &e : entries)
        if (e.valid && e.pmo == pmo)
            return &e;
    return nullptr;
}

CircularBuffer::Entry &
CircularBuffer::allocate(pm::PmoId pmo, Cycles now)
{
    for (auto &e : entries) {
        if (!e.valid) {
            e = Entry{true, pmo, now, 1, false};
            minTs = nLive == 0 ? now : std::min(minTs, now);
            ++nLive;
            return e;
        }
    }
    // The paper sizes the buffer (32) above the number of
    // concurrently attached PMOs (1-2 in practice, max 6); running
    // out indicates a configuration error.
    TERP_PANIC("circular buffer full: too many live PMOs");
}

CondAttachCase
CircularBuffer::condAttach(pm::PmoId pmo, Cycles now)
{
    Entry *e = find(pmo);
    if (!e) {
        // Case 1: first attach; allocate, Ctr=1, DD=0; caller makes
        // the attach() system call.
        allocate(pmo, now);
        ++st.case1;
        return CondAttachCase::FirstAttach;
    }
    if (!e->dd) {
        // Case 2: subsequent attach by another thread.
        ++e->ctr;
        ++st.case2;
        return CondAttachCase::SubsequentAttach;
    }
    // Case 3: PMO was in delayed-detach; reset DD, Ctr=1. A pair of
    // detach and attach system calls has been elided.
    e->dd = false;
    e->ctr = 1;
    ++st.case3;
    return CondAttachCase::SilentAttach;
}

CondDetachCase
CircularBuffer::condDetach(pm::PmoId pmo, Cycles now, Cycles max_ew)
{
    Entry *e = find(pmo);
    TERP_ASSERT(e, "CONDDT on PMO not in circular buffer: ", pmo);
    TERP_ASSERT(e->ctr > 0, "CONDDT underflow on PMO ", pmo);

    --e->ctr;
    if (e->ctr > 0) {
        // Case 4: other threads still hold the PMO.
        ++st.case4;
        return CondDetachCase::PartialDetach;
    }
    if (now >= e->ts + max_ew) {
        // Case 5: last thread and the exposure window target has
        // been met or exceeded; caller performs the detach syscall.
        e->valid = false;
        --nLive;
        ++st.case5;
        return CondDetachCase::FullDetach;
    }
    // Case 6: delay the detach; the sweep (or a future CONDAT) will
    // resolve it.
    e->dd = true;
    ++st.case6;
    return CondDetachCase::DelayedDetach;
}

CircularBuffer::SweepActions
CircularBuffer::sweep(Cycles now, Cycles max_ew)
{
    SweepActions actions;
    // Quiescent fast path: nothing resident, or even the oldest
    // window is younger than the target. Either way a full scan
    // would decide no action, so skip it.
    if (nLive == 0 || now < minTs + max_ew)
        return actions;
    Cycles newMin = ~Cycles(0);
    for (auto &e : entries) {
        if (!e.valid)
            continue;
        if (now < e.ts + max_ew) {
            newMin = std::min(newMin, e.ts);
            continue; // max EW not reached yet; leave alone
        }
        if (e.ctr == 0) {
            TERP_ASSERT(e.dd, "Ctr==0 entry must be delayed-detach");
            // No thread works on the PMO: fully detach it.
            e.valid = false;
            --nLive;
            actions.push_back({e.pmo, true});
            ++st.sweepDetach;
        } else {
            // Threads still hold it: re-randomize in place and
            // restart the window.
            e.ts = now;
            newMin = std::min(newMin, e.ts);
            actions.push_back({e.pmo, false});
            ++st.sweepRandomize;
        }
    }
    minTs = nLive ? newMin : 0;
    return actions;
}

bool
CircularBuffer::resident(pm::PmoId pmo) const
{
    return find(pmo) != nullptr;
}

unsigned
CircularBuffer::counter(pm::PmoId pmo) const
{
    const Entry *e = find(pmo);
    return e ? e->ctr : 0;
}

bool
CircularBuffer::delayed(pm::PmoId pmo) const
{
    const Entry *e = find(pmo);
    return e && e->dd;
}

Cycles
CircularBuffer::timestamp(pm::PmoId pmo) const
{
    const Entry *e = find(pmo);
    TERP_ASSERT(e, "timestamp of non-resident PMO");
    return e->ts;
}

InlineList<pm::PmoId, CircularBuffer::capacity>
CircularBuffer::residentPmos() const
{
    InlineList<pm::PmoId, capacity> out;
    for (const auto &e : entries)
        if (e.valid)
            out.push_back(e.pmo);
    return out;
}

void
CircularBuffer::evict(pm::PmoId pmo)
{
    if (Entry *e = find(pmo)) {
        e->valid = false;
        --nLive;
    }
}

} // namespace arch
} // namespace terp
