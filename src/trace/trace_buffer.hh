/**
 * @file
 * Per-thread fixed-capacity ring-buffer event log and the process
 * sink that owns one buffer per thread.
 *
 * Design constraints:
 *   - cheap enough to leave on: emit() is a bounds-checked array
 *     store plus two counter increments, fully inlined here so that
 *     emitting modules (sim, pm) need no link dependency on the
 *     trace library;
 *   - memory grows with use up to a fixed cap: a buffer's slots
 *     grow geometrically as events arrive and never past its
 *     capacity, so a short run pays for the events it emits, not for
 *     the capacity; once full, the oldest events are overwritten and
 *     counted in an explicit drop counter — recent history survives,
 *     and consumers (the auditor) can tell a complete trace from a
 *     truncated one;
 *   - a true no-op when disabled: modules hold a nullable sink
 *     pointer and emit nothing (and charge nothing) without one.
 */

#ifndef TERP_TRACE_TRACE_BUFFER_HH
#define TERP_TRACE_TRACE_BUFFER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "trace/event.hh"

namespace terp {
namespace trace {

/**
 * Fixed-capacity overwrite-oldest ring buffer of events. Slots are
 * allocated on demand (doubling, clamped to the capacity); the ring
 * starts wrapping only once it holds capacity() events, so every
 * observer below reads exactly as if all slots existed up front.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity)
        : cap(capacity ? capacity : 1)
    {
    }

    /**
     * A copy with the original's room to grow, so the events a
     * copied world emits next do not move the ones it inherited.
     */
    TraceBuffer(const TraceBuffer &o) : cap(o.cap), writes(o.writes)
    {
        slots.reserve(o.slots.capacity());
        slots.assign(o.slots.begin(), o.slots.end());
    }
    TraceBuffer(TraceBuffer &&) noexcept = default;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Append; overwrites the oldest retained event when full. */
    void
    push(const Event &e)
    {
        if (writes < cap) {
            if (slots.size() == slots.capacity())
                slots.reserve(std::min(
                    cap, std::max<std::size_t>(minSlots,
                                               2 * slots.size())));
            slots.push_back(e);
        } else {
            slots[static_cast<std::size_t>(writes % cap)] = e;
        }
        ++writes;
    }

    /** Total events ever pushed. */
    std::uint64_t written() const { return writes; }

    /** Events lost to wrap-around (written - retained). */
    std::uint64_t
    dropped() const
    {
        return writes > cap ? writes - cap : 0;
    }

    /** Events currently retained. */
    std::size_t size() const { return slots.size(); }

    std::size_t capacity() const { return cap; }

    /** Retained events, oldest first. */
    std::vector<Event>
    events() const
    {
        std::vector<Event> out;
        out.reserve(size());
        appendTo(out);
        return out;
    }

    /** Append the retained events, oldest first, to @p out. */
    void
    appendTo(std::vector<Event> &out) const
    {
        // Once wrapped, the oldest event sits where the next goes.
        const auto oldest = static_cast<std::ptrdiff_t>(
            writes > cap ? writes % cap : 0);
        out.insert(out.end(), slots.begin() + oldest, slots.end());
        out.insert(out.end(), slots.begin(), slots.begin() + oldest);
    }

  private:
    /** First allocation: a couple of KB. */
    static constexpr std::size_t minSlots = 64;

    std::size_t cap;
    std::vector<Event> slots; //!< size() == min(writes, cap)
    std::uint64_t writes = 0;
};

/**
 * The process-wide sink: one ring buffer per emitting thread (plus
 * pseudo-threads for the hardware sweeper and the kernel's
 * address-space operations), a global sequence counter giving a
 * total emission order, and aggregate drop accounting.
 */
class TraceSink
{
  public:
    /** Pseudo-tid for sweeper-timer events. */
    static constexpr std::uint32_t sweeperTid = 0xfffffffeu;
    /** Pseudo-tid for kernel address-space (map/unmap) events. */
    static constexpr std::uint32_t kernelTid = 0xffffffffu;

    static constexpr std::size_t defaultCapacity = 1u << 16;

    explicit TraceSink(std::size_t per_thread_capacity = defaultCapacity)
        : cap(per_thread_capacity ? per_thread_capacity : 1)
    {
    }

    /** Record one event. The hot path; fully inline. */
    void
    emit(std::uint32_t tid, EventKind kind, Cycles ts,
         std::uint64_t pmo = noPmo, std::uint64_t arg = 0)
    {
        Event e;
        e.ts = ts;
        e.seq = nextSeq++;
        e.pmo = pmo;
        e.arg = arg;
        e.tid = tid;
        e.kind = kind;
        bufferFor(tid).push(e);
        if (ts > lastTs)
            lastTs = ts;
    }

    /**
     * Record a kernel address-space event. The kernel module has no
     * clock of its own; the event is stamped with the latest
     * timestamp seen, and the sequence number preserves its true
     * position between the caller's surrounding events.
     */
    void
    emitKernel(EventKind kind, std::uint64_t pmo, std::uint64_t arg = 0)
    {
        emit(kernelTid, kind, lastTs, pmo, arg);
    }

    /** Per-thread buffers, keyed by (pseudo-)tid. */
    const std::map<std::uint32_t, TraceBuffer> &
    buffers() const
    {
        return perThread;
    }

    /** All retained events merged into emission (seq) order. */
    std::vector<Event>
    merged() const
    {
        std::size_t n = 0;
        for (const auto &[tid, buf] : perThread) {
            (void)tid;
            n += buf.size();
        }
        std::vector<Event> out;
        out.reserve(n);
        // A buffer holds its events in emission order, so merging
        // each buffer's run into the runs before it keeps seq order.
        for (const auto &[tid, buf] : perThread) {
            (void)tid;
            const auto mid = static_cast<std::ptrdiff_t>(out.size());
            buf.appendTo(out);
            std::inplace_merge(out.begin(), out.begin() + mid, out.end(),
                               [](const Event &a, const Event &b) {
                                   return a.seq < b.seq;
                               });
        }
        return out;
    }

    std::uint64_t
    totalEmitted() const
    {
        std::uint64_t n = 0;
        for (const auto &[tid, buf] : perThread) {
            (void)tid;
            n += buf.written();
        }
        return n;
    }

    std::uint64_t
    totalDropped() const
    {
        std::uint64_t n = 0;
        for (const auto &[tid, buf] : perThread) {
            (void)tid;
            n += buf.dropped();
        }
        return n;
    }

    /** The trace retains every emitted event (nothing wrapped). */
    bool complete() const { return totalDropped() == 0; }

    std::size_t perThreadCapacity() const { return cap; }

  private:
    TraceBuffer &
    bufferFor(std::uint32_t tid)
    {
        auto it = perThread.find(tid);
        if (it == perThread.end())
            it = perThread.emplace(tid, TraceBuffer(cap)).first;
        return it->second;
    }

    std::size_t cap;
    std::map<std::uint32_t, TraceBuffer> perThread;
    std::uint64_t nextSeq = 0;
    Cycles lastTs = 0;
};

} // namespace trace
} // namespace terp

#endif // TERP_TRACE_TRACE_BUFFER_HH
