/**
 * @file
 * The fixed-capacity ring-buffer event log, and the process sink that
 * keeps every thread's events in one such ring, in emission order.
 *
 * Design constraints:
 *   - cheap enough to leave on: emit() is a bounds-checked array
 *     store plus a few counter increments, fully inlined here so that
 *     emitting modules (sim, pm) need no link dependency on the
 *     trace library;
 *   - memory grows with use up to a fixed cap: a buffer's events
 *     live in chunks allocated as events arrive, each at most twice
 *     the size of the one before, so a short run pays for the events
 *     it emits, not for the capacity; the sink's cap is a per-thread
 *     figure, so its ring may hold that many events for each thread
 *     that has emitted;
 *   - losses are always the oldest events: past capacity the ring
 *     drops the oldest event of the whole stream and counts it, so
 *     the retained events are a suffix of the stream, and a reader
 *     that has fed every event before that suffix (the resumable
 *     audit) is still complete;
 *   - cheap to copy: a copy shares the chunks it inherits (a chunk's
 *     events never change once written), so copying a world costs
 *     the number of chunks, not the number of events;
 *   - a true no-op when disabled: modules hold a nullable sink
 *     pointer and emit nothing (and charge nothing) without one.
 */

#ifndef TERP_TRACE_TRACE_BUFFER_HH
#define TERP_TRACE_TRACE_BUFFER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "trace/event.hh"

namespace terp {
namespace trace {

/**
 * Drop-oldest ring buffer of events: it retains the newest events
 * pushed, at most capacity() of them, oldest first. The capacity may
 * grow (grow()), never shrink.
 *
 * The events sit in runs over shared chunks. A chunk is written once,
 * front to back, by the one buffer that allocated it; a copy shares
 * every run of its original, the original's still-filling chunk
 * included, up to its current fill, and writes its own events into
 * chunks of its own. So no event a buffer holds ever changes, and a
 * copy may outlive its original.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity)
        : cap(capacity ? capacity : 1)
    {
    }

    TraceBuffer(const TraceBuffer &o) : cap(o.cap) { *this = o; }
    TraceBuffer(TraceBuffer &&) noexcept = default;
    TraceBuffer &operator=(TraceBuffer &&) noexcept = default;

    /**
     * Take @p o's events, sharing its runs; this buffer's next push
     * opens a chunk of its own.
     */
    TraceBuffer &
    operator=(const TraceBuffer &o)
    {
        if (this == &o)
            return *this;
        // A chunk of this buffer's own that nothing shares is kept for
        // the next one it opens.
        if (own && runs.back().chunk.use_count() == 1) {
            spare = std::move(runs.back().chunk);
            spareSize = ownSize;
        }
        cap = o.cap;
        runs = o.runs;
        own = nullptr;
        ownSize = 0;
        writes = o.writes;
        drops = o.drops;
        return *this;
    }

    /** Append; drops the oldest retained event when full. */
    void
    push(const Event &e)
    {
        if (!own || runs.back().end == ownSize)
            startChunk();
        own[runs.back().end++] = e;
        if (++writes - drops > cap) {
            ++drops;
            if (++runs.front().begin == runs.front().end)
                runs.erase(runs.begin());
        }
    }

    /**
     * Raise the capacity by @p n events. The events already dropped
     * stay dropped: the ring keeps more from here on.
     */
    void grow(std::size_t n) { cap += n; }

    /** Total events ever pushed. */
    std::uint64_t written() const { return writes; }

    /** Events lost to wrap-around, the oldest ones pushed. */
    std::uint64_t dropped() const { return drops; }

    /** Events currently retained. */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(writes - drops);
    }

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
        forEachSince(0, [&out](const Event &e) { out.push_back(e); });
    }

    /**
     * Call @p f on each retained event whose seq is at least @p seq,
     * oldest first. Costs the events visited plus a search of one
     * run, however many events precede them.
     */
    template <class F>
    void
    forEachSince(std::uint64_t seq, F &&f) const
    {
        // Runs hold ascending seqs: skip back over the runs wholly at
        // or past seq; only the run before them can straddle it.
        std::size_t r = runs.size();
        while (r > 0 && runs[r - 1].first()->seq >= seq)
            --r;
        for (std::size_t i = r > 0 ? r - 1 : 0; i < runs.size(); ++i) {
            const Event *p = runs[i].first();
            if (i + 1 == r)
                p = std::partition_point(p, runs[i].last(),
                                         [seq](const Event &e) {
                                             return e.seq < seq;
                                         });
            for (; p != runs[i].last(); ++p)
                f(*p);
        }
    }

  private:
    /** First chunk of a buffer, and of each copy: a couple of KB. */
    static constexpr std::size_t minChunk = 64;
    /** Chunks stop doubling here (40 KB). */
    static constexpr std::size_t maxChunk = 1024;

    /** Events [begin, end) of a chunk, all retained. */
    struct Run
    {
        std::shared_ptr<Event[]> chunk;
        std::size_t begin = 0, end = 0;

        const Event *first() const { return chunk.get() + begin; }
        const Event *last() const { return chunk.get() + end; }
    };

    /**
     * Open a chunk of this buffer's own, twice its last one; the
     * first one is the spare, if there is one.
     */
    void
    startChunk()
    {
        if (!own && spare && spareSize <= cap) {
            ownSize = spareSize;
            runs.push_back({std::move(spare), 0, 0});
        } else {
            ownSize =
                std::min({cap, maxChunk, own ? 2 * ownSize : minChunk});
            runs.push_back({std::make_shared<Event[]>(ownSize), 0, 0});
        }
        own = runs.back().chunk.get();
    }

    std::size_t cap;
    std::vector<Run> runs; //!< oldest first; together, size() events
    /** The chunk this buffer writes into (null in a fresh copy). */
    Event *own = nullptr;
    std::size_t ownSize = 0;
    /** A chunk written before an assignment, held for reuse. */
    std::shared_ptr<Event[]> spare;
    std::size_t spareSize = 0;
    std::uint64_t writes = 0;
    /** Events dropped: since capacity may grow, not writes - cap. */
    std::uint64_t drops = 0;
};

/**
 * The process-wide sink: one ring of every thread's events (and those
 * of the pseudo-threads for the hardware sweeper and the kernel's
 * address-space operations) in emission order, numbered by a global
 * sequence counter. The ring holds the per-thread capacity for each
 * (pseudo-)thread that has emitted, so a run in which no thread emits
 * more than that keeps every event, and a wrap drops the oldest
 * events of the whole stream: the first dropped() seqs.
 */
class TraceSink
{
  public:
    /** Pseudo-tid for sweeper-timer events. */
    static constexpr std::uint32_t sweeperTid = 0xfffffffeu;
    /** Pseudo-tid for kernel address-space (map/unmap) events. */
    static constexpr std::uint32_t kernelTid = 0xffffffffu;

    /** Events per emitting thread (the RuntimeConfig default too). */
    static constexpr std::size_t defaultCapacity = 1u << 16;

    explicit TraceSink(std::size_t per_thread_capacity = defaultCapacity)
        : cap(per_thread_capacity ? per_thread_capacity : 1), ring(cap)
    {
    }

    /** Record one event. The hot path; fully inline. */
    void
    emit(std::uint32_t tid, EventKind kind, Cycles ts,
         std::uint64_t pmo = noPmo, std::uint64_t arg = 0)
    {
        Event e;
        e.ts = ts;
        e.seq = ring.written();
        e.pmo = pmo;
        e.arg = arg;
        e.tid = tid;
        e.kind = kind;
        noteTid(tid);
        ring.push(e);
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

    /** Every (pseudo-)tid that has emitted, ascending. */
    const std::vector<std::uint32_t> &tids() const { return emitters; }

    /** The retained events, in emission (seq) order. */
    std::vector<Event> events() const { return ring.events(); }

    /**
     * Call @p f on each retained event whose seq is at least @p seq,
     * in emission order.
     */
    template <class F>
    void
    forEachSince(std::uint64_t seq, F &&f) const
    {
        ring.forEachSince(seq, std::forward<F>(f));
    }

    std::uint64_t totalEmitted() const { return ring.written(); }

    /** Events lost to wrap: seqs [0, totalDropped()). */
    std::uint64_t totalDropped() const { return ring.dropped(); }

    /** The trace retains every emitted event (nothing wrapped). */
    bool complete() const { return totalDropped() == 0; }

    std::size_t perThreadCapacity() const { return cap; }

  private:
    /** Make room in the ring for a (pseudo-)thread's first event. */
    void
    noteTid(std::uint32_t tid)
    {
        auto it = std::lower_bound(emitters.begin(), emitters.end(), tid);
        if (it != emitters.end() && *it == tid)
            return;
        if (!emitters.empty())
            ring.grow(cap);
        emitters.insert(it, tid);
    }

    std::size_t cap;
    /** A few threads and pseudo-threads: a flat table, whose
     *  assignment writes into the storage it already has. */
    std::vector<std::uint32_t> emitters;
    TraceBuffer ring;
    Cycles lastTs = 0;
};

} // namespace trace
} // namespace terp

#endif // TERP_TRACE_TRACE_BUFFER_HH
