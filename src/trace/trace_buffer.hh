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
 *   - memory grows with use up to a fixed cap: a buffer's events
 *     live in chunks allocated as events arrive, each at most twice
 *     the size of the one before, so a short run pays for the events
 *     it emits, not for the capacity; past capacity the oldest events
 *     are dropped and counted in an explicit drop counter — recent
 *     history survives, and consumers (the auditor) can tell a
 *     complete trace from a truncated one;
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
 * Fixed-capacity drop-oldest ring buffer of events: it retains the
 * last capacity() events pushed, oldest first.
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
        return *this;
    }

    /** Append; drops the oldest retained event when full. */
    void
    push(const Event &e)
    {
        if (!own || runs.back().end == ownSize)
            startChunk();
        own[runs.back().end++] = e;
        if (++writes > cap && ++runs.front().begin == runs.front().end)
            runs.erase(runs.begin());
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
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(std::min<std::uint64_t>(writes, cap));
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

    /** Per-thread buffers, ascending by (pseudo-)tid. */
    using Buffers = std::vector<std::pair<std::uint32_t, TraceBuffer>>;

    /** Per-thread buffers, ascending by (pseudo-)tid. */
    const Buffers &
    buffers() const
    {
        return perThread;
    }

    /** All retained events merged into emission (seq) order. */
    std::vector<Event> merged() const { return mergedSince(0); }

    /**
     * The retained events whose seq is at least @p seq, merged into
     * emission order: what a reader that has seen every event before
     * @p seq has yet to see.
     */
    std::vector<Event>
    mergedSince(std::uint64_t seq) const
    {
        std::vector<Event> out;
        appendMergedSince(seq, out);
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
    void
    appendMergedSince(std::uint64_t seq, std::vector<Event> &out) const
    {
        // At most the events emitted since seq, and the retained ones.
        std::size_t n = 0;
        for (const auto &[tid, buf] : perThread) {
            (void)tid;
            n += buf.size();
        }
        if (seq < nextSeq)
            out.reserve(out.size() +
                        std::min<std::uint64_t>(n, nextSeq - seq));
        // A buffer holds its events in emission order, so merging
        // each buffer's run into the runs before it keeps seq order.
        for (const auto &[tid, buf] : perThread) {
            (void)tid;
            const auto mid = static_cast<std::ptrdiff_t>(out.size());
            buf.forEachSince(seq, [&out](const Event &e) { out.push_back(e); });
            std::inplace_merge(out.begin(), out.begin() + mid, out.end(),
                               [](const Event &a, const Event &b) {
                                   return a.seq < b.seq;
                               });
        }
    }

    TraceBuffer &
    bufferFor(std::uint32_t tid)
    {
        auto it = std::lower_bound(
            perThread.begin(), perThread.end(), tid,
            [](const auto &b, std::uint32_t t) { return b.first < t; });
        if (it == perThread.end() || it->first != tid)
            it = perThread.emplace(it, tid, TraceBuffer(cap));
        return it->second;
    }

    std::size_t cap;
    /** A few threads and pseudo-threads: a flat table, whose
     *  assignment writes into the buffers it already has. */
    Buffers perThread;
    std::uint64_t nextSeq = 0;
    Cycles lastTs = 0;
};

} // namespace trace
} // namespace terp

#endif // TERP_TRACE_TRACE_BUFFER_HH
