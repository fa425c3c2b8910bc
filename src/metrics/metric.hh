/**
 * @file
 * Core metric value types: cheap single-writer counters and gauges,
 * the canonical count/sum/min/max summary, and a log-bucketed
 * (HDR-style) histogram with bounded-relative-error quantiles.
 *
 * These are the primitive instruments every subsystem publishes
 * through the metrics::Registry. They are deliberately unsynchronized
 * — each simulated run is driven by exactly one host thread, so the
 * hot-path cost of recording is a handful of ALU ops and one or two
 * cache lines. Cross-run aggregation (tools/terp-bench --jobs=N)
 * happens by merging whole per-run registries under the registry's
 * lock, never by sharing instruments between host threads.
 *
 * Empty-sample conventions (unit-tested, relied on by the trace
 * auditor and the exporters): with no recorded samples, min() == 0,
 * max() == 0, mean() == 0.0 and quantile(q) == 0 for every q. The
 * old ad-hoc copies of these types disagreed on min(); the EwTracker,
 * the spec oracle and the trace auditor all use Summary from here.
 */

#ifndef TERP_METRICS_METRIC_HH
#define TERP_METRICS_METRIC_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"

namespace terp {
namespace metrics {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { v += by; }
    std::uint64_t value() const { return v; }
    void reset() { v = 0; }

    /** Fold another counter in (cross-run aggregation). */
    void merge(const Counter &o) { v += o.v; }

  private:
    std::uint64_t v = 0;
};

/**
 * Point-in-time level with a high-water mark. set() tracks the
 * maximum ever set, so occupancy-style metrics keep their peak even
 * after the level drops back.
 */
class Gauge
{
  public:
    void
    set(double x)
    {
        v = x;
        if (!any || x > hi)
            hi = x;
        any = true;
    }

    double value() const { return any ? v : 0.0; }
    double hwm() const { return any ? hi : 0.0; }

    /**
     * Gauges merge by maximum (of both level and high-water mark):
     * the only cross-run combination that is independent of merge
     * order, which the deterministic terp-bench aggregation requires.
     */
    void
    merge(const Gauge &o)
    {
        if (!o.any)
            return;
        if (!any || o.v > v)
            v = o.v;
        if (!any || o.hi > hi)
            hi = o.hi;
        any = true;
    }

  private:
    double v = 0.0;
    double hi = 0.0;
    bool any = false;
};

/**
 * Running scalar summary (count / sum / min / max / mean) over
 * uint64 samples such as exposure-window lengths in cycles.
 *
 * This is the one canonical Summary: semantics::EwTracker, the
 * Section-IV differential oracle and the trace auditor's per-PMO
 * window tallies all use this type, so their cross-checks compare
 * like with like.
 */
class Summary
{
  public:
    void
    add(std::uint64_t x)
    {
        ++n;
        total += x;
        lo = x < lo ? x : lo;
        hi = x > hi ? x : hi;
    }

    std::uint64_t count() const { return n; }
    std::uint64_t sum() const { return total; }
    std::uint64_t min() const { return n ? lo : 0; }
    std::uint64_t max() const { return n ? hi : 0; }

    double
    mean() const
    {
        return n ? static_cast<double>(total) / static_cast<double>(n)
                 : 0.0;
    }

    void
    reset()
    {
        n = 0;
        total = 0;
        lo = std::numeric_limits<std::uint64_t>::max();
        hi = 0;
    }

    void
    merge(const Summary &o)
    {
        n += o.n;
        total += o.total;
        lo = o.lo < lo ? o.lo : lo;
        hi = o.hi > hi ? o.hi : hi;
    }

  private:
    std::uint64_t n = 0;
    std::uint64_t total = 0;
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
};

/**
 * Log-bucketed histogram over uint64 samples (HDR-histogram style).
 *
 * Values below 2^subBits land in exact unit-width buckets; larger
 * values share one bucket per (octave, sub-bucket) pair, where each
 * octave [2^k, 2^(k+1)) is split into 2^subBits linear sub-buckets.
 * quantile() therefore has bounded relative error 2^-subBits
 * (~3.1% at the default subBits = 5), while count/sum/min/max are
 * exact — which is what lets the metrics-derived EW/TEW summaries be
 * cross-checked cycle-for-cycle against semantics::EwTracker.
 *
 * record() costs a handful of ALU ops (bit_width + shift + add) and
 * touches one counter slot. Only the buckets from the lowest to the
 * highest one used are kept (at most ~2 KiB for the full 64-bit range
 * at subBits = 5), so a histogram of windows that all lie within a
 * few octaves is tens of words, and so is its copy.
 */
class LogHistogram
{
  public:
    /** Default sub-bucket resolution: 32 per octave, <=3.125% error. */
    static constexpr unsigned defaultSubBits = 5;

    explicit LogHistogram(unsigned sub_bits = defaultSubBits)
        : subBits(sub_bits), subCount(1u << sub_bits)
    {
        TERP_ASSERT(sub_bits >= 1 && sub_bits <= 16,
                    "LogHistogram: sub_bits out of range");
    }

    void
    record(std::uint64_t x)
    {
        ++bucket(bucketIndex(x));
        stat.add(x);
    }

    std::uint64_t count() const { return stat.count(); }
    std::uint64_t sum() const { return stat.sum(); }
    std::uint64_t min() const { return stat.min(); }
    std::uint64_t max() const { return stat.max(); }
    double mean() const { return stat.mean(); }
    const Summary &summary() const { return stat; }
    unsigned subBucketBits() const { return subBits; }

    /**
     * Value at quantile @p q in [0, 1]: the smallest recorded-bucket
     * upper bound whose cumulative count reaches ceil(q * n), clamped
     * to the exact [min, max] — so quantile(0) >= min() and
     * quantile(1) == max() exactly. Returns 0 on an empty histogram.
     */
    std::uint64_t
    quantile(double q) const
    {
        TERP_ASSERT(q >= 0.0 && q <= 1.0,
                    "LogHistogram: quantile out of [0,1]");
        const std::uint64_t n = stat.count();
        if (n == 0)
            return 0;
        std::uint64_t rank = static_cast<std::uint64_t>(
            q * static_cast<double>(n) + 0.9999999);
        if (rank < 1)
            rank = 1;
        if (rank > n)
            rank = n;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            seen += counts[i];
            if (seen >= rank) {
                std::uint64_t v = bucketUpperBound(base + i);
                if (v > stat.max())
                    v = stat.max();
                if (v < stat.min())
                    v = stat.min();
                return v;
            }
        }
        return stat.max(); // unreachable: seen sums to n
    }

    void
    reset()
    {
        counts.clear();
        base = 0;
        stat.reset();
    }

    /** Fold another histogram in (must share sub-bucket resolution). */
    void
    merge(const LogHistogram &o)
    {
        TERP_ASSERT(o.subBits == subBits,
                    "LogHistogram: merge with different resolution");
        for (std::size_t i = 0; i < o.counts.size(); ++i)
            bucket(o.base + i) += o.counts[i];
        stat.merge(o.stat);
    }

  private:
    /** Bucket @p i's count, widening the kept range to hold it. */
    std::uint64_t &
    bucket(std::size_t i)
    {
        if (counts.empty()) {
            base = i;
        } else if (i < base) {
            counts.insert(counts.begin(), base - i, 0);
            base = i;
        }
        if (i - base >= counts.size())
            counts.resize(i - base + 1, 0);
        return counts[i - base];
    }

    std::size_t
    bucketIndex(std::uint64_t x) const
    {
        if (x < subCount)
            return static_cast<std::size_t>(x);
        // 2^octave <= x < 2^(octave+1), octave >= subBits.
        const unsigned octave = std::bit_width(x) - 1;
        const unsigned shift = octave - subBits;
        // (x >> shift) is in [subCount, 2*subCount).
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(shift) << subBits) +
            (x >> shift));
    }

    /** Largest value mapping to bucket @p i. */
    std::uint64_t
    bucketUpperBound(std::size_t i) const
    {
        if (i < subCount)
            return static_cast<std::uint64_t>(i);
        // bucketIndex packs i = shift*subCount + (x >> shift) with
        // (x >> shift) in [subCount, 2*subCount), so i / subCount
        // overshoots the shift by exactly one.
        const unsigned shift = static_cast<unsigned>(i >> subBits) - 1;
        const std::uint64_t sub = subCount + (i & (subCount - 1));
        return ((sub + 1) << shift) - 1;
    }

    unsigned subBits;
    std::uint64_t subCount;
    std::size_t base = 0; //!< the bucket counts[0] holds
    std::vector<std::uint64_t> counts; //!< buckets base, base + 1, ...
    Summary stat;
};

} // namespace metrics
} // namespace terp

#endif // TERP_METRICS_METRIC_HH
