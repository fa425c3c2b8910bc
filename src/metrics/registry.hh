/**
 * @file
 * The metrics registry: a named collection of Counter / Gauge /
 * LogHistogram instruments with label support and cross-run merging.
 *
 * Ownership and threading model: each Runtime owns one Registry and
 * is driven by one host thread, so registration and recording are
 * unsynchronized. The benchmark harness aggregates finished runs by
 * merging whole registries into a process-global one under its own
 * lock (bench::globalMetrics()); every merge operation is
 * commutative — counters and histograms add, gauges take the
 * max — so the aggregate is identical for every --jobs=N work-steal
 * order, preserving the suite's determinism invariant.
 *
 * Naming scheme (see DESIGN.md §11): dot-separated lowercase paths,
 * `subsystem.metric_name`, with optional labels appended in
 * Prometheus style: `exposure.ew_cycles{pmo="3"}`. The labeled()
 * helper inserts a label keeping keys sorted, so a name is a
 * canonical string key. Registry-wide labels (scheme, workload)
 * apply to every instrument at export time.
 */

#ifndef TERP_METRICS_REGISTRY_HH
#define TERP_METRICS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/metric.hh"

namespace terp {
namespace metrics {

/** What an Entry holds. */
enum class Kind
{
    Counter,
    Gauge,
    Histogram,
};

const char *kindName(Kind k);

/**
 * Escape a label value for a quoted `k="v"` pair: backslash, double
 * quote and newline, the scheme of the Prometheus exposition format,
 * used both inside serialized metric names and in the exposition.
 * Values come from PMO / tenant names, which callers control — a
 * hostile value must not break the `{k="v",...}` structure.
 */
std::string labelEscape(const std::string &s);

/**
 * Insert `key="value"` into @p name's label set, keeping label keys
 * sorted so equal label sets always produce the same string.
 * `labeled("a.b", "pmo", "3")` -> `a.b{pmo="3"}`;
 * `labeled("a.b{pmo=\"3\"}", "scheme", "tt")` ->
 * `a.b{pmo="3",scheme="tt"}`.
 */
std::string labeled(const std::string &name, const std::string &key,
                    const std::string &value);

/** The base part of @p name (everything before '{'). */
std::string baseName(const std::string &name);

/**
 * The parsed label set of @p name (empty if unlabeled). Throws
 * std::invalid_argument when the `{k="v",...}` part does not parse.
 */
std::map<std::string, std::string> nameLabels(const std::string &name);

/** A single-writer metrics registry. */
class Registry
{
  public:
    /** One named instrument. Exactly the member for `kind` is live. */
    struct Entry
    {
        Kind kind = Kind::Counter;
        Counter counter;
        Gauge gauge;
        std::optional<LogHistogram> hist; //!< only for Histogram
    };

    /** An entry with its name. */
    using Item = std::pair<std::string, Entry>;

    /**
     * A handle on an entry: its index in creation order. A copy of a
     * registry, and a registry assigned from another, holds every
     * entry at the index it had there, so a handle taken in one
     * registry names the same instrument in each copy (an EwTracker
     * copied with its world keeps its handles).
     */
    using Id = std::uint32_t;
    static constexpr Id noId = ~Id(0);

    Registry() = default;
    /** A copy: the same entries, at the same Ids. */
    Registry(const Registry &o) { *this = o; }
    Registry(Registry &&) noexcept = default;
    /**
     * Take @p o's entries at @p o's Ids, writing into the entries
     * this registry already holds (an entry keeps its address while
     * it keeps its Id). Entries past o's stay as spares, which the
     * next entries created here are written into.
     */
    Registry &operator=(const Registry &o);
    Registry &operator=(Registry &&) noexcept = default;

    // ---- registration (get-or-create; panics on a kind clash) ------

    Id counterId(const std::string &name);
    Id gaugeId(const std::string &name);
    Id histogramId(const std::string &name,
                   unsigned sub_bits = LogHistogram::defaultSubBits);

    Counter &counterAt(Id id) { return items[id]->second.counter; }
    Gauge &gaugeAt(Id id) { return items[id]->second.gauge; }
    LogHistogram &histogramAt(Id id) { return *items[id]->second.hist; }

    Counter &counter(const std::string &name)
    {
        return counterAt(counterId(name));
    }
    Gauge &gauge(const std::string &name) { return gaugeAt(gaugeId(name)); }
    LogHistogram &
    histogram(const std::string &name,
              unsigned sub_bits = LogHistogram::defaultSubBits)
    {
        return histogramAt(histogramId(name, sub_bits));
    }

    // ---- lookup (null when absent or of another kind) ---------------

    const Counter *findCounter(std::string_view name) const;
    const Gauge *findGauge(std::string_view name) const;
    const LogHistogram *findHistogram(std::string_view name) const;

    /**
     * findHistogram(@p name) through a handle @p id its caller keeps:
     * read at @p id while the entry there carries @p name, else found
     * by name, with @p id set to its Id (noId when absent, so a later
     * call looks again). A copy of a registry may hold another
     * instrument at an Id the copy created; the name check keeps a
     * handle taken in one copy from reading that one.
     */
    const LogHistogram *findHistogram(std::string_view name, Id &id) const;

    /** All entries, ascending by name (deterministic export order). */
    auto
    entries() const
    {
        return std::views::transform(
            order, [this](Id id) -> const Item & { return *items[id]; });
    }

    std::size_t size() const { return items.size(); }

    // ---- registry-wide labels ---------------------------------------

    void setLabel(const std::string &key, const std::string &value);
    const std::map<std::string, std::string> &labels() const
    {
        return tags;
    }

    // ---- cross-run aggregation --------------------------------------

    /**
     * Fold @p other into this registry. Same-named instruments merge
     * per their type (add / max); new names are created. @p keep, if
     * given, filters source entries by name; @p inject_labels lists
     * keys of @p other's registry labels to bake into each merged
     * name (e.g. "scheme", so runs of different schemes stay
     * distinct in the aggregate).
     */
    void merge(const Registry &other,
               const std::function<bool(const std::string &)> &keep =
                   nullptr,
               const std::vector<std::string> &inject_labels = {});

  private:
    /** @p sub_bits: a new histogram's resolution. */
    Id getOrCreate(const std::string &name, Kind kind,
                   unsigned sub_bits = LogHistogram::defaultSubBits);
    const Entry *find(std::string_view name, Kind kind) const;
    /** An entry to write into: a spare, or a new one. */
    std::unique_ptr<Item> takeSpare();
    /** The first position of `order` whose name is not below @p name. */
    std::vector<Id>::const_iterator lowerBound(std::string_view name) const;

    /** By Id; each on its own, so an instrument never moves. */
    std::vector<std::unique_ptr<Item>> items;
    /** Entries an assignment dropped, kept for the next ones created. */
    std::vector<std::unique_ptr<Item>> spares;
    std::vector<Id> order; //!< Ids ascending by name
    std::map<std::string, std::string> tags;
};

/**
 * Scoped host-wall-clock timer recording elapsed nanoseconds into a
 * LogHistogram on destruction. Pass null to make it a no-op (the
 * disabled-metrics mode). Host time never feeds simulated state, so
 * profiling hooks cannot perturb simulation results.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(LogHistogram *h);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    LogHistogram *hist;
    std::uint64_t t0 = 0; //!< steady_clock ns at construction
};

} // namespace metrics
} // namespace terp

#endif // TERP_METRICS_REGISTRY_HH
