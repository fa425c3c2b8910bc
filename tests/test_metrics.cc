/**
 * @file
 * Unit tests for src/metrics: the empty-sample conventions, registry
 * registration and kind checking, histogram quantile error bounds
 * against an exact sort, merge commutativity,
 * the JSON/Prometheus exporters, and the end-to-end cross-check that
 * the metrics-derived EW/TEW statistics agree cycle-for-cycle with
 * semantics::EwTracker via the trace auditor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "core/domain.hh"
#include "metrics/export.hh"
#include "metrics/json.hh"
#include "metrics/metric.hh"
#include "metrics/registry.hh"
#include "semantics/ew_tracker.hh"
#include "trace/audit.hh"
#include "workloads/whisper.hh"

using namespace terp;
using namespace terp::metrics;

// --------------------------------------------- empty-sample conventions

TEST(Summary, EmptyConventions)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summary, EmptyAfterReset)
{
    Summary s;
    s.add(7);
    s.reset();
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(LogHistogram, EmptyConventions)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(Gauge, EmptyConventions)
{
    Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_DOUBLE_EQ(g.hwm(), 0.0);
}

// -------------------------------------------------------- basic values

TEST(Summary, TracksCountSumMinMax)
{
    Summary s;
    for (std::uint64_t v : {5u, 2u, 9u, 2u})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_EQ(s.sum(), 18u);
    EXPECT_EQ(s.min(), 2u);
    EXPECT_EQ(s.max(), 9u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
}

TEST(Summary, MergeMatchesCombinedAdds)
{
    Summary a, b, both;
    for (std::uint64_t v : {1u, 100u, 7u}) {
        a.add(v);
        both.add(v);
    }
    for (std::uint64_t v : {3u, 0u}) {
        b.add(v);
        both.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
}

TEST(Gauge, HighWaterMarkSurvivesDrops)
{
    Gauge g;
    g.set(3);
    g.set(11);
    g.set(2);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
    EXPECT_DOUBLE_EQ(g.hwm(), 11.0);
}

TEST(LogHistogram, SmallValuesAreExact)
{
    LogHistogram h;
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    // Values below 2^subBits land in unit buckets: every quantile is
    // exact.
    EXPECT_EQ(h.quantile(0.5), 15u);
    EXPECT_EQ(h.quantile(1.0), 31u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
}

TEST(LogHistogram, ExactStatsOnLargeValues)
{
    LogHistogram h;
    std::uint64_t big = 0xdeadbeefcafeULL;
    h.record(big);
    h.record(3);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), big + 3);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), big);
    // quantile(1) clamps to the exact max even though the bucket is
    // coarse up there.
    EXPECT_EQ(h.quantile(1.0), big);
}

// ------------------------------------------------- quantile error bound

TEST(LogHistogram, QuantileErrorBoundedVsExactSort)
{
    Rng rng(42);
    for (unsigned trial = 0; trial < 4; ++trial) {
        LogHistogram h;
        std::vector<std::uint64_t> vals;
        const std::size_t n = 1000;
        for (std::size_t i = 0; i < n; ++i) {
            // Mix of magnitudes: exercises unit buckets, middle
            // octaves, and large values.
            std::uint64_t v;
            switch (rng.nextBelow(3)) {
              case 0: v = rng.nextBelow(32); break;
              case 1: v = rng.nextBelow(100000); break;
              default: v = rng.next() >> rng.nextBelow(32); break;
            }
            vals.push_back(v);
            h.record(v);
        }
        std::sort(vals.begin(), vals.end());
        for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            // Same rank convention as LogHistogram::quantile.
            std::uint64_t rank = static_cast<std::uint64_t>(
                q * static_cast<double>(n) + 0.9999999);
            rank = std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(rank, n));
            const std::uint64_t exact = vals[rank - 1];
            const std::uint64_t got = h.quantile(q);
            // The bucket upper bound overshoots by at most one
            // sub-bucket width: 2^-subBits relative (1/32), plus one
            // for integer rounding. Compare via subtraction — for
            // samples near 2^64, exact + exact/32 would wrap.
            ASSERT_GE(got, exact) << "q=" << q;
            EXPECT_LE(got - exact, exact / 32 + 1) << "q=" << q;
        }
    }
}

TEST(LogHistogram, MergeIsExactOnStats)
{
    Rng rng(7);
    LogHistogram a, b, both;
    for (unsigned i = 0; i < 500; ++i) {
        std::uint64_t v = rng.next() >> rng.nextBelow(40);
        (i % 2 ? a : b).record(v);
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    for (double q : {0.25, 0.5, 0.75, 0.95})
        EXPECT_EQ(a.quantile(q), both.quantile(q));
}

namespace {

/**
 * The histogram as it was first written: bucket counts kept dense
 * from bucket 0. The model the trimmed LogHistogram must agree with
 * on every public result.
 */
class DenseHistogram
{
  public:
    explicit DenseHistogram(unsigned sub_bits) : subBits(sub_bits) {}

    void
    record(std::uint64_t x)
    {
        const std::size_t i = index(x);
        if (i >= counts.size())
            counts.resize(i + 1, 0);
        ++counts[i];
        stat.add(x);
    }

    void
    merge(const DenseHistogram &o)
    {
        if (o.counts.size() > counts.size())
            counts.resize(o.counts.size(), 0);
        for (std::size_t i = 0; i < o.counts.size(); ++i)
            counts[i] += o.counts[i];
        stat.merge(o.stat);
    }

    std::uint64_t
    quantile(double q) const
    {
        const std::uint64_t n = stat.count();
        if (n == 0)
            return 0;
        std::uint64_t rank = static_cast<std::uint64_t>(
            q * static_cast<double>(n) + 0.9999999);
        rank = std::clamp<std::uint64_t>(rank, 1, n);
        std::uint64_t seen = 0;
        for (std::size_t i = 0;; ++i) {
            seen += counts[i];
            if (seen >= rank)
                return std::clamp(upper(i), stat.min(), stat.max());
        }
    }

    Summary stat;

  private:
    std::size_t
    index(std::uint64_t x) const
    {
        const std::uint64_t sub = 1ULL << subBits;
        if (x < sub)
            return x;
        const unsigned shift = std::bit_width(x) - 1 - subBits;
        return (std::size_t{shift} << subBits) + (x >> shift);
    }

    std::uint64_t
    upper(std::size_t i) const
    {
        const std::uint64_t sub = 1ULL << subBits;
        if (i < sub)
            return i;
        const unsigned shift = static_cast<unsigned>(i >> subBits) - 1;
        return ((sub + (i & (sub - 1)) + 1) << shift) - 1;
    }

    unsigned subBits;
    std::vector<std::uint64_t> counts;
};

/** @p h against @p model: the summary and quantiles across [0, 1]. */
void
expectLike(const LogHistogram &h, const DenseHistogram &model)
{
    EXPECT_EQ(h.count(), model.stat.count());
    EXPECT_EQ(h.sum(), model.stat.sum());
    EXPECT_EQ(h.min(), model.stat.min());
    EXPECT_EQ(h.max(), model.stat.max());
    for (double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                     0.999, 1.0})
        EXPECT_EQ(h.quantile(q), model.quantile(q)) << "q " << q;
}

/** The histogram line toJson prints for @p model, named "h". */
std::string
jsonLine(const DenseHistogram &m)
{
    char mean[40];
    std::snprintf(mean, sizeof mean, "%.17g", m.stat.mean());
    std::ostringstream os;
    os << "\"h\": {\"count\": " << m.stat.count() << ", \"sum\": "
       << m.stat.sum() << ", \"min\": " << m.stat.min() << ", \"max\": "
       << m.stat.max() << ", \"mean\": " << mean << ", \"p50\": "
       << m.quantile(0.5) << ", \"p90\": " << m.quantile(0.9)
       << ", \"p99\": " << m.quantile(0.99) << "}";
    return os.str();
}

} // namespace

/**
 * A histogram keeps only the buckets from its lowest to its highest
 * used one. Random records (clustered at random magnitudes, so the
 * kept range both grows down and up), merges, copies, assignments
 * and resets over a few histograms must leave every one equal to a
 * dense model in count, sum, min, max, every quantile and its JSON
 * export.
 */
TEST(LogHistogram, TrimmedBucketsMatchDenseModel)
{
    for (unsigned sub : {1u, 5u, 9u}) {
        SCOPED_TRACE("sub_bits " + std::to_string(sub));
        Rng rng(1000 + sub);
        constexpr unsigned n = 4;
        std::vector<LogHistogram> hs(n, LogHistogram(sub));
        std::vector<DenseHistogram> ms(n, DenseHistogram(sub));
        for (unsigned step = 0; step < 2000; ++step) {
            const unsigned i = static_cast<unsigned>(rng.nextBelow(n));
            const unsigned j = static_cast<unsigned>(rng.nextBelow(n));
            switch (rng.nextBelow(8)) {
              case 0:
                hs[i].merge(hs[j]);
                ms[i].merge(ms[j]);
                break;
              case 1:
                hs[i] = hs[j];
                ms[i] = ms[j];
                break;
              case 2:
                hs[i] = LogHistogram(hs[j]);
                ms[i] = ms[j];
                break;
              case 3:
                if (rng.nextBelow(4) == 0) {
                    hs[i].reset();
                    ms[i] = DenseHistogram(sub);
                }
                break;
              default: {
                const std::uint64_t center =
                    rng.next() >> rng.nextBelow(64);
                const std::uint64_t spread =
                    (center >> rng.nextBelow(8)) | 1;
                for (unsigned k = 1 + static_cast<unsigned>(
                                          rng.nextBelow(20));
                     k; --k) {
                    const std::uint64_t x =
                        center - std::min(center, spread) +
                        rng.nextBelow(spread);
                    hs[i].record(x);
                    ms[i].record(x);
                }
              }
            }
            expectLike(hs[i], ms[i]);
            if (HasFailure())
                ADD_FAILURE() << "step " << step;
            if (step % 250 == 0 || HasFailure()) {
                for (unsigned k = 0; k < n; ++k) {
                    Registry reg;
                    reg.histogram("h", sub) = hs[k];
                    EXPECT_NE(toJson(reg).find(jsonLine(ms[k])),
                              std::string::npos)
                        << toJson(reg) << "\nwant " << jsonLine(ms[k]);
                }
            }
            if (HasFailure())
                return;
        }
    }
}

// ------------------------------------------------------------- registry

TEST(Registry, GetOrCreateReturnsSameInstrument)
{
    Registry r;
    Counter &c1 = r.counter("a.b");
    c1.inc(3);
    Counter &c2 = r.counter("a.b");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 3u);
    EXPECT_EQ(r.size(), 1u);
}

TEST(Registry, KindClashPanics)
{
    Registry r;
    r.counter("x");
    EXPECT_THROW(r.gauge("x"), std::logic_error);
    EXPECT_THROW(r.histogram("x"), std::logic_error);
}

TEST(Registry, FindIsNullOnAbsentOrWrongKind)
{
    Registry r;
    r.counter("c");
    EXPECT_NE(r.findCounter("c"), nullptr);
    EXPECT_EQ(r.findCounter("nope"), nullptr);
    EXPECT_EQ(r.findGauge("c"), nullptr);
    EXPECT_EQ(r.findHistogram("c"), nullptr);
}

TEST(Registry, LabeledKeepsKeysSorted)
{
    std::string n = labeled("exposure.ew_cycles", "pmo", "3");
    EXPECT_EQ(n, "exposure.ew_cycles{pmo=\"3\"}");
    n = labeled(n, "scheme", "tt");
    EXPECT_EQ(n, "exposure.ew_cycles{pmo=\"3\",scheme=\"tt\"}");
    // Inserting a key that sorts first lands first.
    n = labeled(n, "app", "echo");
    EXPECT_EQ(n,
              "exposure.ew_cycles{app=\"echo\",pmo=\"3\","
              "scheme=\"tt\"}");
    EXPECT_EQ(baseName(n), "exposure.ew_cycles");
    auto ls = nameLabels(n);
    EXPECT_EQ(ls.size(), 3u);
    EXPECT_EQ(ls["pmo"], "3");
    EXPECT_EQ(ls["scheme"], "tt");
}

TEST(Registry, MergeIsCommutative)
{
    auto build = [](std::uint64_t k, const char *scheme) {
        Registry r;
        r.setLabel("scheme", scheme);
        r.counter("ops").inc(10 * k);
        r.gauge("occ").set(static_cast<double>(k));
        r.histogram("lat").record(100 * k);
        return r;
    };
    Registry a = build(1, "tt");
    Registry b = build(2, "mm");

    Registry ab, ba;
    ab.merge(a, nullptr, {"scheme"});
    ab.merge(b, nullptr, {"scheme"});
    ba.merge(b, nullptr, {"scheme"});
    ba.merge(a, nullptr, {"scheme"});
    EXPECT_EQ(toJson(ab), toJson(ba));

    // Injected labels keep the two schemes distinct.
    EXPECT_NE(ab.findCounter("ops{scheme=\"tt\"}"), nullptr);
    EXPECT_NE(ab.findCounter("ops{scheme=\"mm\"}"), nullptr);
    EXPECT_EQ(ab.findCounter("ops"), nullptr);
}

TEST(Registry, MergeKeepFilterDropsNames)
{
    Registry src, dst;
    src.counter("keep.me").inc();
    src.counter("drop.me").inc();
    dst.merge(src, [](const std::string &n) {
        return n.rfind("keep.", 0) == 0;
    });
    EXPECT_NE(dst.findCounter("keep.me"), nullptr);
    EXPECT_EQ(dst.findCounter("drop.me"), nullptr);
}

// ------------------------------------------------------------ exporters

TEST(Export, JsonRoundTripsThroughParser)
{
    Registry r;
    r.setLabel("scheme", "tt");
    r.counter("runtime.ops").inc(12345678901234ULL);
    r.gauge("cb.occupancy").set(7);
    r.histogram("h.lat").record(500);
    r.histogram("h.lat").record(1500);

    std::string error;
    auto doc = parseJson(toJson(r), error);
    ASSERT_NE(doc, nullptr) << error;

    const JsonValue *counters = doc->get("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *ops = counters->get("runtime.ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->asU64(), 12345678901234ULL); // exact via raw text

    const JsonValue *labels = doc->get("labels");
    ASSERT_NE(labels, nullptr);
    EXPECT_EQ(labels->get("scheme")->str, "tt");

    const JsonValue *h = doc->get("histograms")->get("h.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->get("count")->asU64(), 2u);
    EXPECT_EQ(h->get("sum")->asU64(), 2000u);
    EXPECT_EQ(h->get("min")->asU64(), 500u);
    EXPECT_EQ(h->get("max")->asU64(), 1500u);

}

TEST(Export, JsonQuotedRoundTripsEveryControlCharacter)
{
    std::string s = "\"\\/";
    for (char c = 0; c < 0x20; ++c)
        s += c;
    const std::string quoted = jsonQuoted(s);
    for (char c : quoted)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    std::string error;
    std::unique_ptr<JsonValue> v = parseJson(quoted, error);
    ASSERT_NE(v, nullptr) << error;
    EXPECT_EQ(v->str, s);
}

TEST(Export, JsonCountAccessorRejectsNonCounts)
{
    // A count is a whole number in [0, 2^64); anything else is
    // nullopt, never a wrapped or saturated cast.
    const struct
    {
        const char *text;
        std::optional<std::uint64_t> want;
    } cases[] = {
        {"0", 0},
        {"-0", 0},
        {"1e3", 1000},
        {"18446744073709551615", UINT64_MAX},
        {"-1", std::nullopt},
        {"-5", std::nullopt},
        {"1.5", std::nullopt},
        {"1e300", std::nullopt},
        {"1e999", std::nullopt},
        {"18446744073709551616", std::nullopt},
        {"1.8446744073709552e19", std::nullopt},
        {"\"7\"", std::nullopt},
        {"null", std::nullopt},
    };
    for (const auto &c : cases) {
        std::string error;
        auto doc =
            parseJson(std::string("{\"v\": ") + c.text + "}", error);
        ASSERT_NE(doc, nullptr) << c.text << ": " << error;
        EXPECT_EQ(doc->get("v")->asU64(), c.want) << c.text;
    }
}

TEST(Export, JsonParserRejectsMalformedInput)
{
    std::string error;
    EXPECT_EQ(parseJson("{\"a\": }", error), nullptr);
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(parseJson("{} trailing", error), nullptr);
    EXPECT_EQ(parseJson("", error), nullptr);
    EXPECT_NE(parseJson("{\"a\": [1, 2.5, \"x\", null, true]}",
                        error),
              nullptr);
    EXPECT_TRUE(error.empty());

    // Numbers need digits: a lone sign, a bare point, an empty
    // fraction or exponent are all malformed.
    for (const char *bad : {"-", "[-]", "1.", "[1.]", "-.5", ".5", "1e",
                            "1e+", "+1", "[1.e3]"}) {
        EXPECT_EQ(parseJson(bad, error), nullptr) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    for (const char *good : {"-0", "-1.5e+3", "2E-2", "[0.25]"})
        EXPECT_NE(parseJson(good, error), nullptr) << good << error;

    // \u takes exactly four hex digits.
    for (const char *bad : {"\"\\uZZZZ\"", "\"\\u12\"", "\"\\u12G4\""}) {
        EXPECT_EQ(parseJson(bad, error), nullptr) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    std::unique_ptr<JsonValue> e9 = parseJson("\"\\u00e9\"", error);
    ASSERT_NE(e9, nullptr) << error;
    EXPECT_EQ(e9->str, "\xc3\xa9"); // U+00E9 in UTF-8

    // Nesting is capped at 256 levels instead of recursing until the
    // stack runs out.
    auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NE(parseJson(nested(256), error), nullptr) << error;
    EXPECT_EQ(parseJson(nested(257), error), nullptr);
    EXPECT_EQ(error.rfind("nesting too deep at offset ", 0), 0u) << error;
    EXPECT_EQ(parseJson(nested(200000), error), nullptr);
    EXPECT_EQ(error, "nesting too deep at offset 256");
    std::string objects;
    for (int k = 0; k < 200000; ++k)
        objects += "{\"k\":";
    EXPECT_EQ(parseJson(objects, error), nullptr);
    EXPECT_EQ(error.rfind("nesting too deep", 0), 0u) << error;
}

/**
 * Seeded mutation fuzz of the parser terp-stats runs on user files:
 * byte flips, truncations, duplicated spans and long runs of '[' or
 * '{' spliced into a real export. Every input must come back as a
 * value or as null with an error; a crash fails the whole binary.
 */
TEST(Export, JsonParserSurvivesMutatedExports)
{
    Registry r;
    r.setLabel("scheme", "tt");
    r.counter("runtime.full_ops").inc(6982);
    r.gauge("cb.occupancy").set(3);
    for (std::uint64_t v = 1; v < 5000000; v = v * 3 + 7) {
        r.histogram(labeled("exposure.ew_cycles", "pmo", "all"))
            .record(v);
        r.histogram(labeled("exposure.blame_cycles", "cause",
                            "sweeper_lag"))
            .record(v / 2);
    }
    const std::string doc = toJson(r);
    std::string error;
    ASSERT_NE(parseJson(doc, error), nullptr) << error;

    Rng rng(0x15011);
    unsigned rejected = 0;
    constexpr int kMutations = 2000;
    for (int n = 0; n < kMutations; ++n) {
        std::string m = doc;
        const unsigned edits = 1 + static_cast<unsigned>(rng.nextBelow(3));
        for (unsigned e = 0; e < edits && !m.empty(); ++e) {
            std::size_t at = rng.nextBelow(m.size());
            switch (rng.nextBelow(4)) {
              case 0: // flip one byte
                m[at] = static_cast<char>(m[at] ^
                                          (1u << rng.nextBelow(8)));
                break;
              case 1: // truncate
                m.resize(at);
                break;
              case 2: { // duplicate a span in place
                std::size_t len =
                    1 + rng.nextBelow(std::min<std::size_t>(
                            64, m.size() - at));
                m.insert(at, m.substr(at, len));
                break;
              }
              default: { // a run of openers, up to 100k long
                std::size_t len = 1 + rng.nextBelow(100000);
                m.insert(at, len, rng.nextBool(0.5) ? '[' : '{');
                break;
              }
            }
        }
        std::unique_ptr<JsonValue> v = parseJson(m, error);
        if (v) {
            EXPECT_TRUE(error.empty()) << "mutation " << n;
        } else {
            EXPECT_FALSE(error.empty()) << "mutation " << n;
            ++rejected;
        }
    }
    // Most mutations break the document; the fuzz is not vacuous.
    EXPECT_GT(rejected, kMutations / 2);
}

TEST(Export, PrometheusFormat)
{
    Registry r;
    r.setLabel("scheme", "tt");
    r.counter("runtime.attach_syscalls").inc(3);
    r.gauge("cb.occupancy").set(4);
    r.histogram(labeled("exposure.ew_cycles", "pmo", "all"))
        .record(88000);

    std::string prom = toPrometheus(r);
    EXPECT_NE(prom.find("# TYPE terp_runtime_attach_syscalls "
                        "counter\n"),
              std::string::npos);
    EXPECT_NE(
        prom.find("terp_runtime_attach_syscalls{scheme=\"tt\"} 3\n"),
        std::string::npos);
    EXPECT_NE(prom.find("terp_cb_occupancy_hwm{scheme=\"tt\"} 4\n"),
              std::string::npos);
    // Histogram: name labels merge with registry labels, quantile
    // series plus exact _count/_sum/_max.
    EXPECT_NE(prom.find("terp_exposure_ew_cycles_count{pmo=\"all\","
                        "scheme=\"tt\"} 1\n"),
              std::string::npos);
    EXPECT_NE(prom.find("quantile=\"0.5\""), std::string::npos);
}

// --------------------------------------- end-to-end EwTracker agreement

/**
 * The acceptance check of the metrics subsystem: on a real WHISPER
 * run, the exposure histograms published through the registry must
 * agree with the trace auditor's independent replay — which the
 * audit itself verifies cycle-for-cycle against semantics::EwTracker
 * — on the exact count/sum/min/max of every window population, and
 * the silent fraction must be reproducible from the published
 * integer counters bit-for-bit.
 */
TEST(MetricsEndToEnd, AgreesWithEwTrackerOnWhisperRun)
{
    workloads::WhisperParams p;
    p.sections = 80;
    workloads::RunResult r = workloads::runWhisper(
        "hashmap", core::RuntimeConfig::tt().withTrace(), p);

    ASSERT_NE(r.metrics, nullptr)
        << "run published no metrics registry";
    ASSERT_NE(r.traceAudit, nullptr);
    ASSERT_TRUE(r.traceAudit->ok) << r.traceAudit->summary();

    using Tally = trace::AuditReport::PmoTally;
    const struct
    {
        const char *base;
        Summary Tally::*want;
    } sides[] = {
        {"exposure.ew_cycles", &Tally::ew},
        {"exposure.tew_cycles", &Tally::tew},
    };
    for (const auto &side : sides) {
        ASSERT_GT(r.traceAudit->pmosWith(side.want), 0u);
        Summary all;
        for (std::size_t pmo = 0; pmo < r.traceAudit->pmos.size(); ++pmo) {
            const Summary &tally = r.traceAudit->pmos[pmo].*side.want;
            if (tally.count() == 0)
                continue;
            const LogHistogram *h = r.metrics->findHistogram(
                labeled(side.base, "pmo", std::to_string(pmo)));
            ASSERT_NE(h, nullptr) << side.base << " pmo " << pmo;
            EXPECT_EQ(h->count(), tally.count()) << side.base;
            EXPECT_EQ(h->sum(), tally.sum()) << side.base;
            EXPECT_EQ(h->min(), tally.min()) << side.base;
            EXPECT_EQ(h->max(), tally.max()) << side.base;
            all.merge(tally);
        }
        const LogHistogram *h = r.metrics->findHistogram(
            labeled(side.base, "pmo", "all"));
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->count(), all.count());
        EXPECT_EQ(h->sum(), all.sum());
        EXPECT_EQ(h->min(), all.min());
        EXPECT_EQ(h->max(), all.max());
    }

    const Counter *silent =
        r.metrics->findCounter("runtime.silent_ops");
    const Counter *full = r.metrics->findCounter("runtime.full_ops");
    ASSERT_NE(silent, nullptr);
    ASSERT_NE(full, nullptr);
    const std::uint64_t s = silent->value(), f = full->value();
    ASSERT_GT(s + f, 0u);
    EXPECT_EQ(static_cast<double>(s) / static_cast<double>(s + f),
              r.report.silentFraction);

    // Registry labels identify the run.
    EXPECT_EQ(r.metrics->labels().at("scheme"), "tt");
    EXPECT_EQ(r.metrics->labels().at("workload"), "hashmap");
}

TEST(MetricsEndToEnd, DisabledConfigYieldsNoRegistry)
{
    workloads::WhisperParams p;
    p.sections = 5;
    workloads::RunResult r = workloads::runWhisper(
        "echo", core::RuntimeConfig::tt().withoutMetrics(), p);
    EXPECT_EQ(r.metrics, nullptr);
}

// ------------------------------------- EwTracker instrument handles

namespace {

/** Closed-window count of @p name in @p r (0 when absent). */
std::uint64_t
histCount(const Registry &r, const std::string &name)
{
    const LogHistogram *h = r.findHistogram(name);
    return h ? h->count() : 0;
}

/** Value of counter @p name in @p r (0 when absent). */
std::uint64_t
counterValue(const Registry &r, const std::string &name)
{
    const Counter *c = r.findCounter(name);
    return c ? c->value() : 0;
}

/** One process window [t, t + len) held by thread 0 throughout. */
void
heldWindow(semantics::EwTracker &t, pm::PmoId pmo, Cycles at, Cycles len)
{
    t.processOpen(pmo, at);
    t.threadOpen(0, pmo, at);
    t.threadClose(0, pmo, at + len);
    t.processClose(pmo, at + len);
}

std::string
tenantBlame(const std::string &tenant)
{
    return labeled(labeled("exposure.blame_total", "cause", "app_hold"),
                   "tenant", tenant);
}

} // namespace

TEST(EwTrackerHandles, TenantChangeMovesLaterBlameOnly)
{
    Registry r;
    semantics::EwTracker t;
    t.enableMetrics(&r);
    t.setTenant(0, "alpha");
    heldWindow(t, 0, 0, 100);
    t.setTenant(0, "beta");
    heldWindow(t, 0, 200, 30);
    heldWindow(t, 0, 300, 20);

    EXPECT_EQ(counterValue(r, tenantBlame("alpha")), 100u);
    EXPECT_EQ(counterValue(r, tenantBlame("beta")), 50u);
    EXPECT_EQ(counterValue(r, labeled("exposure.blame_total", "cause",
                                      "app_hold")),
              150u);

    // Clearing the tenant stops per-tenant counting altogether.
    t.setTenant(0, "");
    heldWindow(t, 0, 400, 7);
    EXPECT_EQ(counterValue(r, tenantBlame("alpha")), 100u);
    EXPECT_EQ(counterValue(r, tenantBlame("beta")), 50u);
    EXPECT_EQ(r.findCounter(tenantBlame("")), nullptr);
}

TEST(EwTrackerHandles, FreshRegistryTakesLaterWindowsOnly)
{
    Registry first, second;
    semantics::EwTracker t;
    t.setSlo(5, 5);
    t.setTenant(0, "alpha");
    t.enableMetrics(&first);
    heldWindow(t, 0, 0, 10);

    t.enableMetrics(&second);
    heldWindow(t, 0, 100, 10);
    heldWindow(t, 0, 200, 10);

    // Every instrument class a close touches: per-PMO and "all"
    // histograms, both SLO counters, cause and tenant blame.
    const std::string names[] = {
        labeled("exposure.ew_cycles", "pmo", "0"),
        labeled("exposure.ew_cycles", "pmo", "all"),
        labeled("exposure.tew_cycles", "pmo", "0"),
        labeled("exposure.tew_cycles", "pmo", "all"),
        labeled("exposure.blame_cycles", "cause", "app_hold"),
    };
    for (const std::string &n : names) {
        EXPECT_EQ(histCount(first, n), 1u) << n;
        EXPECT_EQ(histCount(second, n), 2u) << n;
    }
    const std::string counters[] = {
        "exposure.slo_violations{win=\"ew\"}",
        "exposure.slo_violations{win=\"tew\"}",
    };
    for (const std::string &n : counters) {
        EXPECT_EQ(counterValue(first, n), 1u) << n;
        EXPECT_EQ(counterValue(second, n), 2u) << n;
    }
    EXPECT_EQ(counterValue(first, tenantBlame("alpha")), 10u);
    EXPECT_EQ(counterValue(second, tenantBlame("alpha")), 20u);

    // Detaching stops recording without touching either registry.
    t.enableMetrics(nullptr);
    heldWindow(t, 0, 300, 10);
    EXPECT_EQ(histCount(second, names[0]), 2u);
    EXPECT_EQ(t.ewSummaryFor(0)->count(), 4u);
}

TEST(EwTrackerHandles, RunThatClosesNoWindowExportsNoExposure)
{
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::tt();
    dc.machine.cores = 1;
    core::ShardDomain dom(dc);
    dom.pmos().create("idle", 64 * KiB);
    dom.machine().spawnThread();
    dom.sweepTo(10 * dom.machine().config().hookPeriod);
    dom.finalize();

    std::shared_ptr<Registry> r = dom.runtime().metricsRegistry();
    ASSERT_NE(r, nullptr) << "run published no metrics registry";
    ASSERT_NE(r->findCounter("sweeper.ticks"), nullptr);
    for (const auto &[name, e] : r->entries())
        EXPECT_NE(baseName(name).rfind("exposure.", 0), 0u) << name;
}

// ------------------------------ Prometheus label-value escaping

namespace {

/**
 * Parse one exposition line's label set back out, undoing the
 * quoted-string escapes (\\, \", \n). Returns key -> value.
 */
std::map<std::string, std::string>
parsePromLabels(const std::string &line)
{
    std::map<std::string, std::string> out;
    std::size_t open = line.find('{');
    if (open == std::string::npos)
        return out;
    std::size_t i = open + 1;
    while (i < line.size() && line[i] != '}') {
        std::size_t eq = line.find('=', i);
        std::string key = line.substr(i, eq - i);
        EXPECT_EQ(line[eq + 1], '"');
        std::string val;
        std::size_t j = eq + 2;
        for (; j < line.size() && line[j] != '"'; ++j) {
            if (line[j] == '\\' && j + 1 < line.size()) {
                char n = line[++j];
                val += n == 'n' ? '\n' : n;
            } else {
                val += line[j];
            }
        }
        out[key] = val;
        i = j + 1;
        if (i < line.size() && line[i] == ',')
            ++i;
    }
    return out;
}

} // namespace

TEST(PromExport, HostileLabelValuesRoundTrip)
{
    metrics::Registry reg;
    // A tenant name with every character the exposition format's
    // quoted strings require escaping for: backslash, double quote,
    // newline (plus a comma and braces, which need none but must
    // not confuse the line structure).
    std::string hostile = "ev\\il\"te,na}nt\nx{";
    reg.counter(metrics::labeled("serve.shed", "tenant", hostile))
        .inc(7);
    std::string text = metrics::toPrometheus(reg);

    // The exposition must stay line-structured: exactly one # TYPE
    // line and one sample line — the newline in the value must not
    // produce a third.
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string l; std::getline(is, l);)
        lines.push_back(l);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "# TYPE terp_serve_shed counter");

    auto ls = parsePromLabels(lines[1]);
    ASSERT_EQ(ls.count("tenant"), 1u);
    EXPECT_EQ(ls["tenant"], hostile);
    EXPECT_EQ(lines[1].substr(lines[1].rfind(' ') + 1), "7");
}
