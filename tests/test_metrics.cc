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
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "metrics/export.hh"
#include "metrics/json.hh"
#include "metrics/metric.hh"
#include "metrics/registry.hh"
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
        r.summary("s").add(k);
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
    r.summary("s.windows").add(10);
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
        << "metrics disabled (TERP_METRICS set?)";
    ASSERT_NE(r.traceAudit, nullptr);
    ASSERT_TRUE(r.traceAudit->ok) << r.traceAudit->summary();

    const struct
    {
        const char *base;
        const std::map<std::uint64_t, trace::WindowTally> &want;
    } sides[] = {
        {"exposure.ew_cycles", r.traceAudit->ew},
        {"exposure.tew_cycles", r.traceAudit->tew},
    };
    for (const auto &side : sides) {
        ASSERT_FALSE(side.want.empty());
        Summary all;
        for (const auto &[pmo, tally] : side.want) {
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
