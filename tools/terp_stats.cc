/**
 * @file
 * terp-stats — the security-posture reporter: turns a metrics
 * registry (live from a run, or loaded back from a JSON export) into
 * a one-page report of the numbers the paper's evaluation cares
 * about — exposure-window percentiles, silent-operation fractions,
 * sweeper and circular-buffer activity, persistence-substrate work.
 *
 * Usage:
 *   terp-stats run <workload> <scheme> [--sections=N] [--seed=N]
 *   terp-stats --from=FILE
 *   terp-stats --diff A B
 *
 * Sources:
 *   run <workload> <scheme>  simulate one WHISPER workload (echo,
 *                            ycsb, tpcc, ctree, hashmap, redis) under
 *                            a scheme tag (unprotected, mm, tm, tt,
 *                            ttnc, basic) with tracing enabled, then
 *                            cross-check the metrics-derived EW/TEW
 *                            statistics cycle-for-cycle against the
 *                            trace auditor's independent replay and
 *                            the runtime's silent fraction (exit 1 on
 *                            any disagreement)
 *   --from=FILE              load a metrics JSON export — either a
 *                            bare registry document or a
 *                            BENCH_terp.json with a "metrics" member
 *   --diff A B               compare two metrics files; print every
 *                            changed value and exit 1 on differences
 *
 * Outputs (with run or --from):
 *   (default)                the one-page report
 *   --json                   re-emit the registry as JSON
 *   --prom                   emit the Prometheus text format
 *   --golden=FILE            compare against a checked-in golden
 *                            (exit 1 on drift); host.* metrics are
 *                            excluded — they are wall-clock noise
 *   --write-golden=FILE      write the golden
 *
 * A flag's value may follow '=' or come as the next argument
 * (`--seed=7` or `--seed 7`); tools/cli.hh holds the value, usage
 * and golden rules all seven tools share.
 *
 * Exit status: 0 on success, 1 on cross-check failure, golden drift
 * or (for --diff) any difference, 2 on usage/IO errors.
 */

#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hh"
#include "metrics/export.hh"
#include "metrics/json.hh"
#include "metrics/registry.hh"
#include "trace/audit.hh"
#include "workloads/whisper.hh"

using namespace terp;

namespace {

// ------------------------------------------------------- flat document

/** The per-name statistics of a histogram export. */
struct DistStat
{
    std::uint64_t count = 0, sum = 0, min = 0, max = 0;
    std::uint64_t p50 = 0, p90 = 0, p99 = 0;
    double mean = 0.0;
};

/**
 * A metrics registry flattened to plain maps — the common shape the
 * report, golden and diff code works on whether the numbers came
 * from a live Registry or a JSON file.
 */
struct Doc
{
    std::map<std::string, std::string> labels;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::pair<double, double>> gauges;
    std::map<std::string, DistStat> dists; //!< histograms
};

/**
 * @p v as a count (0 when absent). Anything but a whole number in
 * [0, 2^64) throws std::range_error naming the metric at @p where.
 */
std::uint64_t
countOf(const metrics::JsonValue *v, const std::string &where)
{
    if (!v)
        return 0;
    std::optional<std::uint64_t> n = v->asU64();
    if (!n)
        throw std::range_error(where + ": not a count in [0, 2^64): " +
                               (v->isNumber() ? v->raw : "not a number"));
    return *n;
}

/**
 * @p name, a metric of @p section; throws std::runtime_error unless
 * its label set parses, so the report never meets a malformed one.
 */
const std::string &
checkedName(const char *section, const std::string &name)
{
    try {
        (void)metrics::nameLabels(name);
    } catch (const std::invalid_argument &) {
        throw std::runtime_error(std::string(section) + "." + name +
                                 ": malformed labels");
    }
    return name;
}

/** @p v, the entry at @p where; throws unless it is an object. */
const metrics::JsonValue &
objectAt(const metrics::JsonValue &v, const std::string &where)
{
    if (!v.isObject())
        throw std::runtime_error(where + ": not an object");
    return v;
}

/** The entries of @p reg's @p section (none when it is absent). */
const std::map<std::string, metrics::JsonValue> &
entriesOf(const metrics::JsonValue &reg, const char *section)
{
    static const std::map<std::string, metrics::JsonValue> none;
    const metrics::JsonValue *s = reg.get(section);
    return s ? objectAt(*s, section).object : none;
}

/** @p v as a real (0 when absent); throws unless it is a number. */
double
numberOf(const metrics::JsonValue *v, const std::string &where)
{
    if (v && !v->isNumber())
        throw std::runtime_error(where + ": not a number");
    return v ? v->number : 0.0;
}

/**
 * Fill @p doc from a registry document. A section or entry of the
 * wrong JSON type throws std::runtime_error naming it
 * (`<section>.<name>: ...`), never reads as zero.
 */
bool
docFromJson(const metrics::JsonValue &root, Doc &doc,
            std::string &error)
{
    // A BENCH_terp.json wraps the registry in a "metrics" member; a
    // bare export is the registry document itself.
    const metrics::JsonValue *reg = root.get("metrics");
    if (!reg)
        reg = &root;
    if (!reg->isObject()) {
        error = "no metrics object found";
        return false;
    }

    for (const auto &[k, v] : entriesOf(*reg, "labels")) {
        if (v.type != metrics::JsonValue::Type::String)
            throw std::runtime_error("labels." + k + ": not a string");
        doc.labels[k] = v.str;
    }
    for (const auto &[k, v] : entriesOf(*reg, "counters"))
        doc.counters[checkedName("counters", k)] =
            countOf(&v, "counters." + k);
    for (const auto &[k, v] : entriesOf(*reg, "gauges")) {
        const std::string at = "gauges." + checkedName("gauges", k);
        objectAt(v, at);
        doc.gauges[k] = {numberOf(v.get("value"), at + ".value"),
                         numberOf(v.get("hwm"), at + ".hwm")};
    }
    for (const auto &[k, v] : entriesOf(*reg, "histograms")) {
        const std::string at =
            "histograms." + checkedName("histograms", k);
        objectAt(v, at);
        DistStat d;
        d.count = countOf(v.get("count"), at + ".count");
        d.sum = countOf(v.get("sum"), at + ".sum");
        d.min = countOf(v.get("min"), at + ".min");
        d.max = countOf(v.get("max"), at + ".max");
        d.mean = numberOf(v.get("mean"), at + ".mean");
        d.p50 = countOf(v.get("p50"), at + ".p50");
        d.p90 = countOf(v.get("p90"), at + ".p90");
        d.p99 = countOf(v.get("p99"), at + ".p99");
        doc.dists[k] = d;
    }
    return true;
}

/** Flatten a live registry through its own JSON export (one parser
 * path for both sources; also exercises the round-trip). */
bool
docFromRegistry(const metrics::Registry &reg, Doc &doc,
                std::string &error)
{
    std::unique_ptr<metrics::JsonValue> root =
        metrics::parseJson(metrics::toJson(reg), error);
    if (!root)
        return false;
    return docFromJson(*root, doc, error);
}

bool
readFile(const std::string &path, std::string &out,
         std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
docFromFile(const std::string &path, Doc &doc, std::string &error)
{
    std::string text;
    if (!readFile(path, text, error))
        return false;
    std::unique_ptr<metrics::JsonValue> root =
        metrics::parseJson(text, error);
    try {
        if (root && docFromJson(*root, doc, error))
            return true;
    } catch (const std::runtime_error &e) {
        error = e.what();
    }
    error = path + ": " + error;
    return false;
}

// ------------------------------------------------------------- report

bool
isHostMetric(const std::string &name)
{
    return metrics::baseName(name).rfind("host.", 0) == 0;
}

/**
 * Blame-attribution series (exposure.blame_*). Kept out of the
 * default golden so the posture golden stays byte-identical whether
 * or not a consumer looks at provenance; they get their own report
 * (--blame), golden and diff section instead.
 */
bool
isBlameMetric(const std::string &name)
{
    return metrics::baseName(name).rfind("exposure.blame", 0) == 0;
}

/** In the posture golden and diff: neither host.* nor blame. */
bool
isPostureMetric(const std::string &name)
{
    return !isHostMetric(name) && !isBlameMetric(name);
}

/** The `{...}` label suffix of @p name ("" when unlabeled). */
std::string
labelSuffix(const std::string &name)
{
    std::string::size_type b = name.find('{');
    return b == std::string::npos ? "" : name.substr(b);
}

double
cyclesUs(double c)
{
    return c / static_cast<double>(cyclesPerUs);
}



void
printReport(const Doc &doc)
{
    std::printf("=== terp-stats: security-posture report ===\n");
    if (!doc.labels.empty()) {
        std::printf("labels:");
        for (const auto &[k, v] : doc.labels)
            std::printf(" %s=%s", k.c_str(), v.c_str());
        std::printf("\n");
    }

    // Exposure-window percentiles: the pmo="all" rollups (per-PMO
    // series are shown by `terp-stats run` cross-checks, not here).
    bool header = false;
    for (const auto &[name, d] : doc.dists) {
        std::string base = metrics::baseName(name);
        if (base != "exposure.ew_cycles" &&
            base != "exposure.tew_cycles")
            continue;
        auto ls = metrics::nameLabels(name);
        auto pmo = ls.find("pmo");
        if (pmo != ls.end() && pmo->second != "all")
            continue;
        if (!header) {
            std::printf("\nexposure windows (us):\n");
            std::printf("  %-44s %8s %8s %8s %8s %8s %8s\n", "",
                        "count", "mean", "p50", "p90", "p99", "max");
            header = true;
        }
        std::printf(
            "  %-44s %8llu %8.2f %8.2f %8.2f %8.2f %8.2f\n",
            name.c_str(), (unsigned long long)d.count,
            cyclesUs(std::floor(d.mean + 0.5)),
            cyclesUs(d.p50), cyclesUs(d.p90), cyclesUs(d.p99),
            cyclesUs(d.max));
    }

    // Silent-vs-real split per label group (Table 3). The aggregate
    // keeps runs of different schemes distinct via injected labels;
    // a single-run registry has one unlabeled group.
    header = false;
    for (const auto &[name, silent] : doc.counters) {
        if (metrics::baseName(name) != "runtime.silent_ops")
            continue;
        std::string suffix = labelSuffix(name);
        auto full = doc.counters.find("runtime.full_ops" + suffix);
        std::uint64_t f =
            full == doc.counters.end() ? 0 : full->second;
        if (!header) {
            std::printf("\nsilent vs real operations:\n");
            header = true;
        }
        double frac = silent + f > 0
                          ? static_cast<double>(silent) /
                                static_cast<double>(silent + f)
                          : 0.0;
        std::printf("  %-24s silent=%llu full=%llu silent%%=%.2f\n",
                    suffix.empty() ? "(all)" : suffix.c_str(),
                    (unsigned long long)silent,
                    (unsigned long long)f, 100 * frac);
    }

    // Remaining counters, grouped under their subsystem prefix.
    const struct
    {
        const char *title;
        const char *prefix;
    } kGroups[] = {
        {"sweeper", "sweeper."},
        {"circular buffer", "cb."},
        {"runtime", "runtime."},
        {"persistence", "pm."},
        {"interpreter", "interp."},
        {"simulator", "sim."},
        {"tracing", "trace."},
    };
    for (const auto &g : kGroups) {
        header = false;
        for (const auto &[name, v] : doc.counters) {
            std::string base = metrics::baseName(name);
            if (base.rfind(g.prefix, 0) != 0 ||
                base == "runtime.silent_ops" ||
                base == "runtime.full_ops")
                continue;
            if (!header) {
                std::printf("\n%s:\n", g.title);
                header = true;
            }
            std::printf("  %-44s %llu\n", name.c_str(),
                        (unsigned long long)v);
        }
        for (const auto &[name, v] : doc.gauges) {
            if (metrics::baseName(name).rfind(g.prefix, 0) != 0)
                continue;
            if (!header) {
                std::printf("\n%s:\n", g.title);
                header = true;
            }
            std::printf("  %-44s %g (hwm %g)\n", name.c_str(),
                        v.first, v.second);
        }
    }

    // Host-side profiling (never part of goldens or diffs).
    bool hostHeader = false;
    for (const auto &[name, d] : doc.dists) {
        if (!isHostMetric(name))
            continue;
        if (!hostHeader) {
            std::printf("\nhost profiling:\n");
            hostHeader = true;
        }
        std::printf("  %-44s count=%llu p50=%lluns p99=%lluns\n",
                    name.c_str(), (unsigned long long)d.count,
                    (unsigned long long)d.p50,
                    (unsigned long long)d.p99);
    }
}

// ------------------------------------------------------- blame report

/** @p name with its `cause` label removed (the blame group key). */
std::string
withoutCause(const std::string &name)
{
    std::map<std::string, std::string> ls =
        metrics::nameLabels(name);
    ls.erase("cause");
    std::string out = metrics::baseName(name);
    if (ls.empty())
        return out;
    out += "{";
    bool first = true;
    for (const auto &[k, v] : ls) {
        if (!first)
            out += ",";
        first = false;
        out += k + "=\"" + v + "\"";
    }
    return out + "}";
}

/**
 * The one-page blame report: every `exposure.blame_total` counter
 * (sorted name order, i.e. sorted cause order within each group)
 * with its share of the group's blamed cycles, then the per-cause
 * segment-length histograms. The exact same text doubles as the
 * blame golden (--blame --golden=FILE): it is built purely from
 * deterministic simulated-cycle quantities.
 */
std::string
blameText(const Doc &doc)
{
    std::ostringstream os;
    char buf[160];
    os << "=== terp-stats: exposure blame report ===\n";

    // Group totals: blamed cycles per (labels minus cause), so the
    // share column reads "of this scheme's total exposure".
    std::map<std::string, std::uint64_t> groupTotal;
    for (const auto &[name, v] : doc.counters)
        if (metrics::baseName(name) == "exposure.blame_total")
            groupTotal[withoutCause(name)] += v;

    bool header = false;
    for (const auto &[name, v] : doc.counters) {
        if (metrics::baseName(name) != "exposure.blame_total")
            continue;
        if (!header) {
            os << "\nblame totals (us):\n";
            std::snprintf(buf, sizeof(buf), "  %-64s %12s %7s\n", "",
                          "us", "share");
            os << buf;
            header = true;
        }
        std::uint64_t total = groupTotal[withoutCause(name)];
        double share =
            total ? 100.0 * static_cast<double>(v) /
                        static_cast<double>(total)
                  : 0.0;
        std::snprintf(buf, sizeof(buf), "  %-64s %12.2f %6.1f%%\n",
                      name.c_str(), cyclesUs(v), share);
        os << buf;
    }
    if (!header)
        os << "\nno blame attribution recorded\n";

    header = false;
    for (const auto &[name, d] : doc.dists) {
        if (metrics::baseName(name) != "exposure.blame_cycles")
            continue;
        if (!header) {
            os << "\nblame segments (us):\n";
            std::snprintf(buf, sizeof(buf),
                          "  %-64s %8s %8s %8s %8s\n", "", "count",
                          "mean", "p99", "max");
            os << buf;
            header = true;
        }
        std::snprintf(
            buf, sizeof(buf), "  %-64s %8llu %8.2f %8.2f %8.2f\n",
            name.c_str(), (unsigned long long)d.count,
            cyclesUs(std::floor(d.mean + 0.5)),
            cyclesUs(d.p99), cyclesUs(d.max));
        os << buf;
    }
    return os.str();
}

// ------------------------------------------------------------- golden

/**
 * Golden format, one metric per line (host.* excluded):
 *   C <name> <value>                    counters
 *   G <name> <value %.6g>               gauges
 *   H <name> <count> <sum> <min> <max>  histograms
 * Only exact (deterministic) quantities plus %.6g-rounded gauges, so
 * the file is stable across hosts and --jobs values.
 */
std::string
goldenText(const Doc &doc)
{
    std::ostringstream os;
    os << "# terp-stats golden: C name v | G name v | "
          "H name count sum min max\n";
    char buf[64];
    for (const auto &[name, v] : doc.counters)
        if (isPostureMetric(name))
            os << "C " << name << " " << v << "\n";
    for (const auto &[name, v] : doc.gauges) {
        if (!isPostureMetric(name))
            continue;
        std::snprintf(buf, sizeof(buf), "%.6g", v.first);
        os << "G " << name << " " << buf << "\n";
    }
    for (const auto &[name, d] : doc.dists) {
        if (!isPostureMetric(name))
            continue;
        os << "H " << name << " " << d.count << " " << d.sum << " "
           << d.min << " " << d.max << "\n";
    }
    return os.str();
}

// --------------------------------------------------------------- diff

/**
 * Report through @p note every name @p keep admits whose value,
 * rendered by @p str, differs between @p a and @p b: first the names
 * of @p a in order (absent from @p b or changed), then the names
 * only @p b has.
 */
template <typename V, typename Str, typename Note>
void
diffMaps(const std::map<std::string, V> &a,
         const std::map<std::string, V> &b,
         bool (*keep)(const std::string &), Str str, Note note)
{
    for (const auto &[name, v] : a) {
        if (!keep(name))
            continue;
        auto it = b.find(name);
        if (it == b.end())
            note(name, str(v), "(absent)");
        else if (str(it->second) != str(v))
            note(name, str(v), str(it->second));
    }
    for (const auto &[name, v] : b)
        if (keep(name) && !a.count(name))
            note(name, "(absent)", str(v));
}

int
diffDocs(const Doc &a, const Doc &b)
{
    unsigned changes = 0;
    auto note = [&](const std::string &name, const std::string &va,
                    const std::string &vb) {
        std::printf("%-44s %s -> %s\n", name.c_str(), va.c_str(),
                    vb.c_str());
        ++changes;
    };
    auto u64s = [](std::uint64_t v) { return std::to_string(v); };
    auto gaugeStr = [](const std::pair<double, double> &v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v.first);
        return std::string(buf);
    };
    auto distStr = [&](const DistStat &d) {
        return "count=" + u64s(d.count) + " sum=" + u64s(d.sum) +
               " min=" + u64s(d.min) + " max=" + u64s(d.max);
    };

    diffMaps(a.counters, b.counters, isPostureMetric, u64s, note);
    diffMaps(a.gauges, b.gauges, isPostureMetric, gaugeStr, note);
    diffMaps(a.dists, b.dists, isPostureMetric, distStr, note);

    // Blame attribution last, under its own header, in sorted name
    // order (= sorted cause order within each label group) so two
    // diffs of the same pair are always formatted identically.
    bool blameHeader = false;
    auto noteBlame = [&](const std::string &name,
                         const std::string &va,
                         const std::string &vb) {
        if (!blameHeader) {
            std::printf("blame attribution:\n");
            blameHeader = true;
        }
        std::printf("  %-44s %s -> %s\n", name.c_str(), va.c_str(),
                    vb.c_str());
        ++changes;
    };
    diffMaps(a.counters, b.counters, isBlameMetric, u64s, noteBlame);
    diffMaps(a.gauges, b.gauges, isBlameMetric, gaugeStr, noteBlame);
    diffMaps(a.dists, b.dists, isBlameMetric, distStr, noteBlame);

    if (changes == 0) {
        std::printf("no differences\n");
        return 0;
    }
    std::printf("%u metric(s) differ\n", changes);
    return 1;
}

// ---------------------------------------------------------- run mode

/**
 * Cross-check a finished run: the trace audit (which holds the
 * EwTracker and the metrics registry's window histograms to its
 * independent replay) must be clean, and the silent fraction
 * recomputed from the published integer counters must reproduce the
 * runtime report's double bit-for-bit.
 */
unsigned
crossCheck(const workloads::RunResult &r)
{
    unsigned failures = 0;
    auto fail = [&](const std::string &what) {
        std::fprintf(stderr, "terp-stats: CROSS-CHECK FAILED: %s\n",
                     what.c_str());
        ++failures;
    };

    if (!r.traceAudit || !r.trace) {
        fail("no trace audit available");
        return failures;
    }
    for (const std::string &m : r.traceAudit->mismatches)
        fail("trace audit: " + m);

    const metrics::Counter *silent =
        r.metrics->findCounter("runtime.silent_ops");
    const metrics::Counter *full =
        r.metrics->findCounter("runtime.full_ops");
    if (!silent || !full) {
        fail("runtime.silent_ops / runtime.full_ops missing");
    } else {
        std::uint64_t s = silent->value(), f = full->value();
        double frac = s + f > 0 ? static_cast<double>(s) /
                                      static_cast<double>(s + f)
                                : 0.0;
        if (frac != r.report.silentFraction) {
            std::ostringstream os;
            os << "silent fraction from counters " << frac
               << " != report " << r.report.silentFraction;
            fail(os.str());
        }
    }

    if (failures == 0) {
        std::fprintf(stderr,
                     "terp-stats: cross-check OK (%zu EW + %zu TEW "
                     "window sets, silent fraction exact)\n",
                     r.traceAudit->pmosWith(&trace::AuditReport::PmoTally::ew),
                     r.traceAudit->pmosWith(&trace::AuditReport::PmoTally::tew));
    }
    return failures;
}

const char kUsage[] =
    "usage: terp-stats run <workload> <scheme> [--sections=N]"
    " [--seed=N]\n"
    "       terp-stats --from=FILE\n"
    "       terp-stats --diff A B\n"
    "options: [--json] [--prom] [--blame] [--golden=FILE]"
    " [--write-golden=FILE]\n"
    "  --blame: print the exposure blame report instead of the\n"
    "           posture report; --golden/--write-golden then\n"
    "           apply to the blame report text\n"
    "workloads: echo ycsb tpcc ctree hashmap redis\n"
    "schemes: unprotected mm tm tt ttnc basic\n";

} // namespace

int
main(int argc, char **argv)
{
    std::string fromPath, goldenPath, writeGoldenPath;
    std::vector<std::string> diffPaths, positional;
    bool emitJson = false, emitProm = false, blame = false;
    std::uint64_t sections = 400, seed = 1234;

    cli::Args args("terp-stats", argc, argv, kUsage);
    while (args.next()) {
        if (args.positional()) {
            positional.push_back(args.arg());
        } else if (args.is("--from")) {
            fromPath = args.str();
        } else if (args.is("--diff")) {
            std::string a = args.str();
            diffPaths = {a, args.str()};
        } else if (args.is("--golden")) {
            goldenPath = args.str();
        } else if (args.is("--write-golden")) {
            writeGoldenPath = args.str();
        } else if (args.is("--sections")) {
            sections = args.count(1, UINT_MAX);
        } else if (args.is("--seed")) {
            seed = args.seed();
        } else if (args.is("--json")) {
            emitJson = true;
        } else if (args.is("--prom")) {
            emitProm = true;
        } else if (args.is("--blame")) {
            blame = true;
        } else {
            args.unknown();
        }
    }

    if (!diffPaths.empty()) {
        Doc a, b;
        std::string error;
        if (!docFromFile(diffPaths[0], a, error) ||
            !docFromFile(diffPaths[1], b, error)) {
            std::fprintf(stderr, "terp-stats: %s\n", error.c_str());
            return 2;
        }
        return diffDocs(a, b);
    }

    Doc doc;
    std::string error;
    std::shared_ptr<metrics::Registry> liveReg;
    unsigned failures = 0;

    if (!fromPath.empty()) {
        if (!positional.empty())
            args.usage();
        if (!docFromFile(fromPath, doc, error)) {
            std::fprintf(stderr, "terp-stats: %s\n", error.c_str());
            return 2;
        }
    } else if (positional.size() == 3 && positional[0] == "run") {
        const std::string &workload = positional[1];
        core::RuntimeConfig cfg = cli::scheme("terp-stats", positional[2]);
        bool known = false;
        for (const std::string &n : workloads::whisperNames())
            known = known || n == workload;
        if (!known)
            args.fail("unknown workload '" + workload + "'");
        workloads::WhisperParams p;
        p.sections = sections;
        p.seed = seed;
        std::fprintf(stderr, "terp-stats: running %s under %s ...\n",
                     workload.c_str(), positional[2].c_str());
        workloads::RunResult r =
            workloads::runWhisper(workload, cfg.withTrace(), p);
        liveReg = r.metrics;
        failures = crossCheck(r);
        if (!docFromRegistry(*liveReg, doc, error)) {
            std::fprintf(stderr, "terp-stats: %s\n", error.c_str());
            return 2;
        }
    } else {
        args.usage();
    }

    if (emitJson) {
        if (liveReg) {
            std::printf("%s\n", metrics::toJson(*liveReg).c_str());
        } else {
            std::string text;
            if (!readFile(fromPath, text, error)) {
                std::fprintf(stderr, "terp-stats: %s\n",
                             error.c_str());
                return 2;
            }
            std::fputs(text.c_str(), stdout);
        }
    } else if (emitProm && liveReg) {
        std::fputs(metrics::toPrometheus(*liveReg).c_str(), stdout);
    } else if (emitProm) {
        std::fprintf(stderr, "terp-stats: --prom needs a live run "
                             "(quantile bucket detail is not in the "
                             "JSON export)\n");
        return 2;
    } else if (blame) {
        std::fputs(blameText(doc).c_str(), stdout);
    } else {
        printReport(doc);
    }

    // With --blame the golden is the blame report text itself; the
    // default golden keeps blame metrics excluded either way.
    std::string golden = blame ? blameText(doc) : goldenText(doc);
    if (!writeGoldenPath.empty())
        cli::writeText("terp-stats", writeGoldenPath, golden);
    if (!goldenPath.empty()) {
        if (int rc = cli::checkGolden("terp-stats", goldenPath, golden))
            return rc;
    }
    return failures > 0 ? 1 : 0;
}
