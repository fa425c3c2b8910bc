#include "metrics/export.hh"

#include <cstdio>
#include <sstream>

#include "metrics/json.hh"

namespace terp {
namespace metrics {

namespace {

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The histogram quantiles every exporter and report agrees on. */
constexpr double kQuantiles[] = {0.5, 0.9, 0.99};
constexpr const char *kQuantileKeys[] = {"p50", "p90", "p99"};

void
emitSection(std::ostringstream &os, const std::string &ind,
            const char *key, const std::vector<std::string> &items,
            bool &first_section)
{
    if (items.empty())
        return;
    if (!first_section)
        os << ",\n";
    first_section = false;
    os << ind << "  \"" << key << "\": {\n";
    for (std::size_t i = 0; i < items.size(); ++i) {
        os << ind << "    " << items[i]
           << (i + 1 < items.size() ? "," : "") << "\n";
    }
    os << ind << "  }";
}

} // namespace

std::string
toJson(const Registry &reg, const std::string &indent)
{
    std::ostringstream os;
    const std::string &ind = indent;
    os << "{\n";
    bool firstSection = true;

    if (!reg.labels().empty()) {
        std::vector<std::string> items;
        for (const auto &[k, v] : reg.labels()) {
            std::string item = jsonQuoted(k);
            item += ": ";
            item += jsonQuoted(v);
            items.push_back(item);
        }
        emitSection(os, ind, "labels", items, firstSection);
    }

    std::vector<std::string> counters, gauges, histograms;
    for (const auto &[name, e] : reg.entries()) {
        std::string key = jsonQuoted(name) + ": ";
        switch (e.kind) {
          case Kind::Counter:
            counters.push_back(key +
                               std::to_string(e.counter.value()));
            break;
          case Kind::Gauge:
            gauges.push_back(key + "{\"value\": " +
                             fmtDouble(e.gauge.value()) +
                             ", \"hwm\": " +
                             fmtDouble(e.gauge.hwm()) + "}");
            break;
          case Kind::Histogram: {
            if (!e.hist)
                break;
            const LogHistogram &h = *e.hist;
            std::string v =
                key + "{\"count\": " + std::to_string(h.count()) +
                ", \"sum\": " + std::to_string(h.sum()) +
                ", \"min\": " + std::to_string(h.min()) +
                ", \"max\": " + std::to_string(h.max()) +
                ", \"mean\": " + fmtDouble(h.mean());
            for (std::size_t q = 0; q < 3; ++q) {
                v += std::string(", \"") + kQuantileKeys[q] +
                     "\": " + std::to_string(h.quantile(kQuantiles[q]));
            }
            v += "}";
            histograms.push_back(v);
            break;
          }
        }
    }
    emitSection(os, ind, "counters", counters, firstSection);
    emitSection(os, ind, "gauges", gauges, firstSection);
    emitSection(os, ind, "histograms", histograms, firstSection);

    os << "\n" << ind << "}";
    return os.str();
}

namespace {

/** `exposure.ew_cycles{pmo="all"}` -> `terp_exposure_ew_cycles`. */
std::string
promName(const std::string &name)
{
    std::string out = "terp_";
    for (char c : baseName(name)) {
        out += (c == '.' || c == '-') ? '_' : c;
    }
    return out;
}

/** Render the merged label set, optionally with one extra label. */
std::string
promLabels(const Registry &reg, const std::string &name,
           const std::string &extra_key = "",
           const std::string &extra_val = "")
{
    std::map<std::string, std::string> ls = reg.labels();
    for (const auto &[k, v] : nameLabels(name))
        ls[k] = v;
    if (!extra_key.empty())
        ls[extra_key] = extra_val;
    if (ls.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : ls) {
        if (!first)
            out += ",";
        first = false;
        out += k + "=\"" + labelEscape(v) + "\"";
    }
    return out + "}";
}

} // namespace

std::string
toPrometheus(const Registry &reg)
{
    std::ostringstream os;
    // One # TYPE line per base name, the first time it appears.
    std::map<std::string, bool> typed;

    auto typeLine = [&](const std::string &name, const char *type) {
        std::string pn = promName(name);
        if (!typed[pn]) {
            typed[pn] = true;
            os << "# TYPE " << pn << " " << type << "\n";
        }
        return pn;
    };

    for (const auto &[name, e] : reg.entries()) {
        switch (e.kind) {
          case Kind::Counter: {
            std::string pn = typeLine(name, "counter");
            os << pn << promLabels(reg, name) << " "
               << e.counter.value() << "\n";
            break;
          }
          case Kind::Gauge: {
            std::string pn = typeLine(name, "gauge");
            os << pn << promLabels(reg, name) << " "
               << fmtDouble(e.gauge.value()) << "\n";
            os << pn << "_hwm" << promLabels(reg, name) << " "
               << fmtDouble(e.gauge.hwm()) << "\n";
            break;
          }
          case Kind::Histogram: {
            if (!e.hist)
                break;
            std::string pn = typeLine(name, "summary");
            const LogHistogram &h = *e.hist;
            std::string ls = promLabels(reg, name);
            for (std::size_t q = 0; q < 3; ++q) {
                os << pn
                   << promLabels(reg, name, "quantile",
                                 fmtDouble(kQuantiles[q]))
                   << " " << h.quantile(kQuantiles[q]) << "\n";
            }
            os << pn << "_count" << ls << " " << h.count() << "\n";
            os << pn << "_sum" << ls << " " << h.sum() << "\n";
            os << pn << "_max" << ls << " " << h.max() << "\n";
            break;
          }
        }
    }
    return os.str();
}

} // namespace metrics
} // namespace terp
