#include "metrics/registry.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/logging.hh"

namespace terp {
namespace metrics {

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Counter: return "counter";
      case Kind::Gauge: return "gauge";
      case Kind::Histogram: return "histogram";
      default: return "?";
    }
}

std::string
labelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
labeled(const std::string &name, const std::string &key,
        const std::string &value)
{
    std::map<std::string, std::string> ls = nameLabels(name);
    ls[key] = value;
    std::string out = baseName(name) + "{";
    bool first = true;
    for (const auto &[k, v] : ls) {
        if (!first)
            out += ",";
        first = false;
        out += k + "=\"" + labelEscape(v) + "\"";
    }
    out += "}";
    return out;
}

std::string
baseName(const std::string &name)
{
    std::size_t brace = name.find('{');
    return brace == std::string::npos ? name : name.substr(0, brace);
}

std::map<std::string, std::string>
nameLabels(const std::string &name)
{
    std::map<std::string, std::string> ls;
    std::size_t brace = name.find('{');
    if (brace == std::string::npos)
        return ls;
    std::size_t i = brace + 1;
    while (i < name.size() && name[i] != '}') {
        std::size_t eq = name.find('=', i);
        if (eq == std::string::npos || eq + 1 >= name.size() ||
            name[eq + 1] != '"')
            throw std::invalid_argument("malformed metric labels: " +
                                        name);
        std::string key = name.substr(i, eq - i);
        // Undo labelEscape: the closing quote is the first
        // *unescaped* double quote.
        std::string val;
        std::size_t j = eq + 2;
        for (; j < name.size() && name[j] != '"'; ++j) {
            if (name[j] == '\\' && j + 1 < name.size()) {
                char n = name[++j];
                val += n == 'n' ? '\n' : n;
            } else {
                val += name[j];
            }
        }
        if (j >= name.size())
            throw std::invalid_argument("malformed metric labels: " +
                                        name);
        ls[key] = val;
        i = j + 1;
        if (i < name.size() && name[i] == ',')
            ++i;
    }
    return ls;
}

Registry &
Registry::operator=(const Registry &o)
{
    for (; items.size() > o.items.size(); items.pop_back())
        spares.push_back(std::move(items.back()));
    for (std::size_t i = 0; i < o.items.size(); ++i) {
        if (i == items.size())
            items.push_back(takeSpare());
        *items[i] = *o.items[i];
    }
    order = o.order;
    tags = o.tags;
    return *this;
}

std::unique_ptr<Registry::Item>
Registry::takeSpare()
{
    if (spares.empty())
        return std::make_unique<Item>();
    // A spare keeps its storage: the name's and the histogram's.
    std::unique_ptr<Item> item = std::move(spares.back());
    spares.pop_back();
    return item;
}

std::vector<Registry::Id>::const_iterator
Registry::lowerBound(std::string_view name) const
{
    return std::lower_bound(order.begin(), order.end(), name,
                            [this](Id id, std::string_view n) {
                                return items[id]->first < n;
                            });
}

Registry::Id
Registry::getOrCreate(const std::string &name, Kind kind, unsigned sub_bits)
{
    auto it = lowerBound(name);
    if (it != order.end() && items[*it]->first == name) {
        TERP_ASSERT(items[*it]->second.kind == kind, "metric '", name,
                    "' registered as ", kindName(items[*it]->second.kind),
                    ", requested as ", kindName(kind));
        return *it;
    }
    const auto id = static_cast<Id>(items.size());
    TERP_ASSERT(id != noId, "metrics registry is full");
    items.push_back(takeSpare());
    Item &item = *items.back();
    item.first = name;
    Entry &e = item.second;
    e.kind = kind;
    e.counter = Counter{};
    e.gauge = Gauge{};
    if (kind != Kind::Histogram)
        e.hist.reset();
    else if (e.hist && e.hist->subBucketBits() == sub_bits)
        e.hist->reset();
    else
        e.hist.emplace(sub_bits);
    order.insert(it, id);
    return id;
}

const Registry::Entry *
Registry::find(std::string_view name, Kind kind) const
{
    auto it = lowerBound(name);
    if (it == order.end() || items[*it]->first != name ||
        items[*it]->second.kind != kind)
        return nullptr;
    return &items[*it]->second;
}

Registry::Id
Registry::counterId(const std::string &name)
{
    return getOrCreate(name, Kind::Counter);
}

Registry::Id
Registry::gaugeId(const std::string &name)
{
    return getOrCreate(name, Kind::Gauge);
}

Registry::Id
Registry::histogramId(const std::string &name, unsigned sub_bits)
{
    return getOrCreate(name, Kind::Histogram, sub_bits);
}

const Counter *
Registry::findCounter(std::string_view name) const
{
    const Entry *e = find(name, Kind::Counter);
    return e ? &e->counter : nullptr;
}

const Gauge *
Registry::findGauge(std::string_view name) const
{
    const Entry *e = find(name, Kind::Gauge);
    return e ? &e->gauge : nullptr;
}

const LogHistogram *
Registry::findHistogram(std::string_view name) const
{
    const Entry *e = find(name, Kind::Histogram);
    return e && e->hist ? &*e->hist : nullptr;
}

const LogHistogram *
Registry::findHistogram(std::string_view name, Id &id) const
{
    if (id >= items.size() || items[id]->first != name) {
        auto it = lowerBound(name);
        id = it != order.end() && items[*it]->first == name ? *it : noId;
        if (id == noId)
            return nullptr;
    }
    const Entry &e = items[id]->second;
    return e.kind == Kind::Histogram && e.hist ? &*e.hist : nullptr;
}

void
Registry::setLabel(const std::string &key, const std::string &value)
{
    tags[key] = value;
}

void
Registry::merge(const Registry &other,
                const std::function<bool(const std::string &)> &keep,
                const std::vector<std::string> &inject_labels)
{
    for (const auto &[name, e] : other.entries()) {
        if (keep && !keep(name))
            continue;
        std::string dst = name;
        for (const std::string &key : inject_labels) {
            auto it = other.tags.find(key);
            if (it != other.tags.end())
                dst = labeled(dst, key, it->second);
        }
        switch (e.kind) {
          case Kind::Counter:
            counter(dst).merge(e.counter);
            break;
          case Kind::Gauge:
            gauge(dst).merge(e.gauge);
            break;
          case Kind::Histogram:
            if (e.hist)
                histogram(dst, e.hist->subBucketBits())
                    .merge(*e.hist);
            break;
        }
    }
}

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

ScopedTimer::ScopedTimer(LogHistogram *h) : hist(h)
{
    if (hist)
        t0 = steadyNowNs();
}

ScopedTimer::~ScopedTimer()
{
    if (hist) {
        std::uint64_t t1 = steadyNowNs();
        hist->record(t1 > t0 ? t1 - t0 : 0);
    }
}

} // namespace metrics
} // namespace terp
