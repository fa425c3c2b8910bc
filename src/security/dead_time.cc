#include "security/dead_time.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace terp {
namespace security {

Histogram::Histogram(std::vector<double> upper_bounds)
    : ubs(std::move(upper_bounds))
{
    TERP_ASSERT(!ubs.empty());
    for (std::size_t i = 1; i < ubs.size(); ++i)
        TERP_ASSERT(ubs[i] > ubs[i - 1], "bounds must ascend");
    counts.assign(ubs.size() + 1, 0); // +1 overflow bucket
}

Histogram
Histogram::log2Buckets(double lo, double hi)
{
    TERP_ASSERT(lo > 0 && hi > lo);
    std::vector<double> b;
    for (double v = lo; v <= hi * 1.0000001; v *= 2.0)
        b.push_back(v);
    return Histogram(std::move(b));
}

void
Histogram::add(double v)
{
    std::size_t i = 0;
    while (i < ubs.size() && v > ubs[i])
        ++i;
    ++counts[i];
    ++total;
    samples.push_back(v);
}

double
Histogram::fraction(std::size_t i) const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(counts.at(i)) / static_cast<double>(total);
}

double
Histogram::fractionAbove(double v) const
{
    if (total == 0)
        return 0.0;
    std::uint64_t above = 0;
    for (double s : samples)
        if (s > v)
            ++above;
    return static_cast<double>(above) / static_cast<double>(total);
}

double
Histogram::percentile(double p) const
{
    TERP_ASSERT(p >= 0.0 && p <= 100.0);
    if (samples.empty())
        return 0.0;
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    auto idx = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    if (idx > 0)
        --idx;
    return sorted[idx];
}


DeadTimeAnalysis::DeadTimeAnalysis()
    : hist(Histogram::log2Buckets(0.5, 1024.0))
{
}

void
DeadTimeAnalysis::add(double dead_time_us)
{
    hist.add(dead_time_us);
}

void
DeadTimeAnalysis::addAll(const std::vector<double> &samples_us)
{
    for (double s : samples_us)
        hist.add(s);
}

double
DeadTimeAnalysis::surfaceReduction(double tew_us) const
{
    return hist.fractionAbove(tew_us);
}

double
DeadTimeAnalysis::recommendTew(double target) const
{
    // The largest TEW (coarsest, cheapest insertion) that still
    // removes the target share of the attack surface.
    double best = 0.0;
    for (double bound : hist.bounds()) {
        if (surfaceReduction(bound) + 1e-12 >= target)
            best = bound;
    }
    return best;
}

} // namespace security
} // namespace terp
