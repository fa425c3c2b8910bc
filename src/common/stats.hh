/**
 * @file
 * The sample-retaining bucketed Histogram the benchmark harnesses
 * use (fig08 and security/dead_time).
 */

#ifndef TERP_COMMON_STATS_HH
#define TERP_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace terp {

/**
 * Histogram over explicit bucket upper bounds. A sample lands in the
 * first bucket whose upper bound is >= the sample; larger samples land
 * in the overflow bucket.
 */
class Histogram
{
  public:
    /** @param upper_bounds Ascending inclusive bucket upper bounds. */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Build log2-spaced bounds lo, 2lo, 4lo, ..., covering up to hi. */
    static Histogram log2Buckets(double lo, double hi);

    void add(double v);

    std::size_t bucketCount() const { return counts.size(); }
    const std::vector<double> &bounds() const { return ubs; }
    std::uint64_t bucket(std::size_t i) const { return counts.at(i); }
    std::uint64_t totalCount() const { return total; }

    /** Fraction of samples in bucket i. */
    double fraction(std::size_t i) const;

    /** Fraction of samples strictly above value v. */
    double fractionAbove(double v) const;

    /** All raw samples retained for percentile queries. */
    double percentile(double p) const;

  private:
    std::vector<double> ubs;     //!< bucket upper bounds; last = overflow
    std::vector<std::uint64_t> counts;
    std::vector<double> samples; //!< retained for percentiles
    std::uint64_t total = 0;
};

} // namespace terp

#endif // TERP_COMMON_STATS_HH
