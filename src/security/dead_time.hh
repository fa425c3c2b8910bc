/**
 * @file
 * Dead-time analysis (Section VII-A / Fig 8 of the paper).
 *
 * The object dead time — from the last write to a heap object until
 * its deallocation — is the window during which a data-only attack
 * can plant a corruption that persists (earlier corruptions would be
 * overwritten by the victim). The distribution of dead times
 * therefore sets the TEW target: choosing a TEW below the p-th
 * percentile removes p percent of the attack surface.
 */

#ifndef TERP_SECURITY_DEAD_TIME_HH
#define TERP_SECURITY_DEAD_TIME_HH

#include <cstdint>
#include <vector>

namespace terp {
namespace security {

/**
 * Histogram over explicit bucket upper bounds that also keeps every
 * sample, for exact fractions and percentiles. A sample lands in the
 * first bucket whose upper bound is >= the sample; larger samples land
 * in the overflow bucket. DeadTimeAnalysis and Fig 8 read it.
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

    /** The p-th percentile (0..100) of the retained samples. */
    double percentile(double p) const;

  private:
    std::vector<double> ubs;     //!< bucket upper bounds; last = overflow
    std::vector<std::uint64_t> counts;
    std::vector<double> samples; //!< retained for percentiles
    std::uint64_t total = 0;
};

/** Aggregates dead-time samples and answers TEW-selection queries. */
class DeadTimeAnalysis
{
  public:
    DeadTimeAnalysis();

    /** Record one dead time (microseconds). */
    void add(double dead_time_us);

    /** Record a batch of samples. */
    void addAll(const std::vector<double> &samples_us);

    /**
     * Fraction of the attack surface a TEW of @p tew_us removes:
     * the share of dead times at or above the TEW (corruptions need
     * the permission to stay open into the dead window).
     */
    double surfaceReduction(double tew_us) const;

    /**
     * Smallest TEW (from the Fig 8 bucket boundaries) whose surface
     * reduction reaches @p target (e.g. 0.95 -> 2 us in the paper).
     */
    double recommendTew(double target) const;

    /** The Fig 8 histogram (log2 buckets, 0.5 us .. 1024 us). */
    const Histogram &histogram() const { return hist; }

    std::uint64_t sampleCount() const { return hist.totalCount(); }
    double medianUs() const { return hist.percentile(50.0); }

  private:
    Histogram hist;
};

} // namespace security
} // namespace terp

#endif // TERP_SECURITY_DEAD_TIME_HH
