/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every source of randomness in the reproduction (PMO placement
 * randomization, Zipfian key selection, workload jitter, Monte-Carlo
 * attack probes) draws from a seeded Rng stream so that tests and
 * benchmark tables are exactly reproducible.
 */

#ifndef TERP_COMMON_RNG_HH
#define TERP_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace terp {

/**
 * A small, fast, splittable PRNG (SplitMix64-seeded xoshiro256**).
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x5eed'c0de'd00d'f00dULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Value in [0, bound), by multiply-shift with no rejection step:
     * each value's probability differs from 1/bound by a relative
     * error below bound/2^64. bound must be nonzero.
     */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p);

    /**
     * Geometric-ish positive jitter: uniform in
     * [mean*(1-spread), mean*(1+spread)].
     */
    std::uint64_t jitter(std::uint64_t mean, double spread);

    /** Fork an independent stream (for per-thread determinism). */
    Rng split();

  private:
    std::uint64_t s[4];
};

/**
 * Zipfian sampler over [0, n) with skew theta, as used by YCSB-style
 * key-value workloads. Uses the Gray et al. rejection-free method.
 */
class ZipfGenerator
{
  public:
    /**
     * @param n     Number of distinct items.
     * @param theta Skew (0 = uniform; 0.99 = YCSB default).
     * @param seed  Seed for the internal generator.
     */
    ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed);

    /** Sample one item index in [0, n). */
    std::uint64_t next();

    std::uint64_t itemCount() const { return n; }

  private:
    std::uint64_t n;
    double theta;
    double alpha;
    double zetan;
    double eta;
    Rng rng;

    static double zeta(std::uint64_t n, double theta);
};

} // namespace terp

#endif // TERP_COMMON_RNG_HH
