#include "common/rng.hh"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/logging.hh"

namespace terp {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    TERP_ASSERT(bound > 0);
    // Lemire's multiply-shift (64x64 -> 128) without his rejection
    // step, so not exactly uniform: a value's probability differs
    // from 1/bound by a relative error below bound/2^64. Every
    // recorded output depends on this draw, so it stays as it is.
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    TERP_ASSERT(lo <= hi);
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
Rng::jitter(std::uint64_t mean, double spread)
{
    if (mean == 0 || spread <= 0.0)
        return mean;
    double lo = static_cast<double>(mean) * (1.0 - spread);
    double hi = static_cast<double>(mean) * (1.0 + spread);
    if (lo < 0)
        lo = 0;
    return static_cast<std::uint64_t>(lo + nextDouble() * (hi - lo));
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa02'51ca'715eULL);
}

double
ZipfGenerator::zeta(std::uint64_t n, double theta)
{
    // The sum takes n pow calls (about 1.3 ms for YCSB's 64 Ki items)
    // and every generator of one (n, theta) needs the same value, so it
    // is computed once per process. Generators are built concurrently
    // by harness and serve workers, hence the lock.
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, std::uint64_t>, double> memo;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, fresh] = memo.try_emplace(
        {n, std::bit_cast<std::uint64_t>(theta)}, 0.0);
    if (fresh) {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        it->second = sum;
    }
    return it->second;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n_, double theta_,
                             std::uint64_t seed)
    : n(n_), theta(theta_), rng(seed)
{
    TERP_ASSERT(n > 0);
    zetan = zeta(n, theta);
    double zeta2 = zeta(2, theta);
    alpha = 1.0 / (1.0 - theta);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
          (1.0 - zeta2 / zetan);
}

std::uint64_t
ZipfGenerator::next()
{
    double u = rng.nextDouble();
    double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta))
        return 1;
    auto idx = static_cast<std::uint64_t>(
        static_cast<double>(n) *
        std::pow(eta * u - eta + 1.0, alpha));
    return idx >= n ? n - 1 : idx;
}

} // namespace terp
