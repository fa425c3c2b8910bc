#include "serve/loadgen.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace terp {
namespace serve {

namespace {

/** SplitMix64 finalizer: decorrelate derived per-session seeds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Exponential inter-arrival with the given mean, quantized to whole
 * cycles and floored at 1 so time always advances. Uses -mean*ln(u)
 * on a (0,1] uniform.
 */
Cycles
exponential(Rng &rng, Cycles mean)
{
    double u = 1.0 - rng.nextDouble(); // (0, 1]
    double v = -static_cast<double>(mean) * std::log(u);
    auto c = static_cast<Cycles>(v);
    return c > 0 ? c : 1;
}

} // namespace

LoadGen::LoadGen(const ServeConfig &cfg)
    : streams(cfg.shards)
{
    TERP_ASSERT(cfg.shards > 0, "LoadGen: zero shards");
    TERP_ASSERT(cfg.totalPmos() > 0, "LoadGen: zero PMOs");

    for (std::uint32_t s = 0; s < cfg.sessions; ++s) {
        // One derived stream per session: the schedule of session s
        // never depends on how many other sessions exist.
        Rng rng(mix64(cfg.seed ^ mix64(s + 1)));
        ZipfGenerator zipf(cfg.totalPmos(), kZipfTheta, rng.next());
        bool slow = rng.nextBool(cfg.slowFraction);
        if (slow)
            ++nSlow;

        // Sessions don't all arrive at once: stagger the first
        // request by one off-gap so the ramp-up is itself bursty.
        Cycles t = exponential(rng, kOffMean);
        for (std::uint32_t r = 0; r < cfg.requestsPerSession; ++r) {
            Request req;
            req.arrival = t;
            req.session = s;
            req.seq = r;
            req.globalPmo =
                static_cast<pm::PmoId>(zipf.next());
            req.ops = static_cast<std::uint16_t>(
                1 + rng.nextBelow(2 * cfg.opsPerRequest));
            req.slow = slow;
            req.salt = rng.next();

            streams[req.globalPmo % cfg.shards].push_back(req);
            ++total;
            if (t > lastArrival)
                lastArrival = t;

            t += exponential(rng, cfg.thinkMean);
            if (rng.nextBool(kOffProb))
                t += exponential(rng, kOffMean);
        }
    }

    // The shard executes its stream in this total order; the
    // (session, seq) tie-break makes it independent of the
    // generation loop's session iteration order.
    for (auto &stream : streams)
        std::sort(stream.begin(), stream.end(),
                  [](const Request &a, const Request &b) {
                      if (a.arrival != b.arrival)
                          return a.arrival < b.arrival;
                      if (a.session != b.session)
                          return a.session < b.session;
                      return a.seq < b.seq;
                  });
}

} // namespace serve
} // namespace terp
