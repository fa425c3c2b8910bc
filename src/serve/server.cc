#include "serve/server.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace terp {
namespace serve {

namespace {

/**
 * The bench aggregate's rule — keep only fleet-meaningful series —
 * plus: drop host.* instrumentation (wall-clock timings of the
 * simulator itself), which is the one family that would break the
 * fleet export's any-host-worker-count byte-identity.
 */
bool
keepInFleet(const std::string &name)
{
    if (name.rfind("host.", 0) == 0)
        return false;
    return name.find("{pmo=\"") == std::string::npos ||
           name.find("{pmo=\"all\"") != std::string::npos;
}

} // namespace

FleetResult
runFleet(const ServeConfig &cfg, unsigned hostWorkers)
{
    TERP_ASSERT(cfg.shards > 0, "runFleet: zero shards");
    auto wallStart = std::chrono::steady_clock::now();

    LoadGen load(cfg);
    FleetResult res;
    res.cfg = cfg;
    res.generated = load.totalRequests();
    res.slowSessions = load.slowSessions();
    res.horizon = load.horizon();
    res.shards.resize(cfg.shards);
    res.shardMetrics.resize(cfg.shards);

    // One task per shard, each run to the end: shards share no
    // state, so no simulated-clock agreement is needed between them.
    // A task builds its shard and keeps only the summary and the
    // registry the report needs, so at most one ShardDomain per host
    // worker is alive at a time.
    ParallelRunner pool(hostWorkers);
    for (unsigned k = 0; k < cfg.shards; ++k) {
        pool.add([&cfg, &load, &res, k] {
            ServeShard shard(cfg, k, load.shardStream(k));
            shard.run();
            res.shards[k] = shard.summary();
            res.shardMetrics[k] =
                shard.domain().runtime().metricsRegistry();
        });
    }
    pool.run();

    // Fleet aggregation on the coordinating thread, in shard-id
    // order (merge is commutative, so the order is cosmetic — but
    // fixing it makes the run bit-reproducible by inspection).
    res.fleet = std::make_shared<metrics::Registry>();
    res.fleet->setLabel("scheme",
                        core::schemeTag(cfg.runtime.scheme));
    res.fleet->setLabel("shard", "fleet");
    for (unsigned k = 0; k < cfg.shards; ++k) {
        const ShardSummary &sum = res.shards[k];
        res.endClock = std::max(res.endClock, sum.endClock);
        res.epochs = std::max(res.epochs, sum.lastEvent / kEpoch + 1);
        if (const auto &reg = res.shardMetrics[k])
            res.fleet->merge(*reg, keepInFleet);
    }

    res.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart)
            .count();
    return res;
}

} // namespace serve
} // namespace terp
