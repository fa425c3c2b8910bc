/**
 * @file
 * The terp-serve fleet driver: one host task per shard.
 *
 * Each shard is one task on the shared host pool
 * (terp::ParallelRunner): the task builds the shard, runs its event
 * loop to the end and keeps only the shard's summary and metrics
 * registry, so peak memory grows with the host workers, not with the
 * shard count. Shards share no state and need no simulated-clock
 * agreement, so there is no barrier between them: a shard's clock
 * only bounds its own exposure windows.
 *
 * Determinism for any worker count: a shard is only ever touched by
 * one task, each shard's evolution is a pure function of its request
 * stream (see shard.hh), and the fleet aggregate is a commutative
 * metrics merge collected in shard-id order on the coordinating
 * thread after the pool joined. Host threads decide *when* a shard
 * runs, never *what* it computes — so `--workers=N` changes wall
 * time only, and the posture report is byte-identical for fixed
 * (seed, shards).
 */

#ifndef TERP_SERVE_SERVER_HH
#define TERP_SERVE_SERVER_HH

#include <memory>
#include <vector>

#include "metrics/registry.hh"
#include "serve/config.hh"
#include "serve/loadgen.hh"
#include "serve/shard.hh"

namespace terp {
namespace serve {

/** The unit FleetResult::epochs counts the fleet's run time in. */
constexpr Cycles kEpoch = 100 * cyclesPerUs;

/** End-of-run results, everything the report/exports need. */
struct FleetResult
{
    ServeConfig cfg;
    std::uint64_t generated = 0; //!< requests in the load
    unsigned slowSessions = 0;
    Cycles horizon = 0;          //!< latest arrival
    Cycles endClock = 0;         //!< max shard clock at drain
    /**
     * kEpoch-long spans of simulated time up to the last shard's
     * last event: max over shards of lastEvent / kEpoch + 1, so at
     * least 1. It is the number of kEpoch steps a fleet advanced in
     * lockstep would take to drain.
     */
    std::uint64_t epochs = 0;
    double wallSeconds = 0.0;    //!< host time (not in the report)

    std::vector<ShardSummary> shards;
    /** Per-shard registries, index = shard id. */
    std::vector<std::shared_ptr<metrics::Registry>> shardMetrics;
    /**
     * Fleet roll-up: shard registries merged in shard-id order,
     * keeping per-PMO exposure series out (only meaningful within a
     * shard) exactly like the bench aggregate does.
     */
    std::shared_ptr<metrics::Registry> fleet;
};

/**
 * Run the configured fleet on min(@p hostWorkers, shards) host
 * threads. The result is independent of @p hostWorkers (enforced by
 * tests and the serve golden). A shard that throws is rethrown once
 * the pool has joined.
 */
FleetResult runFleet(const ServeConfig &cfg, unsigned hostWorkers);

} // namespace serve
} // namespace terp

#endif // TERP_SERVE_SERVER_HH
