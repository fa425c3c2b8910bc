/**
 * @file
 * Configuration of terp-serve: a long-lived multi-tenant PMO server.
 *
 * The batch harnesses (bench/, tools/terp-bench) answer "what does
 * one run of workload W cost under scheme S?". terp-serve asks the
 * operational question instead: a persistent server owns a fleet of
 * PMOs partitioned into shards and serves an open-loop stream of
 * attach/access/detach transactions from thousands of simulated
 * client sessions. What does the *exposure posture* of that fleet
 * look like — EW/TEW tails, SLO violations, request tail latency —
 * when tenant popularity is Zipfian, arrivals are bursty, and some
 * clients are slow enough to hold their attach windows past the
 * sweeper horizon?
 *
 * Everything here is expressed in simulated cycles and seeded
 * randomness: a (seed, shards) pair fully determines the transaction
 * stream, the per-shard interleaving and the final metrics
 * aggregate, independent of how many *host* worker threads execute
 * the shards (see server.hh for the determinism argument).
 */

#ifndef TERP_SERVE_CONFIG_HH
#define TERP_SERVE_CONFIG_HH

#include <cstdint>

#include "common/units.hh"
#include "core/config.hh"
#include "sim/machine.hh"

namespace terp {
namespace serve {

/**
 * Zipfian skew of tenant popularity over the fleet's PMOs
 * (0 = uniform, 0.99 = YCSB default). Hot tenants are spread
 * round-robin across shards (global pmo g lives on shard
 * g % shards), so skew concentrates load within shards, not on
 * one shard.
 */
constexpr double kZipfTheta = 0.99;

/** Mean of a session's off-gap and the chance of one per request. */
constexpr Cycles kOffMean = 200 * cyclesPerUs;
constexpr double kOffProb = 0.1;

/** Bytes touched per op. */
constexpr std::uint64_t kBytesPerOp = 256;
/** Pure compute instructions between ops (jittered ±50%). */
constexpr std::uint64_t kInstrPerOp = 400;

/**
 * Exposure SLOs judged per closed window (see
 * RuntimeConfig::ewSlo): EW violated when a window outlives 2x the
 * sweeper target (the sweeper should close everything within
 * target + one period); TEW violated well past the insertion
 * target — an ordinary request holds thread permission for a few
 * microseconds of accesses, so only queue-tail requests and slow
 * clients should alert.
 */
constexpr Cycles kEwSlo = 2 * target::defaultEw;
constexpr Cycles kTewSlo = 10 * target::defaultTew;

/**
 * Fast/slow burn-rate windows (tumbling, aligned to t=0),
 * following the classic multi-window burn-rate alerting recipe:
 * the fast window catches short bursts quickly, the slow window
 * confirms sustained burn. For each closed exposure window the
 * tenant's bucket sums advance and
 *   burn = (exposed cycles in window / window) / tenantEwBudget
 * is published as serve.slo_burn{tenant=...,win="fast"|"slow"}
 * gauges (the gauge high-water mark keeps the peak). A tenant
 * whose fast AND slow burn both exceed 1.0 is over budget; the
 * alerting rule lives with whoever scrapes the gauges.
 */
constexpr Cycles kBurnFast = 50 * cyclesPerUs;
constexpr Cycles kBurnSlow = 400 * cyclesPerUs;

/** Full terp-serve fleet configuration. */
struct ServeConfig
{
    /** Master seed: every stream in the run derives from it. */
    std::uint64_t seed = 1;

    /** Number of shards (independent runtime domains). */
    unsigned shards = 2;
    /** Simulated server worker threads per shard. */
    unsigned workersPerShard = 4;
    /** Tenant PMOs per shard. */
    unsigned pmosPerShard = 8;
    /** Size of each tenant PMO. */
    std::uint64_t pmoSize = 4 * MiB;

    /** Simulated client sessions (each is an open-loop stream). */
    unsigned sessions = 200;
    /** Requests issued per session. */
    unsigned requestsPerSession = 16;

    /**
     * Bursty on/off arrivals: within a burst, successive requests of
     * a session are separated by an exponential think time with this
     * mean; with probability kOffProb the session instead goes quiet
     * for an exponential off-gap with mean kOffMean (Poisson-ish
     * bursts riding on a heavy-tailed envelope).
     */
    Cycles thinkMean = 8 * cyclesPerUs;

    /** Ops per request (each touches kBytesPerOp bytes). */
    unsigned opsPerRequest = 6;

    /**
     * Fraction of sessions that are *slow clients*: every one of
     * their requests holds the protection region open for slowHold
     * extra cycles after its last access — deliberately past the
     * sweeper horizon, so the run exercises forced detaches /
     * delayed-detach handling and trips the TEW SLO.
     */
    double slowFraction = 0.02;
    Cycles slowHold = 3 * target::defaultEw;

    /**
     * Bounded per-shard request queue. An arrival that finds the
     * queue full is shed — counted and traced, never silently
     * dropped (satellite: backpressure must be observable).
     */
    unsigned queueCapacity = 64;

    /**
     * Per-tenant exposure budget for SLO burn-rate alerting: the
     * fraction of wall-clock each tenant PMO is *allowed* to sit
     * exposed (mapped). 0 disables budgets and burn gauges entirely
     * — attribution stays on, alerting is opt-in, and the default
     * posture report is unchanged.
     */
    double tenantEwBudget = 0.0;

    /** Protection scheme + machine model of every shard. */
    core::RuntimeConfig runtime = core::RuntimeConfig::tt();
    sim::MachineConfig machine;

    /** Attach a persistence domain (undo logs) to each shard. */
    bool persistence = false;

    /**
     * Transactional writes per request: when nonzero (and
     * persistence is on), every request ends with one multi-op
     * TxManager transaction on its tenant PMO — this many 8-byte
     * writes committed as a single durable point, alternating
     * seeded between the undo and redo log variants. A request
     * whose begin loses the per-PMO lock race to a concurrent
     * worker skips its transaction; the rejection is observable as
     * pm.txn_busy in the merged metrics.
     */
    unsigned txnWrites = 0;

    /** Total tenant PMOs across the fleet. */
    std::uint64_t
    totalPmos() const
    {
        return static_cast<std::uint64_t>(shards) * pmosPerShard;
    }

    /** Small, fast configuration for tests and CI smoke runs. */
    static ServeConfig quick();
};

} // namespace serve
} // namespace terp

#endif // TERP_SERVE_CONFIG_HH
