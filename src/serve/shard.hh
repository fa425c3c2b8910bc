/**
 * @file
 * One serving shard: a bounded request queue feeding a pool of
 * simulated worker threads over an isolated core::ShardDomain.
 *
 * The shard is a single-host-threaded discrete-event simulation.
 * Three event sources — the arrival stream, idle-worker assignment,
 * and the next op of each busy worker — are processed in global
 * simulated-time order (ties broken arrival < assignment < op,
 * then by worker id), and the domain's sweeper is advanced to each
 * event's timestamp before it executes. Time is therefore globally
 * monotone within the shard, exactly as under the batch scheduler
 * (sim::Machine::run fires sweep boundaries at the minimum runnable
 * clock), and the whole evolution is a pure function of the shard's
 * request stream. Host threads never share a shard, so running K
 * shards on any number of host workers yields identical results.
 *
 * Queueing model: an arrival that finds all workers busy waits in a
 * bounded FIFO; when the queue is full the request is *shed* —
 * counted, traced, and reported, never silently dropped. A request
 * executes as: regionBegin (attach path of the configured scheme),
 * ops timed cache-line accesses with compute in between, an optional
 * slow-client hold that keeps the region open past the sweeper
 * horizon, then regionEnd. Under the basic-blocking ablation a
 * worker whose regionBegin blocks simply stays ineligible until the
 * holder's regionEnd wakes it — the event loop skips blocked
 * workers, and the holder is by construction not blocked, so the
 * shard cannot deadlock.
 */

#ifndef TERP_SERVE_SHARD_HH
#define TERP_SERVE_SHARD_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hh"
#include "core/domain.hh"
#include "serve/config.hh"
#include "serve/loadgen.hh"

namespace terp {
namespace serve {

/** Deterministic end-of-run facts for the report. */
struct ShardSummary
{
    std::uint64_t arrived = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t slowCompleted = 0;
    std::uint64_t queueHwm = 0;
    Cycles lastEvent = 0; //!< time of the last event processed
    Cycles endClock = 0;
};

/** One shard of the serving fleet. */
class ServeShard
{
  public:
    /**
     * @param cfg    Fleet configuration (shared by all shards).
     * @param shard  This shard's id in [0, cfg.shards).
     * @param stream The shard's request stream from the LoadGen,
     *               copied; sorted by (arrival, session, seq).
     */
    ServeShard(const ServeConfig &cfg, unsigned shard,
               std::vector<Request> stream);

    ServeShard(const ServeShard &) = delete;
    ServeShard &operator=(const ServeShard &) = delete;

    /**
     * Run the discrete-event loop until the shard is drained (stream
     * exhausted, queue empty, all workers idle), then end the run:
     * mark the simulated workers done, run the sweeper past the last
     * exposure horizon so delayed detaches land (the chargeless
     * post-run drain path), and finalize the runtime.
     */
    void run();

    const ShardSummary &summary() const { return sum; }
    core::ShardDomain &domain() { return dom; }

  private:
    /** What a simulated worker is doing. */
    enum class Phase
    {
        Idle,
        Begin, //!< about to regionBegin (retried if Blocked)
        Op,    //!< executing timed accesses
        Hold,  //!< slow client keeping the region open
        End,   //!< about to regionEnd and complete
    };

    struct Worker
    {
        unsigned tid = 0;
        Phase phase = Phase::Idle;
        Request req;
        pm::PmoId localPmo = 0;
        unsigned localIdx = 0; //!< tenant index (manualHeld slot)
        unsigned opIdx = 0;
        Cycles holdLeft = 0;
        Cycles startedAt = 0; //!< assignment time (for latency)
        Rng ops{0};           //!< per-request op-offset stream
    };

    const ServeConfig cfg;
    core::ShardDomain dom;
    std::vector<Request> stream;
    std::size_t nextArrival = 0;

    std::vector<Worker> workers;
    std::deque<Request> queue;
    std::vector<pm::PmoId> tenants; //!< local index -> PmoId
    /**
     * Manual-insertion schemes (MM) allow one manual region per PMO
     * at a time process-wide, so the server serializes requests per
     * tenant: a worker whose Begin targets a held PMO is ineligible
     * until the holder's manualEnd releases it (and is then synced
     * to the release time, like a woken blocked thread).
     */
    std::vector<char> manualHeld;

    // ---- exposure provenance + burn-rate gauges -------------------
    /**
     * Per-tenant queued-request counts: while a tenant has requests
     * waiting in the shard queue, its open-but-unheld exposure spans
     * are attributed to QueueWait instead of the app/sweeper split
     * (the window is open because the server can't drain its work).
     */
    std::vector<unsigned> queuedPerTenant;
    /** Workers inside Phase::Hold per tenant (SlowClientHold). */
    std::vector<unsigned> holdersSlow;
    /**
     * Per-tenant SLO burn-rate state (tumbling fast/slow windows).
     * Empty unless cfg.tenantEwBudget > 0; a closed exposure window
     * is charged whole to the bucket containing its close time.
     */
    struct BurnState
    {
        std::uint64_t fastBucket = 0;
        std::uint64_t slowBucket = 0;
        Cycles fastSum = 0;
        Cycles slowSum = 0;
        metrics::Gauge *fast = nullptr;
        metrics::Gauge *slow = nullptr;
    };
    std::vector<BurnState> burn;

    ShardSummary sum;

    // Cached instruments (null when metrics are off).
    metrics::Counter *mArrived = nullptr;
    metrics::Counter *mDone = nullptr;
    metrics::Counter *mShed = nullptr;
    metrics::Counter *mSlow = nullptr;
    metrics::Gauge *mDepth = nullptr;
    metrics::LogHistogram *mLatency = nullptr;
    metrics::LogHistogram *mWait = nullptr;

    void admit(const Request &req);
    void assign(Worker &w, Cycles at);
    void stepWorker(Worker &w);
    void complete(Worker &w);
    /** EwTracker close hook: advance the tenant's burn windows. */
    void onWindowClose(pm::PmoId pmo, Cycles closeAt, Cycles len);
};

} // namespace serve
} // namespace terp

#endif // TERP_SERVE_SHARD_HH
