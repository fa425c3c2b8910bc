#include "serve/server.hh"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "common/logging.hh"

namespace terp {
namespace serve {

namespace {

/**
 * Bounded work queue + fixed worker pool with promise-based
 * completion. submit() blocks while the queue is at capacity
 * (backpressure on the coordinator, never unbounded growth) and
 * returns a future the caller joins on.
 */
class HostPool
{
  public:
    HostPool(unsigned workers, std::size_t capacity)
        : cap(capacity ? capacity : 1)
    {
        if (workers == 0)
            workers = 1;
        for (unsigned i = 0; i < workers; ++i)
            pool.emplace_back([this] { drain(); });
    }

    ~HostPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stopping = true;
        }
        workAvailable.notify_all();
        for (auto &t : pool)
            t.join();
    }

    std::future<void>
    submit(std::function<void()> fn)
    {
        auto p = std::make_shared<std::promise<void>>();
        std::future<void> f = p->get_future();
        {
            std::unique_lock<std::mutex> lk(mu);
            spaceAvailable.wait(
                lk, [this] { return tasks.size() < cap; });
            tasks.push_back({std::move(fn), std::move(p)});
        }
        workAvailable.notify_one();
        return f;
    }

  private:
    struct Task
    {
        std::function<void()> fn;
        std::shared_ptr<std::promise<void>> done;
    };

    void
    drain()
    {
        for (;;) {
            Task t;
            {
                std::unique_lock<std::mutex> lk(mu);
                workAvailable.wait(lk, [this] {
                    return stopping || !tasks.empty();
                });
                if (tasks.empty())
                    return; // stopping and drained
                t = std::move(tasks.front());
                tasks.pop_front();
            }
            spaceAvailable.notify_one();
            try {
                t.fn();
                t.done->set_value();
            } catch (...) {
                t.done->set_exception(std::current_exception());
            }
        }
    }

    std::mutex mu;
    std::condition_variable workAvailable;
    std::condition_variable spaceAvailable;
    std::deque<Task> tasks;
    std::vector<std::thread> pool;
    std::size_t cap;
    bool stopping = false;
};

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
    TERP_ASSERT(cfg.epoch > 0, "runFleet: zero epoch");
    auto wallStart = std::chrono::steady_clock::now();

    LoadGen load(cfg);
    std::vector<std::unique_ptr<ServeShard>> shards;
    for (unsigned k = 0; k < cfg.shards; ++k)
        shards.push_back(std::make_unique<ServeShard>(
            cfg, k, load.shardStream(k)));

    FleetResult res;
    res.cfg = cfg;
    res.generated = load.totalRequests();
    res.slowSessions = load.slowSessions();
    res.horizon = load.horizon();

    {
        HostPool pool(hostWorkers, 2 * cfg.shards);
        // Plain bytes, not vector<bool>: each shard's task writes
        // its own slot from a pool thread.
        std::vector<char> done(cfg.shards, 0);
        Cycles epochEnd = cfg.epoch;
        for (;;) {
            bool all = true;
            std::vector<std::future<void>> joins;
            for (unsigned k = 0; k < cfg.shards; ++k) {
                if (done[k])
                    continue;
                all = false;
                ServeShard *s = shards[k].get();
                // done[k] is only written by this task and only
                // read after the barrier; shards never share state.
                char *slot = &done[k];
                joins.push_back(pool.submit([s, epochEnd, slot] {
                    if (s->processUntil(epochEnd))
                        *slot = 1;
                }));
            }
            if (all)
                break;
            for (auto &j : joins)
                j.get(); // epoch barrier = the fleet clock
            ++res.epochs;
            epochEnd += cfg.epoch;
        }

        // Drain + finalize, still parallel across shards.
        std::vector<std::future<void>> joins;
        for (auto &s : shards)
            joins.push_back(
                pool.submit([sp = s.get()] { sp->finish(); }));
        for (auto &j : joins)
            j.get();
    }

    // Fleet aggregation on the coordinating thread, in shard-id
    // order (merge is commutative, so the order is cosmetic — but
    // fixing it makes the run bit-reproducible by inspection).
    res.fleet = std::make_shared<metrics::Registry>();
    res.fleet->setLabel("scheme",
                        core::schemeTag(cfg.runtime.scheme));
    res.fleet->setLabel("shard", "fleet");
    for (auto &s : shards) {
        res.shards.push_back(s->summary());
        if (s->summary().endClock > res.endClock)
            res.endClock = s->summary().endClock;
        auto reg = s->domain().runtime().metricsRegistry();
        res.shardMetrics.push_back(reg);
        if (reg)
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
