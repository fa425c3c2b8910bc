#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

namespace terp {
namespace bench {

namespace {
std::atomic<std::uint64_t> tallySims{0};
std::atomic<std::uint64_t> tallyCycles{0};
} // namespace

SimTally
tallySnapshot()
{
    SimTally t;
    t.sims = tallySims.load(std::memory_order_relaxed);
    t.simCycles = tallyCycles.load(std::memory_order_relaxed);
    return t;
}

void
noteSim(std::uint64_t cycles)
{
    tallySims.fetch_add(1, std::memory_order_relaxed);
    tallyCycles.fetch_add(cycles, std::memory_order_relaxed);
}

metrics::Registry &
globalMetrics()
{
    static metrics::Registry reg;
    return reg;
}

namespace {

std::mutex &
globalMetricsLock()
{
    static std::mutex m;
    return m;
}

// Per-PMO series are dropped from the aggregate — PMO ids are only
// meaningful within one run — keeping the pmo="all" rollups.
bool
keepInAggregate(const std::string &name)
{
    return name.find("{pmo=\"") == std::string::npos ||
           name.find("{pmo=\"all\"") != std::string::npos;
}

} // namespace

void
noteRunMetrics(const workloads::RunResult &r)
{
    if (!r.metrics)
        return;
    std::lock_guard<std::mutex> g(globalMetricsLock());
    globalMetrics().merge(*r.metrics, keepInAggregate, {"scheme"});
}

workloads::RunResult
runWhisperCounted(const std::string &name,
                  const core::RuntimeConfig &cfg,
                  const workloads::WhisperParams &params)
{
    workloads::RunResult r = workloads::runWhisper(name, cfg, params);
    noteSim(r.totalCycles);
    noteRunMetrics(r);
    return r;
}

workloads::RunResult
runSpecCounted(const std::string &name,
               const core::RuntimeConfig &cfg,
               const workloads::SpecParams &params)
{
    workloads::RunResult r = workloads::runSpec(name, cfg, params);
    noteSim(r.totalCycles);
    noteRunMetrics(r);
    return r;
}

void
ParallelRunner::add(std::function<void()> fn)
{
    tasks.push_back(std::move(fn));
}

void
ParallelRunner::run()
{
    if (nJobs <= 1 || tasks.size() <= 1) {
        for (auto &t : tasks)
            t();
        tasks.clear();
        return;
    }

    // Work queue: each worker claims the next unclaimed index. Task
    // results land in pre-indexed slots owned by the caller, so the
    // claim order cannot influence what gets printed later.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errLock;

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size() ||
                failed.load(std::memory_order_relaxed))
                return;
            try {
                tasks[i]();
            } catch (...) {
                std::lock_guard<std::mutex> g(errLock);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(nJobs, tasks.size()));
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    tasks.clear();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace bench
} // namespace terp
