#include "harness.hh"

#include <atomic>
#include <mutex>
#include <string>

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

} // namespace bench
} // namespace terp
