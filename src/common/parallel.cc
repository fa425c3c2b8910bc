#include "common/parallel.hh"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

namespace terp {

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
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

    // The calling thread is one of the workers, so a pool of n holds
    // n - 1 extra thread stacks and malloc arenas, not n.
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(nJobs, tasks.size()));
    std::vector<std::thread> pool;
    pool.reserve(n - 1);
    try {
        for (unsigned i = 1; i < n; ++i)
            pool.emplace_back(worker);
    } catch (const std::system_error &) {
        // No thread to spare: the workers already started and this
        // one still drain the whole queue.
    }
    worker();
    for (auto &t : pool)
        t.join();
    tasks.clear();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace terp
