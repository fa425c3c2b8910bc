#include "common/parallel.hh"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
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

namespace {

/** True on a pool helper, and on a caller while it drains its run. */
thread_local bool inTask = false;

/** One run's shared queue state. */
struct Job
{
    std::vector<std::function<void()>> *tasks = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errLock;

    /** Claim and run tasks until the queue is empty or failed. */
    void
    drain()
    {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks->size() ||
                failed.load(std::memory_order_relaxed))
                return;
            try {
                (*tasks)[i]();
            } catch (...) {
                std::lock_guard<std::mutex> g(errLock);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    }
};

/**
 * The process-wide helpers. Created lazily, never destroyed: parked
 * helpers are left to process exit, not joined from a static
 * destructor.
 */
class Pool
{
  public:
    static Pool &
    get()
    {
        static Pool *pool = new Pool;
        return *pool;
    }

    /**
     * Run @p tasks on the caller and up to @p helpers helpers; returns
     * the first exception a task threw, once every claimed task ended.
     */
    std::exception_ptr
    run(std::vector<std::function<void()>> &tasks, unsigned helpers)
    {
        std::lock_guard<std::mutex> one(runLock);
        Job job;
        job.tasks = &tasks;
        const unsigned n = grow(helpers);
        place(n);
        pending.store(n, std::memory_order_relaxed);
        for (unsigned i = 0; i < n; ++i) {
            Helper &h = *slots[i];
            {
                std::lock_guard<std::mutex> g(h.lock);
                h.job = &job;
            }
            h.wake.notify_one();
        }
        inTask = true;
        job.drain();
        inTask = false;
        {
            std::unique_lock<std::mutex> g(doneLock);
            done.wait(g, [this] {
                return pending.load(std::memory_order_acquire) == 0;
            });
        }
        return job.firstError;
    }

  private:
    struct Helper
    {
        std::mutex lock;
        std::condition_variable wake;
        Job *job = nullptr;
        int cpu = -1; //!< the CPU it is pinned to, -1 for none
        pthread_t thread{};
    };

    /** Start helpers up to @p want; returns how many exist. */
    unsigned
    grow(unsigned want)
    {
        while (slots.size() < want) {
            auto h = std::make_unique<Helper>();
            Helper *raw = h.get();
            try {
                std::thread t([this, raw] { loop(*raw); });
                h->thread = t.native_handle();
                t.detach();
            } catch (const std::system_error &) {
                // No thread to spare: the helpers already started and
                // the caller drain the whole queue.
                break;
            }
            slots.push_back(std::move(h));
        }
        return static_cast<unsigned>(
            std::min<std::size_t>(want, slots.size()));
    }

    /**
     * Pin the first @p n helpers one to a CPU of the caller's current
     * mask, skipping the caller's own CPU while others remain. A new
     * thread is queued on its parent's CPU and starts only once the
     * load balancer moves it, which takes longer than a short run.
     */
    void
    place(unsigned n)
    {
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (sched_getaffinity(0, sizeof mask, &mask) != 0)
            return;
        const int self = sched_getcpu();
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &mask) && c != self)
                cpus.push_back(c);
        if (self >= 0 && CPU_ISSET(self, &mask))
            cpus.push_back(self);
        if (cpus.empty())
            return;
        for (unsigned i = 0; i < n; ++i) {
            Helper &h = *slots[i];
            const int cpu = cpus[i % cpus.size()];
            if (h.cpu == cpu)
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (pthread_setaffinity_np(h.thread,
                                       sizeof one, &one) == 0)
                h.cpu = cpu;
        }
    }

    void
    loop(Helper &h)
    {
        inTask = true;
        for (;;) {
            Job *job;
            {
                std::unique_lock<std::mutex> g(h.lock);
                h.wake.wait(g, [&h] { return h.job != nullptr; });
                job = h.job;
                h.job = nullptr;
            }
            job->drain();
            if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> g(doneLock);
                done.notify_one();
            }
        }
    }

    std::mutex runLock; //!< one pooled run at a time
    std::vector<std::unique_ptr<Helper>> slots;
    std::atomic<unsigned> pending{0};
    std::mutex doneLock;
    std::condition_variable done;
};

} // namespace

void
ParallelRunner::add(std::function<void()> fn)
{
    tasks.push_back(std::move(fn));
}

void
ParallelRunner::run()
{
    // One job, one task, or a run issued from inside a task: inline,
    // in order, so a nested run never waits on busy helpers.
    if (nJobs <= 1 || tasks.size() <= 1 || inTask) {
        for (auto &t : tasks)
            t();
        tasks.clear();
        return;
    }

    // Work queue: each worker claims the next unclaimed index. Task
    // results land in pre-indexed slots owned by the caller, so the
    // claim order cannot influence what gets printed later. The
    // caller is one of the workers, so n workers take n - 1 helpers.
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(nJobs, tasks.size()));
    const std::exception_ptr error = Pool::get().run(tasks, n - 1);
    tasks.clear();
    if (error)
        std::rethrow_exception(error);
}

} // namespace terp
