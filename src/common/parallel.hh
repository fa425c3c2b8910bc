/**
 * @file
 * The host thread pool behind every embarrassingly parallel loop of
 * the simulator: terp-bench's figure cells, crash-point
 * enumeration's crash worlds and terp-serve's shards.
 *
 * Each task is one independent simulation that writes only its own
 * pre-indexed result slot. The pool drains the tasks in arbitrary
 * order, and the caller reads the slots in index order afterwards, so
 * what it prints never depends on the worker count or the schedule.
 */

#ifndef TERP_COMMON_PARALLEL_HH
#define TERP_COMMON_PARALLEL_HH

#include <functional>
#include <vector>

namespace terp {

/**
 * CPUs the calling thread may run on: the size of its
 * sched_getaffinity mask, which is what nproc reports. At least 1.
 */
unsigned hostCpus();

/**
 * Queue of independent tasks drained by a fixed-size thread pool.
 *
 * Tasks must not touch shared mutable state except their own result
 * slot. run() blocks until every task finished; a task that throws
 * stops the queue and run() rethrows the first exception after the
 * pool joined.
 */
class ParallelRunner
{
  public:
    /**
     * @param jobs Worker threads, capped by the task count; 1 (or 0)
     *             runs inline, in order.
     */
    explicit ParallelRunner(unsigned jobs) : nJobs(jobs) {}

    /** Enqueue one task. Only valid before run(). */
    void add(std::function<void()> fn);

    /** Execute every queued task; returns when all completed. */
    void run();

  private:
    unsigned nJobs;
    std::vector<std::function<void()>> tasks;
};

} // namespace terp

#endif // TERP_COMMON_PARALLEL_HH
