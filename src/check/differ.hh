/**
 * @file
 * The schedule executor: the one interpreter of check::Schedule ops.
 * It replays a schedule against a real core::Runtime and the
 * SpecOracle in lockstep, cross-checking after every event. The
 * oracle's pre-execution predicates are its only skip rules, so an
 * op that is ill-formed in the state the run reached is skipped the
 * same way on every path. Two drivers use it: the differential
 * fuzzer (runSchedule) and the crash enumerator's schedule workload
 * (replaySchedule, on a crash world with a power failure armed).
 *
 * Checked per op: real-vs-silent decision (spec verdict vs observed
 * syscall-counter deltas), the exact cycle charge on the acting
 * thread, access outcomes against the mirrored permission state,
 * mapped/holder/blocked state probes, and the accessRange line count
 * (via the Other charge bucket, whose only per-op source is the
 * 1-cycle permission-matrix check). Sweeper boundaries are fired
 * explicitly between ops and their thread-clock effects simulated
 * independently. After the run: EW/TEW window summaries, the
 * reported silent fraction, and the PR-1 trace audit as a third
 * opinion.
 *
 * Under runSchedule a runtime assertion (TERP_ASSERT throws) is
 * caught and reported as a "crash" divergence, so the shrinker can
 * minimize those too.
 */

#ifndef TERP_CHECK_DIFFER_HH
#define TERP_CHECK_DIFFER_HH

#include <string>
#include <vector>

#include "check/schedule.hh"
#include "core/config.hh"

namespace terp {
namespace check {

struct CrashWorld;
struct Ledger;

/** Outcome of one differential run. */
struct DiffResult
{
    bool ok = false;
    std::vector<std::string> complaints;
};

/** Replay @p s against a runtime with @p cfg and the spec oracle. */
DiffResult runSchedule(const Schedule &s,
                       const core::RuntimeConfig &cfg);

/**
 * Replay @p s on @p world without the end-of-run drain, appending
 * each divergence to @p complaints. Every TxPut is entered in @p led
 * around its log begin/commit, so a PowerFailure thrown by an armed
 * fault leaves the ledger the recovery oracle needs; the exception
 * propagates. Throws std::invalid_argument when the world does not
 * match the schedule: a different EW target, fewer PMOs or threads,
 * or smaller PMOs.
 */
void replaySchedule(const Schedule &s, CrashWorld &world, Ledger &led,
                    std::vector<std::string> &complaints);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_DIFFER_HH
