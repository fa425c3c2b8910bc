/**
 * @file
 * Randomized schedules for the differential fuzzer.
 *
 * A schedule is a global interleaving of protection-construct calls,
 * data accesses, plain work and explicit sweeper ticks over a small
 * set of PMOs and threads. Generation is seed-deterministic and
 * scheme-aware: manual schemes get exclusive manualBegin/manualEnd
 * pairs, automatic schemes get (possibly nested, possibly
 * overlapping) regionBegin/regionEnd pairs and RAII guarded regions,
 * and the basic-blocking ablation additionally exercises the
 * block-on-attach path.
 *
 * One executor runs schedules (differ.hh), for the fuzzer and for
 * terp-crash's schedule workload alike. It skips ops that are
 * ill-formed in the state the run actually reached (e.g. an End whose
 * Begin blocked), asking the spec oracle's predicates, so any op
 * sequence — including every subsequence, which is what the shrinker
 * relies on — is a valid schedule.
 */

#ifndef TERP_CHECK_SCHEDULE_HH
#define TERP_CHECK_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "core/config.hh"
#include "pm/oid.hh"
#include "pm/pmo.hh"

namespace terp {
namespace check {

/** One event of a fuzz schedule. */
enum class OpKind
{
    Work,        //!< tid runs `work` cycles of application work
    Begin,       //!< regionBegin(tid, pmo, mode)
    End,         //!< regionEnd(tid, pmo)
    ManualBegin, //!< manualBegin(tid, pmo, mode)
    ManualEnd,   //!< manualEnd(tid, pmo)
    Access,      //!< tryAccess(tid, {pmo, offset}, write)
    Range,       //!< accessRange(tid, {pmo, offset}, bytes, write)
    Guarded,     //!< RAII RegionGuard + `accesses` accesses inside
    Sweep,       //!< force the next sweeper boundary to fire now
    TxPut,       //!< undo-log txn: begin, `accesses` writes, commit
    CrashRecover, //!< modeled power failure + restart + recovery
    TxBegin,     //!< TxManager begin (outermost or nested level)
    TxWrite,     //!< TxManager transactional store
    TxCommit,    //!< TxManager commit (durable iff outermost)
    TxAbort,     //!< TxManager abort (poisons the whole txn)
};

const char *opKindName(OpKind k);

struct Op
{
    OpKind kind = OpKind::Work;
    unsigned tid = 0;
    pm::PmoId pmo = 0;
    pm::Mode mode = pm::Mode::ReadWrite;
    bool write = false;
    std::uint64_t offset = 0; //!< Access/Range/TxPut byte offset
    std::uint64_t bytes = 0;  //!< Range length; TxPut write stride
                              //!< (0 = every write hits one word)
    Cycles work = 0;          //!< Work amount
    unsigned accesses = 0;    //!< Guarded/TxPut: accesses / writes
    pm::PmoId pmo2 = 0;       //!< TxBegin: second lock (0 = none)
    bool redo = false;        //!< TxBegin: redo-log transaction
};

struct Schedule
{
    unsigned threads = 2;
    unsigned pmos = 1;
    std::uint64_t pmoSize = 64 * KiB;
    Cycles ewTarget = 5 * cyclesPerUs;
    std::vector<Op> ops;
};

/** Generation knobs (CLI-exposed via tools/terp-fuzz). */
struct GenParams
{
    unsigned threads = 3;
    unsigned pmos = 2;
    unsigned events = 40;
    /**
     * Exposure-window target for generated runs. Must stay above the
     * attach-path latency (~8.2k cycles) so sweeper-driven window
     * closes always land after the window open; the generator
     * clamps to a 5 us floor.
     */
    Cycles ewTarget = 5 * cyclesPerUs;
    std::uint64_t pmoSize = 64 * KiB;
    /**
     * Mix undo-log transactions (TxPut) and crash/recover steps into
     * the schedule. Off by default so pre-existing seeds generate
     * byte-identical schedules.
     */
    bool persistOps = false;
    /**
     * Mix TxManager transactions into the schedule: nested
     * begin/commit, aborts, cross-thread lock conflicts, undo and
     * redo variants, and crash/recover at transaction-idle points.
     * Off by default (same seed-stability rule as persistOps).
     */
    bool txnOps = false;
};

/** Deterministically generate a schedule for @p cfg from @p seed. */
Schedule generate(std::uint64_t seed, const core::RuntimeConfig &cfg,
                  const GenParams &p);

/** One-line rendering of an op, for divergence reports. */
std::string describeOp(const Op &op);

} // namespace check
} // namespace terp

#endif // TERP_CHECK_SCHEDULE_HH
