#include "check/differ.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "check/oracle.hh"
#include "check/recovery_oracle.hh"
#include "check/tx_oracle.hh"
#include "common/units.hh"
#include "pm/tx_manager.hh"

namespace terp {
namespace check {

namespace {

class Replay
{
  public:
    Replay(const Schedule &sched, CrashWorld &world, Ledger &ledger,
           std::vector<std::string> &complaints)
        : s(sched), w(world), led(ledger), out(complaints),
          oracle(cfg, mach.threadCount())
    {
        if (cfg.ewTarget == s.ewTarget && w.nPmos >= s.pmos &&
            mach.threadCount() >= s.threads && w.pmoBytes >= s.pmoSize)
            return;
        std::ostringstream os;
        os << "world (EW " << cfg.ewTarget << ", " << w.nPmos
           << " PMOs of " << w.pmoBytes << " B, " << mach.threadCount()
           << " threads) does not fit the schedule (EW " << s.ewTarget
           << ", " << s.pmos << " PMOs of " << s.pmoSize << " B, "
           << s.threads << " threads)";
        throw std::invalid_argument(os.str());
    }

    void
    run()
    {
        for (opIdx = 0; opIdx < s.ops.size(); ++opIdx) {
            const Op &op = s.ops[opIdx];
            if (op.kind == OpKind::Sweep) {
                // Force the next sweeper boundary to fire now.
                fireNextSweep();
                continue;
            }
            sim::ThreadContext &tc = mach.thread(op.tid);
            advanceSweeps(tc.now());
            if (oracle.isBlocked(op.tid) != tc.blocked()) {
                complain(oracle.isBlocked(op.tid)
                             ? "oracle blocked, simulator runnable"
                             : "simulator blocked, oracle runnable");
                continue;
            }
            if (tc.blocked())
                continue; // every op of a blocked thread is skipped
            execute(op, tc);
            probe(op);
            checkBlockedMirror();
        }
    }

    std::size_t currentOp() const { return opIdx; }

    /**
     * End of run: mark every thread done, let the sweeper drain
     * delayed detaches up to the final clock (nobody may be charged
     * any more), then close the books and compare them.
     */
    void
    drain()
    {
        draining = true;
        unsigned n = mach.threadCount();
        std::vector<Cycles> clk(n);
        for (unsigned i = 0; i < n; ++i) {
            clk[i] = mach.thread(i).now();
            mach.thread(i).done = true;
        }
        Cycles tEnd = mach.maxClock();
        advanceSweeps(tEnd);
        for (unsigned i = 0; i < n; ++i) {
            if (mach.thread(i).now() != clk[i]) {
                std::ostringstream os;
                os << "drain sweep charged finished thread " << i
                   << " (" << clk[i] << " -> "
                   << mach.thread(i).now() << ")";
                complain(os.str());
            }
        }

        rt.finalize();
        oracle.finalize(tEnd);

        bool hasTxLocks = false;
        for (const Op &op : s.ops) {
            if (op.kind == OpKind::TxBegin ||
                op.kind == OpKind::TxWrite ||
                op.kind == OpKind::TxCommit ||
                op.kind == OpKind::TxAbort) {
                hasTxLocks = true;
                break;
            }
        }
        for (pm::PmoId p = 1; p <= s.pmos; ++p) {
            compareSummary("EW", p, rt.exposure().ewSummaryFor(p),
                           oracle.ewSummary(p));
            compareSummary("TEW", p, rt.exposure().tewSummaryFor(p),
                           oracle.tewSummary(p));
            // Blame attribution: the oracle's mirror must predict
            // the tracker's per-cause totals exactly. TxManager lock
            // contention installs hold-cause overrides the mirror
            // does not model, so schedules with locking txn ops only
            // get the (always-on) trace-audit recomputation below.
            if (hasTxLocks)
                continue;
            for (unsigned c = 0; c < semantics::numBlameCauses; ++c) {
                auto cause = static_cast<semantics::BlameCause>(c);
                Cycles got = rt.exposure().blameTotal(p, cause);
                Cycles want = oracle.blameTotal(p, cause);
                if (got == want)
                    continue;
                std::ostringstream os;
                os << "blame for PMO " << p << " cause "
                   << semantics::blameCauseName(cause)
                   << ": runtime " << got << ", oracle " << want;
                complain(os.str());
            }
        }

        double got = rt.report().silentFraction;
        double want = oracle.expectedSilentFraction();
        if (std::fabs(got - want) > 1e-9) {
            std::ostringstream os;
            os << "silent fraction " << got << ", oracle expects "
               << want;
            complain(os.str());
        }

        // Every value a committed transaction wrote must be durable.
        // Open (shrinker-truncated) transactions only dirty the
        // volatile image, so the persisted image is checkable even
        // when the schedule ends mid-transaction.
        pm::PersistController &ctl = dom.controller();
        for (const auto &[raw, val] : txo.committed()) {
            if (ctl.persistedLoad(pm::Oid::fromRaw(raw)) != val) {
                std::ostringstream os;
                os << "committed value not durable at end of run "
                      "(raw 0x"
                   << std::hex << raw << ")";
                complain(os.str());
            }
        }

        std::vector<std::string> tmp;
        trace::TimelineReplay audited;
        auditTrace(w, tEnd, audited, tmp);
        flush(tmp);
    }

  private:
    struct Probe
    {
        Cycles t0 = 0;
        std::uint64_t att0 = 0;
        std::uint64_t det0 = 0;
    };

    const Schedule &s;
    CrashWorld &w;
    Ledger &led;
    std::vector<std::string> &out;
    const core::RuntimeConfig &cfg = w.cfg;
    const bool basic = cfg.scheme == core::Scheme::Basic;
    sim::Machine &mach = w.machine();
    core::Runtime &rt = w.runtime();
    pm::PersistDomain &dom = *w.persistence();
    SpecOracle oracle;
    /** Transaction-layer spec mirror (durable image included). */
    TxOracle txo{pm::TxManager::undoLogOff,
                 pm::TxManager::redoLogOff};
    std::size_t opIdx = 0;
    bool draining = false;

    std::string
    context() const
    {
        std::ostringstream os;
        if (draining)
            os << "[drain] ";
        else if (opIdx < s.ops.size())
            os << "[op " << opIdx << ": " << describeOp(s.ops[opIdx])
               << "] ";
        return os.str();
    }

    void
    complain(const std::string &msg)
    {
        out.push_back(context() + msg);
    }

    /** Merge oracle complaints, prefixed with the op context. */
    void
    flush(std::vector<std::string> &tmp)
    {
        for (auto &m : tmp)
            complain(m);
        tmp.clear();
    }

    Probe
    preOp(const sim::ThreadContext &tc) const
    {
        const core::OverheadReport r = rt.report();
        return {tc.now(), r.attachSyscalls, r.detachSyscalls};
    }

    Observed
    postOp(const sim::ThreadContext &tc, const Probe &p) const
    {
        const core::OverheadReport r = rt.report();
        return {p.t0, tc.now(), r.attachSyscalls - p.att0,
                r.detachSyscalls - p.det0};
    }

    void
    advanceSweeps(Cycles t)
    {
        while (w.nextSweepTick() <= t)
            fireNextSweep();
    }

    /**
     * Fire the next sweeper boundary: plan with the oracle, simulate
     * the thread-clock charges independently, run the real sweep,
     * then compare clocks and mapped state.
     */
    void
    fireNextSweep()
    {
        const Cycles now = w.nextSweepTick();
        std::vector<std::string> tmp;
        std::vector<PlannedSweep> plan = oracle.planSweep(now, tmp);
        flush(tmp);

        // The CB applies actions in entry order; the software timer
        // (and the oracle) in ascending PMO id.
        std::vector<PlannedSweep> ordered;
        if (cfg.scheme == core::Scheme::TT) {
            for (pm::PmoId pmo : rt.circularBuffer().residentPmos())
                for (const PlannedSweep &a : plan)
                    if (a.pmo == pmo)
                        ordered.push_back(a);
            if (ordered.size() != plan.size()) {
                std::ostringstream os;
                os << "sweep@" << now << ": oracle plans "
                   << plan.size() << " actions but only "
                   << ordered.size() << " PMOs are CB-resident";
                complain(os.str());
                // Step past the boundary without sweeping.
                w.sweepTo(now, [](Cycles) { return false; });
                return;
            }
        } else {
            ordered = plan;
        }

        // Simulate the charges: a forced detach syncs the
        // earliest-running live thread to the boundary and bills it
        // the detach syscall; a forced randomization suspends every
        // live thread for the remap + shootdown.
        unsigned n = mach.threadCount();
        std::vector<Cycles> clk(n);
        std::vector<bool> live(n);
        for (unsigned i = 0; i < n; ++i) {
            clk[i] = mach.thread(i).now();
            live[i] = !mach.thread(i).done;
        }
        for (const PlannedSweep &a : ordered) {
            if (a.detach) {
                int best = -1;
                for (unsigned i = 0; i < n; ++i)
                    if (live[i] && (best < 0 || clk[i] < clk[best]))
                        best = static_cast<int>(i);
                Cycles closeAt = now;
                if (best >= 0) {
                    clk[best] = std::max(clk[best], now) +
                                latency::detachSyscall +
                                latency::tlbInvalidate;
                    closeAt = clk[best];
                }
                oracle.applySweepDetach(a.pmo, closeAt);
            } else {
                for (unsigned i = 0; i < n; ++i)
                    if (live[i])
                        clk[i] += latency::randomize +
                                  latency::tlbInvalidate;
                oracle.applySweepRandomize(a.pmo, now);
            }
        }

        w.sweepTo(now);

        for (unsigned i = 0; i < n; ++i) {
            if (mach.thread(i).now() != clk[i]) {
                std::ostringstream os;
                os << "sweep@" << now << ": thread " << i
                   << " clock expected " << clk[i] << ", got "
                   << mach.thread(i).now();
                complain(os.str());
            }
        }
        for (pm::PmoId p = 1; p <= s.pmos; ++p) {
            if (rt.mapped(p) != oracle.mappedView(p)) {
                std::ostringstream os;
                os << "sweep@" << now << ": PMO " << p
                   << " mapped=" << rt.mapped(p) << ", oracle says "
                   << oracle.mappedView(p);
                complain(os.str());
            }
        }
        oracle.checkSweepInvariant(now, tmp);
        flush(tmp);
    }

    void
    execute(const Op &op, sim::ThreadContext &tc)
    {
        std::vector<std::string> tmp;
        switch (op.kind) {
          case OpKind::Work:
            tc.work(op.work);
            break;

          case OpKind::Begin: {
            if (!cfg.autoInsertion())
                break;
            if (basic && oracle.ownsBasic(op.tid, op.pmo))
                break; // nested basic attach is invalid: skip
            Probe pr = preOp(tc);
            bool expectBlock = basic && oracle.willBlock(op.tid, op.pmo);
            core::GuardResult g = rt.regionBegin(tc, op.pmo, op.mode);
            if (expectBlock) {
                if (g != core::GuardResult::Blocked)
                    complain("begin should have blocked");
                Observed o = postOp(tc, pr);
                if (o.tPost != o.tPre || o.attaches || o.detaches)
                    complain("blocked begin had side effects");
                oracle.noteBlocked(op.tid, op.pmo, tmp);
            } else {
                if (g != core::GuardResult::Ok)
                    complain("begin blocked unexpectedly");
                else
                    oracle.checkBegin(op.tid, op.pmo, op.mode,
                                      postOp(tc, pr), tmp);
            }
            break;
          }

          case OpKind::End: {
            if (!cfg.autoInsertion())
                break;
            if (!oracle.canEnd(op.tid, op.pmo))
                break; // unmatched end: skip
            if (!oracle.endSafeAt(op.tid, op.pmo, tc.now()))
                break; // would rewind the exposure tracker
            Probe pr = preOp(tc);
            rt.regionEnd(tc, op.pmo);
            oracle.checkEnd(op.tid, op.pmo, postOp(tc, pr), tmp);
            break;
          }

          case OpKind::ManualBegin: {
            if (cfg.scheme != core::Scheme::MM)
                break;
            if (!oracle.canManualBegin(op.pmo))
                break;
            Probe pr = preOp(tc);
            rt.manualBegin(tc, op.pmo, op.mode);
            oracle.checkManualBegin(op.tid, op.pmo, op.mode,
                                    postOp(tc, pr), tmp);
            break;
          }

          case OpKind::ManualEnd: {
            if (cfg.scheme != core::Scheme::MM)
                break;
            if (!oracle.canManualEnd(op.pmo))
                break;
            if (!oracle.endSafeAt(op.tid, op.pmo, tc.now()))
                break; // would rewind the exposure tracker
            Probe pr = preOp(tc);
            rt.manualEnd(tc, op.pmo);
            oracle.checkManualEnd(op.tid, op.pmo, postOp(tc, pr),
                                  tmp);
            break;
          }

          case OpKind::Access:
            access(op.tid, tc, op.pmo, op.offset, op.write, tmp);
            break;

          case OpKind::Range: {
            if (op.bytes == 0)
                break;
            // accessRange panics on faults, so only replay it when
            // the oracle predicts a clean run.
            if (oracle.expectedAccess(op.tid, op.pmo, op.write) !=
                core::AccessOutcome::Ok) {
                break;
            }
            std::uint64_t first = op.offset / lineSize;
            std::uint64_t last =
                (op.offset + op.bytes - 1) / lineSize;
            std::uint64_t lines = last - first + 1;
            Cycles other0 = tc.charged(sim::Charge::Other);
            rt.accessRange(tc, pm::Oid(op.pmo, op.offset), op.bytes,
                           op.write);
            // The only Other charge inside an op is the 1-cycle
            // permission-matrix check, one per touched line.
            Cycles other = tc.charged(sim::Charge::Other) - other0;
            if (other != lines) {
                std::ostringstream os;
                os << "range touched " << other
                   << " lines, expected " << lines;
                complain(os.str());
            }
            break;
          }

          case OpKind::Guarded: {
            if (!cfg.autoInsertion())
                break;
            if (basic && oracle.ownsBasic(op.tid, op.pmo))
                break;
            bool expectBlock = basic && oracle.willBlock(op.tid, op.pmo);
            Probe pr = preOp(tc);
            Probe endPr{};
            // On the heap so a guard that wrongly claims to have
            // entered a blocked region can be leaked instead of
            // destroyed: its (noexcept) destructor would lower a
            // non-owner regionEnd, and the resulting panic would
            // terminate the fuzzer instead of being reported.
            auto guard = std::make_unique<core::RegionGuard>(
                rt, tc, op.pmo, op.mode);
            bool entered = guard->entered();
            if (entered == expectBlock)
                complain(expectBlock ? "guard should have blocked"
                                     : "guard blocked unexpectedly");
            if (entered && expectBlock) {
                (void)guard.release();
                break;
            }
            if (entered) {
                oracle.checkBegin(op.tid, op.pmo, op.mode,
                                  postOp(tc, pr), tmp);
                flush(tmp);
                for (unsigned j = 0; j < op.accesses; ++j) {
                    access(op.tid, tc, op.pmo,
                           op.offset + j * lineSize, op.write, tmp);
                    flush(tmp);
                }
                endPr = preOp(tc);
            } else {
                Observed o = postOp(tc, pr);
                if (o.tPost != o.tPre)
                    complain("blocked guard charged cycles");
                oracle.noteBlocked(op.tid, op.pmo, tmp);
            }
            guard.reset(); // destructor skips regionEnd iff blocked
            if (entered)
                oracle.checkEnd(op.tid, op.pmo, postOp(tc, endPr),
                                tmp);
            break;
          }

          case OpKind::TxPut: {
            // A raw undo-log burst would collide with an open
            // TxManager transaction holding this PMO (the anchor
            // log is busy and isolation would break): skip, like
            // any other ill-formed op.
            if (txo.locked(op.pmo))
                break;
            txPut(op, tc);
            break;
          }

          case OpKind::CrashRecover: {
            // Transactions are atomic ops in this harness; a crash
            // with one open would make recovery do real work the
            // differ doesn't model (terp-crash enumerates those).
            // The generator only emits idle-point crashes; shrunken
            // subsequences may not be, so skip.
            if (!txo.idle())
                break;
            crashRecover(tc);
            break;
          }

          case OpKind::TxBegin:
          case OpKind::TxWrite:
          case OpKind::TxCommit:
          case OpKind::TxAbort: {
            txOp(op, tc);
            break;
          }

          case OpKind::Sweep:
            break; // handled in run()
        }
        flush(tmp);
    }

    /**
     * Compare one transaction op's observed behavior against the
     * oracle's predicted TxEffects: return value, exact cycle
     * charge, CLWB/fence counts, and no protection syscalls.
     */
    void
    checkTxEffects(const char *what, const TxEffects &e, bool ok,
                   const Observed &o, std::uint64_t clwbs,
                   std::uint64_t fences)
    {
        if (ok != e.ok) {
            std::ostringstream os;
            os << what << " returned " << ok << ", oracle expects "
               << e.ok;
            complain(os.str());
        }
        if (o.tPost - o.tPre != e.charge) {
            std::ostringstream os;
            os << what << " charged " << (o.tPost - o.tPre)
               << " cycles, oracle expects " << e.charge;
            complain(os.str());
        }
        if (clwbs != e.clwbs || fences != e.fences) {
            std::ostringstream os;
            os << what << " issued " << clwbs << " clwbs / "
               << fences << " fences, oracle expects " << e.clwbs
               << " / " << e.fences;
            complain(os.str());
        }
        if (o.attaches || o.detaches)
            complain(std::string(what) +
                     " issued attach/detach syscalls");
    }

    /** Cross-check the TxManager's semantic state for one thread. */
    void
    probeTxState(unsigned tid)
    {
        pm::TxManager &txm = *rt.tx();
        if (txm.depth(tid) != txo.depthView(tid)) {
            std::ostringstream os;
            os << "tx depth=" << txm.depth(tid) << ", oracle says "
               << txo.depthView(tid);
            complain(os.str());
        }
        bool aborted = txm.status(tid) == pm::TxStatus::Aborted;
        if (aborted != txo.abortedView(tid)) {
            std::ostringstream os;
            os << "tx aborted=" << aborted << ", oracle says "
               << txo.abortedView(tid);
            complain(os.str());
        }
        for (pm::PmoId p = 1; p <= s.pmos; ++p) {
            if (txm.lockOwner(p) != txo.ownerView(p)) {
                std::ostringstream os;
                os << "tx lock on p" << p << " held by "
                   << txm.lockOwner(p) << ", oracle says "
                   << txo.ownerView(p);
                complain(os.str());
            }
        }
    }

    /** Replay one TxManager op in lockstep with the oracle. */
    void
    txOp(const Op &op, sim::ThreadContext &tc)
    {
        pm::TxManager &txm = *rt.tx();
        pm::PersistController &ctl = dom.controller();
        std::uint64_t clwb0 = ctl.clwbCount();
        std::uint64_t fence0 = ctl.fenceCount();
        Probe pr = preOp(tc);

        switch (op.kind) {
          case OpKind::TxBegin: {
            std::vector<pm::PmoId> lockSet{op.pmo};
            if (op.pmo2)
                lockSet.push_back(op.pmo2);
            TxEffects e = txo.onBegin(op.tid, lockSet, op.redo);
            bool ok = txm.begin(tc, op.tid, lockSet,
                                op.redo ? pm::TxKind::Redo
                                        : pm::TxKind::Undo);
            checkTxEffects("tx-begin", e, ok, postOp(tc, pr),
                           ctl.clwbCount() - clwb0,
                           ctl.fenceCount() - fence0);
            break;
          }
          case OpKind::TxWrite: {
            if (!txo.canWrite(op.tid, op.pmo))
                break; // no txn / outside the lock set: skip
            pm::Oid oid(op.pmo, op.offset);
            std::uint64_t val =
                (static_cast<std::uint64_t>(opIdx) << 8) | 0xA5;
            TxEffects e = txo.onWrite(op.tid, oid.raw, val);
            bool ok = txm.write(tc, op.tid, oid, val);
            checkTxEffects("tx-write", e, ok, postOp(tc, pr),
                           ctl.clwbCount() - clwb0,
                           ctl.fenceCount() - fence0);
            // Read-your-writes: undo reads the in-place volatile
            // image, redo its own buffer; both must see the value
            // the oracle expects (the pre-txn one after an abort).
            std::uint64_t got = txm.read(op.tid, oid);
            std::uint64_t want = txo.expectedRead(op.tid, oid.raw);
            if (got != want) {
                std::ostringstream os;
                os << "tx-read saw 0x" << std::hex << got
                   << ", oracle expects 0x" << want;
                complain(os.str());
            }
            break;
          }
          case OpKind::TxCommit: {
            if (!txo.canCommit(op.tid))
                break; // unmatched commit: skip
            TxEffects e = txo.onCommit(op.tid);
            bool ok = txm.commit(tc, op.tid);
            checkTxEffects("tx-commit", e, ok, postOp(tc, pr),
                           ctl.clwbCount() - clwb0,
                           ctl.fenceCount() - fence0);
            break;
          }
          case OpKind::TxAbort: {
            if (!txo.canAbort(op.tid))
                break; // unmatched abort: skip
            TxEffects e = txo.onAbort(op.tid);
            txm.abort(tc, op.tid);
            checkTxEffects("tx-abort", e, true, postOp(tc, pr),
                           ctl.clwbCount() - clwb0,
                           ctl.fenceCount() - fence0);
            break;
          }
          default:
            break;
        }
        probeTxState(op.tid);
    }

    /**
     * Run one undo-log transaction burst and verify its exact cycle
     * charge, CLWB/fence counts and the durable image it leaves
     * behind, all predicted by the oracle's persist mirror (a
     * closed form no longer exists once redo transactions can leave
     * unfenced write-backs for this burst's fences to drain).
     */
    void
    txPut(const Op &op, sim::ThreadContext &tc)
    {
        pm::UndoLog *log = dom.findLog(op.pmo);
        pm::PersistController &ctl = dom.controller();

        std::vector<std::pair<pm::Oid, std::uint64_t>> writes;
        for (unsigned j = 0; j < op.accesses; ++j) {
            std::uint64_t val =
                (static_cast<std::uint64_t>(opIdx) << 8) | j;
            writes.emplace_back(pm::Oid(op.pmo, op.offset + j * op.bytes),
                                val);
        }

        std::uint64_t clwb0 = ctl.clwbCount();
        std::uint64_t fence0 = ctl.fenceCount();
        Probe pr = preOp(tc);
        TxEffects e = txo.onTxPut(op.pmo, writes);

        armFlight(led, op.tid, pm::TxKind::Undo, writes);
        log->begin(tc);
        for (const auto &[oid, val] : writes)
            log->write(tc, oid, val);
        markCommitting(led, op.tid);
        log->commit(tc);
        settleFlight(led, op.tid, true);

        checkTxEffects("txn", e, true, postOp(tc, pr),
                       ctl.clwbCount() - clwb0,
                       ctl.fenceCount() - fence0);
        if (log->inTransaction() || log->recoveryPending())
            complain("txn left the log open");
        for (const auto &[oid, val] : writes) {
            std::uint64_t want = txo.committed().at(oid.raw);
            (void)val;
            if (ctl.load(oid) != want ||
                ctl.persistedLoad(oid) != want) {
                std::ostringstream os;
                os << "committed value not durable at offset 0x"
                   << std::hex << oid.offset();
                complain(os.str());
            }
        }
    }

    /**
     * Modeled power failure + restart. In this harness transactions
     * are atomic schedule ops, so the crash never lands inside one
     * and recovery must be a no-op with no side effects (crash-point
     * enumeration *inside* transactions is terp-crash's job); what
     * the differ checks is that the crash tears down every mapping,
     * window and blocked thread identically in runtime and oracle,
     * and that committed data survives.
     */
    void
    crashRecover(sim::ThreadContext &tc)
    {
        // Let the sweeper catch up first (its charges can push
        // clocks forward), then take the crash instant: the failure
        // hits the whole machine at once, so every live thread's
        // clock jumps there (wall-clock, not work).
        advanceSweeps(mach.maxClock());
        Cycles at = mach.maxClock();
        for (unsigned i = 0; i < mach.threadCount(); ++i) {
            sim::ThreadContext &t = mach.thread(i);
            if (!t.done && !t.blocked() && t.now() < at)
                t.syncTo(at, sim::Charge::Other);
        }
        rt.crash(at);
        oracle.noteCrash(at);
        txo.onCrash();

        Probe pr = preOp(tc);
        unsigned n = rt.recover(tc);
        Observed o = postOp(tc, pr);
        if (n != 0) {
            std::ostringstream os;
            os << "recovery rolled back " << n
               << " PMOs, but every txn committed before the crash";
            complain(os.str());
        }
        if (o.tPost != o.tPre || o.attaches || o.detaches)
            complain("clean recovery had side effects");

        for (pm::PmoId p = 1; p <= s.pmos; ++p) {
            if (rt.mapped(p))
                complain("PMO left mapped across a crash");
            if (oracle.mappedView(p))
                complain("oracle left a PMO mapped across a crash");
        }
        pm::PersistController &ctl = dom.controller();
        for (const auto &[raw, val] : txo.committed()) {
            pm::Oid oid = pm::Oid::fromRaw(raw);
            if (ctl.persistedLoad(oid) != val || ctl.load(oid) != val)
                complain("committed data lost across a crash");
        }
    }

    void
    access(unsigned tid, sim::ThreadContext &tc, pm::PmoId pmo,
           std::uint64_t offset, bool write,
           std::vector<std::string> &tmp)
    {
        core::AccessOutcome want =
            oracle.expectedAccess(tid, pmo, write);
        Cycles at = tc.now();
        core::AccessOutcome got =
            rt.tryAccess(tc, pm::Oid(pmo, offset), write);
        if (got != want) {
            std::ostringstream os;
            os << "access outcome " << core::accessOutcomeName(got)
               << ", oracle expects "
               << core::accessOutcomeName(want);
            complain(os.str());
        }
        oracle.checkAccessVerdict(tid, pmo, write, at, got, tmp);
    }

    /** Cross-check runtime-visible state against the mirror. */
    void
    probe(const Op &op)
    {
        if (op.kind == OpKind::Work || op.kind == OpKind::Sweep ||
            op.kind == OpKind::CrashRecover ||
            op.kind == OpKind::TxCommit || op.kind == OpKind::TxAbort)
            return; // CrashRecover checks all PMOs itself;
                    // commit/abort carry no PMO operand

        if (rt.mapped(op.pmo) != oracle.mappedView(op.pmo)) {
            std::ostringstream os;
            os << "mapped=" << rt.mapped(op.pmo) << ", oracle says "
               << oracle.mappedView(op.pmo);
            complain(os.str());
        }
        if (cfg.threadPerms() &&
            rt.threadHolds(op.tid, op.pmo) !=
                oracle.holdsView(op.tid, op.pmo)) {
            std::ostringstream os;
            os << "threadHolds=" << rt.threadHolds(op.tid, op.pmo)
               << ", oracle says "
               << oracle.holdsView(op.tid, op.pmo);
            complain(os.str());
        }
        if (cfg.scheme == core::Scheme::TT &&
            rt.circularBuffer().counter(op.pmo) !=
                oracle.holderCountView(op.pmo)) {
            std::ostringstream os;
            os << "CB counter=" << rt.circularBuffer().counter(op.pmo)
               << ", oracle holder count="
               << oracle.holderCountView(op.pmo);
            complain(os.str());
        }
    }

    void
    checkBlockedMirror()
    {
        for (unsigned i = 0; i < mach.threadCount(); ++i) {
            if (mach.thread(i).blocked() != oracle.isBlocked(i)) {
                std::ostringstream os;
                os << "thread " << i << " blocked="
                   << mach.thread(i).blocked() << ", oracle says "
                   << oracle.isBlocked(i);
                complain(os.str());
            }
        }
    }

    void
    compareSummary(const char *what, pm::PmoId pmo,
                   const metrics::Summary *got,
                   const metrics::Summary *want)
    {
        metrics::Summary empty;
        const metrics::Summary &g = got ? *got : empty;
        const metrics::Summary &w = want ? *want : empty;
        if (g.count() == w.count() && g.sum() == w.sum() &&
            g.min() == w.min() && g.max() == w.max()) {
            return;
        }
        std::ostringstream os;
        os << what << " summary for PMO " << pmo << ": runtime {n="
           << g.count() << ", sum=" << g.sum() << ", min=" << g.min()
           << ", max=" << g.max() << "}, oracle {n=" << w.count()
           << ", sum=" << w.sum() << ", min=" << w.min()
           << ", max=" << w.max() << "}";
        complain(os.str());
    }
};

} // namespace

DiffResult
runSchedule(const Schedule &s, const core::RuntimeConfig &cfgIn)
{
    DiffResult res;
    core::RuntimeConfig cfg = cfgIn;
    cfg.ewTarget = s.ewTarget;
    std::unique_ptr<CrashWorld> world;
    Ledger led;
    std::unique_ptr<Replay> replay;
    try {
        // The log region lives far above the data range the
        // schedule's accesses can reach (offsets < pmoSize).
        world = std::make_unique<CrashWorld>(
            cfg.withTrace(), s.pmos, s.threads, s.pmoSize,
            pm::TxManager::undoLogOff);
        replay = std::make_unique<Replay>(s, *world, led,
                                          res.complaints);
        replay->run();
        replay->drain();
    } catch (const std::exception &e) {
        std::ostringstream os;
        os << "crash";
        if (replay && replay->currentOp() < s.ops.size())
            os << " [op " << replay->currentOp() << ": "
               << describeOp(s.ops[replay->currentOp()]) << "]";
        os << ": " << e.what();
        res.complaints.push_back(os.str());
    }
    res.ok = res.complaints.empty();
    return res;
}

void
replaySchedule(const Schedule &s, CrashWorld &world, Ledger &led,
               std::vector<std::string> &complaints)
{
    Replay(s, world, led, complaints).run();
}

} // namespace check
} // namespace terp
