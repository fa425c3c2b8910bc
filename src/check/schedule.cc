#include "check/schedule.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/rng.hh"

namespace terp {
namespace check {

const char *
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::Work: return "work";
      case OpKind::Begin: return "begin";
      case OpKind::End: return "end";
      case OpKind::ManualBegin: return "manual-begin";
      case OpKind::ManualEnd: return "manual-end";
      case OpKind::Access: return "access";
      case OpKind::Range: return "range";
      case OpKind::Guarded: return "guarded";
      case OpKind::Sweep: return "sweep";
      case OpKind::TxPut: return "tx-put";
      case OpKind::CrashRecover: return "crash-recover";
      case OpKind::TxBegin: return "tx-begin";
      case OpKind::TxWrite: return "tx-write";
      case OpKind::TxCommit: return "tx-commit";
      case OpKind::TxAbort: return "tx-abort";
      default: return "?";
    }
}

namespace {

/**
 * The generator's lightweight model of the run: enough state to emit
 * mostly well-formed schedules. It mirrors the replayer's skip rules
 * (a blocked Begin consumes the pair) so the bookkeeping stays exact
 * even across the blocking ablation.
 */
struct GenState
{
    std::map<std::pair<unsigned, pm::PmoId>, unsigned> depth;
    std::map<pm::PmoId, bool> manualMapped;
    std::map<pm::PmoId, int> basicOwner; //!< -1 = unowned
    std::vector<int> blockedOn;          //!< per tid; -1 = runnable

    /** TxManager mirror: per-thread transaction shape. */
    struct TxGen
    {
        unsigned depth = 0;
        bool aborted = false;
        std::vector<pm::PmoId> locks;
    };
    std::vector<TxGen> tx;                //!< per tid
    std::map<pm::PmoId, unsigned> txOwner; //!< pmo -> locking tid

    explicit GenState(unsigned threads)
        : blockedOn(threads, -1), tx(threads)
    {
    }

    bool
    txBusy(unsigned tid, pm::PmoId pmo) const
    {
        auto it = txOwner.find(pmo);
        return it != txOwner.end() && it->second != tid;
    }

    void
    txLock(unsigned tid, pm::PmoId pmo)
    {
        if (txOwner.emplace(pmo, tid).second)
            tx[tid].locks.push_back(pmo);
    }

    void
    txRelease(unsigned tid)
    {
        for (pm::PmoId pmo : tx[tid].locks)
            txOwner.erase(pmo);
        tx[tid] = TxGen{};
    }

    bool
    txIdle() const
    {
        for (const TxGen &t : tx)
            if (t.depth > 0)
                return false;
        return true;
    }
};

pm::Mode
pickMode(Rng &rng)
{
    switch (rng.nextBelow(4)) {
      case 0: return pm::Mode::Read;
      default: return pm::Mode::ReadWrite;
    }
}

} // namespace

Schedule
generate(std::uint64_t seed, const core::RuntimeConfig &cfg,
         const GenParams &p)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    Schedule s;
    s.threads = std::max(1u, p.threads);
    s.pmos = std::max(1u, p.pmos);
    s.pmoSize = p.pmoSize;
    s.ewTarget = std::max<Cycles>(p.ewTarget, 5 * cyclesPerUs);
    // Every sweeper randomize bills all live threads for the move
    // plus the TLB shootdown.  If that bill per EW period exceeds
    // the period itself (possible when many PMOs stay held), thread
    // clocks outrun the sweeper geometrically and the replay never
    // terminates; keep the window comfortably above that cost.
    s.ewTarget = std::max<Cycles>(
        s.ewTarget,
        2 * s.pmos * (latency::randomize + latency::tlbInvalidate));

    const bool manual = cfg.scheme == core::Scheme::MM;
    const bool basic = cfg.scheme == core::Scheme::Basic;
    GenState st(s.threads);

    auto emitWork = [&](unsigned tid) {
        Op op;
        op.kind = OpKind::Work;
        op.tid = tid;
        // Mostly short slices; occasionally a long one that pushes
        // the thread past several sweep boundaries and the EW target.
        op.work = rng.nextBool(0.25)
                      ? rng.nextRange(s.ewTarget, 3 * s.ewTarget)
                      : rng.nextRange(200, 4000);
        s.ops.push_back(op);
    };

    for (unsigned i = 0; i < p.events; ++i) {
        unsigned tid = static_cast<unsigned>(rng.nextBelow(s.threads));
        if (basic && st.blockedOn[tid] != -1) {
            // Every op of a blocked thread would be skipped by the
            // replayer; spend the slot on a sweeper tick instead.
            Op op;
            op.kind = OpKind::Sweep;
            s.ops.push_back(op);
            continue;
        }
        // PmoManager ids start at 1 (0 is the reserved null id).
        pm::PmoId pmo =
            static_cast<pm::PmoId>(1 + rng.nextBelow(s.pmos));
        unsigned roll = static_cast<unsigned>(rng.nextBelow(100));

        if (roll < 20) {
            emitWork(tid);
            continue;
        }
        if (roll < 27) {
            Op op;
            op.kind = OpKind::Sweep;
            s.ops.push_back(op);
            continue;
        }
        if (p.persistOps && roll < 37) {
            // Undo-log transaction against the persistence substrate:
            // a handful of word writes, sometimes all to one word
            // (stride 0) to exercise the write-set dedupe.
            Op op;
            op.kind = OpKind::TxPut;
            op.tid = tid;
            op.pmo = pmo;
            op.accesses = 1 + static_cast<unsigned>(rng.nextBelow(3));
            op.offset = rng.nextBelow(s.pmoSize - 1024) & ~7ULL;
            op.bytes = rng.nextBool(0.3) ? 0 : 8;
            s.ops.push_back(op);
            continue;
        }
        if ((p.persistOps || p.txnOps) && roll >= 37 && roll < 40 &&
            st.txIdle()) {
            // Power failure + restart + recovery. All volatile state
            // dies with the process, so the generator's model resets
            // with it. Only emitted at transaction-idle points: the
            // differ treats transactions as atomic ops (recovery
            // must be a no-op); crash points *inside* transactions
            // are terp-crash's job.
            Op op;
            op.kind = OpKind::CrashRecover;
            op.tid = tid;
            s.ops.push_back(op);
            st.depth.clear();
            st.manualMapped.clear();
            st.basicOwner.clear();
            for (auto &b : st.blockedOn)
                b = -1;
            st.txOwner.clear();
            for (auto &t : st.tx)
                t = GenState::TxGen{};
            continue;
        }
        if (p.txnOps && roll >= 40 && roll < 70) {
            GenState::TxGen &tg = st.tx[tid];
            if (tg.depth == 0) {
                // Outermost begin: one or two PMOs, undo or redo.
                // The lock set may collide with another thread's —
                // that is the Busy path, worth fuzzing too — so the
                // model only advances when the begin will succeed.
                Op op;
                op.kind = OpKind::TxBegin;
                op.tid = tid;
                op.pmo = pmo;
                if (rng.nextBool(0.35)) {
                    op.pmo2 = static_cast<pm::PmoId>(
                        1 + rng.nextBelow(s.pmos));
                }
                op.redo = rng.nextBool(0.4);
                bool busy = st.txBusy(tid, op.pmo) ||
                            (op.pmo2 && st.txBusy(tid, op.pmo2));
                s.ops.push_back(op);
                if (!busy) {
                    tg.depth = 1;
                    tg.aborted = false;
                    st.txLock(tid, op.pmo);
                    if (op.pmo2)
                        st.txLock(tid, op.pmo2);
                }
                continue;
            }
            unsigned r2 =
                static_cast<unsigned>(rng.nextBelow(100));
            Op op;
            op.tid = tid;
            if (tg.aborted || r2 < 22) {
                // Unwind one level (the only move after an abort).
                op.kind = OpKind::TxCommit;
                s.ops.push_back(op);
                if (--tg.depth == 0)
                    st.txRelease(tid);
                continue;
            }
            if (r2 < 34 && tg.depth < 3) {
                // Nested begin, possibly growing the lock set.
                op.kind = OpKind::TxBegin;
                op.pmo = pmo;
                bool busy = st.txBusy(tid, pmo);
                s.ops.push_back(op);
                if (!busy) {
                    st.txLock(tid, pmo);
                    ++tg.depth;
                }
                continue;
            }
            if (r2 < 42) {
                op.kind = OpKind::TxAbort;
                s.ops.push_back(op);
                tg.aborted = true;
                continue;
            }
            op.kind = OpKind::TxWrite;
            op.pmo = tg.locks[static_cast<std::size_t>(
                rng.nextBelow(tg.locks.size()))];
            op.offset = rng.nextBelow(s.pmoSize - 1024) & ~7ULL;
            s.ops.push_back(op);
            continue;
        }
        if (roll < 45) {
            Op op;
            op.kind = OpKind::Access;
            op.tid = tid;
            op.pmo = pmo;
            op.write = rng.nextBool(0.5);
            op.offset = rng.nextBelow(s.pmoSize);
            s.ops.push_back(op);
            continue;
        }
        if (roll < 52 && !manual && !basic) {
            Op op;
            op.kind = OpKind::Range;
            op.tid = tid;
            op.pmo = pmo;
            op.write = rng.nextBool(0.5);
            op.offset = rng.nextBelow(s.pmoSize - 1024);
            op.bytes = 1 + rng.nextBelow(700);
            s.ops.push_back(op);
            continue;
        }

        if (manual) {
            Op op;
            op.tid = tid;
            op.pmo = pmo;
            if (!st.manualMapped[pmo]) {
                op.kind = OpKind::ManualBegin;
                op.mode = pickMode(rng);
                st.manualMapped[pmo] = true;
            } else {
                // Any thread may issue the manual end; MERR does not
                // tie the detach to the attaching thread.
                op.kind = OpKind::ManualEnd;
                st.manualMapped[pmo] = false;
            }
            s.ops.push_back(op);
            continue;
        }

        if (roll < 70) {
            // Guarded region (all auto schemes; under basic this is
            // the op that may block inside the RAII constructor).
            Op op;
            op.kind = OpKind::Guarded;
            op.tid = tid;
            op.pmo = pmo;
            op.mode = pickMode(rng);
            op.accesses = static_cast<unsigned>(rng.nextBelow(4));
            op.offset = rng.nextBelow(s.pmoSize - 1024);
            op.write = rng.nextBool(0.5);
            s.ops.push_back(op);
            continue;
        }

        unsigned &d = st.depth[{tid, pmo}];
        if (basic && st.basicOwner.count(pmo) == 0)
            st.basicOwner[pmo] = -1;
        bool mayBegin = basic
                            ? st.basicOwner[pmo] != static_cast<int>(tid)
                            : d < 3;
        bool mayEnd = basic ? st.basicOwner[pmo] == static_cast<int>(tid)
                            : d > 0;
        Op op;
        op.tid = tid;
        op.pmo = pmo;
        if (mayEnd && (rng.nextBool(0.5) || !mayBegin)) {
            op.kind = OpKind::End;
            if (basic) {
                st.basicOwner[pmo] = -1;
                for (auto &b : st.blockedOn)
                    if (b == static_cast<int>(pmo))
                        b = -1;
            } else {
                --d;
            }
        } else if (mayBegin) {
            op.kind = OpKind::Begin;
            op.mode = pickMode(rng);
            if (basic) {
                if (st.basicOwner[pmo] == -1)
                    st.basicOwner[pmo] = static_cast<int>(tid);
                else
                    st.blockedOn[tid] = static_cast<int>(pmo);
            } else {
                ++d;
            }
        } else {
            emitWork(tid);
            continue;
        }
        s.ops.push_back(op);
    }

    // Epilogue: close what is still open so most runs end balanced
    // (the replayer tolerates unbalanced tails; finalize() closes
    // the remaining windows). Transactions unwind first — commits
    // at every open depth, which also sweeps aborted transactions
    // out through their outermost end.
    for (unsigned t = 0; t < s.threads; ++t) {
        while (st.tx[t].depth > 0) {
            Op op;
            op.kind = OpKind::TxCommit;
            op.tid = t;
            s.ops.push_back(op);
            --st.tx[t].depth;
        }
    }
    if (manual) {
        for (auto &[pmo, mapped] : st.manualMapped) {
            if (!mapped)
                continue;
            Op op;
            op.kind = OpKind::ManualEnd;
            op.pmo = pmo;
            s.ops.push_back(op);
        }
    } else if (basic) {
        for (auto &[pmo, owner] : st.basicOwner) {
            if (owner < 0)
                continue;
            Op op;
            op.kind = OpKind::End;
            op.tid = static_cast<unsigned>(owner);
            op.pmo = pmo;
            s.ops.push_back(op);
        }
    } else {
        for (auto &[key, d] : st.depth) {
            for (unsigned k = 0; k < d; ++k) {
                Op op;
                op.kind = OpKind::End;
                op.tid = key.first;
                op.pmo = key.second;
                s.ops.push_back(op);
            }
        }
    }
    return s;
}

std::string
describeOp(const Op &op)
{
    std::ostringstream os;
    os << "t" << op.tid << " " << opKindName(op.kind);
    switch (op.kind) {
      case OpKind::Work:
        os << "(" << op.work << "cyc)";
        break;
      case OpKind::Begin:
      case OpKind::ManualBegin:
        os << "(p" << op.pmo << ", "
           << (op.mode == pm::Mode::Read ? "R" : "RW") << ")";
        break;
      case OpKind::End:
      case OpKind::ManualEnd:
        os << "(p" << op.pmo << ")";
        break;
      case OpKind::Access:
        os << "(p" << op.pmo << "+" << op.offset << ", "
           << (op.write ? "st" : "ld") << ")";
        break;
      case OpKind::Range:
        os << "(p" << op.pmo << "+" << op.offset << ", " << op.bytes
           << "B, " << (op.write ? "st" : "ld") << ")";
        break;
      case OpKind::Guarded:
        os << "(p" << op.pmo << ", "
           << (op.mode == pm::Mode::Read ? "R" : "RW") << ", "
           << op.accesses << " acc)";
        break;
      case OpKind::TxPut:
        os << "(p" << op.pmo << "+" << op.offset << ", "
           << op.accesses << " writes, stride " << op.bytes << ")";
        break;
      case OpKind::CrashRecover:
        os << "()";
        break;
      case OpKind::Sweep:
        os << "()";
        break;
      case OpKind::TxBegin:
        os << "(p" << op.pmo;
        if (op.pmo2)
            os << "+p" << op.pmo2;
        os << ", " << (op.redo ? "redo" : "undo") << ")";
        break;
      case OpKind::TxWrite:
        os << "(p" << op.pmo << "+" << op.offset << ")";
        break;
      case OpKind::TxCommit:
      case OpKind::TxAbort:
        os << "()";
        break;
    }
    return os.str();
}

} // namespace check
} // namespace terp
