#include "check/crash.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/differ.hh"
#include "check/recovery_oracle.hh"
#include "check/schedule.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "metrics/json.hh"
#include "pm/tx_manager.hh"

namespace terp {
namespace check {

namespace {

constexpr std::uint64_t pmoSize = 64 * KiB;

/**
 * The world, ledger, transaction driver, and recovery invariants live
 * in check/recovery_oracle.{hh,cc}, shared with the schedule executor
 * and the energy-harvesting harness. The enumeration below is their
 * single-crash driver.
 */
using World = CrashWorld;

// ------------------------------------------------------- workloads

/** bank: the init transaction, then `txns` transfers. */
void
bankWorkload(World &w, Ledger &led, const CrashCell &c,
             std::vector<std::string> &)
{
    sim::ThreadContext &tc = w.machine().thread(0);
    Rng rng(99 + c.options().seed);
    bankTxn(w, led, tc, rng, /*init=*/true);
    for (unsigned t = 0; t < c.options().txns; ++t)
        bankTxn(w, led, tc, rng, /*init=*/false);
}

/**
 * hashmap's PMO: pmoSize while its `txns` records fit (896 of them),
 * else whole pages enough to hold them. A record uses only its first
 * 24 bytes, so the probe transaction's word, the PMO's last, never
 * lands on one.
 */
constexpr std::uint64_t
hashmapPmoBytes(unsigned txns)
{
    const std::uint64_t heapEnd = hashmapHeapOff + 64ULL * txns;
    return std::max(pmoSize,
                    (heapEnd + pageSize - 1) / pageSize * pageSize);
}
static_assert(hashmapPmoBytes(maxCrashTxns) <=
                  pm::PmoManager::arenaSize / 4,
              "maxCrashTxns inserts must fit a PMO the manager maps");

/**
 * hashmap: WHISPER-style chained-bucket inserts. One insert writes
 * the record's key/value/next fields plus the bucket-head pointer in
 * a single transaction — the classic multi-line update that is
 * inconsistent (a half-linked record) if torn by a crash.
 */
void
hashmapWorkload(World &w, Ledger &led, const CrashCell &c,
                std::vector<std::string> &)
{
    sim::ThreadContext &tc = w.machine().thread(0);
    constexpr std::uint64_t bucketsOff = 4096;
    constexpr unsigned nBuckets = 16;

    const pm::PersistController &ctl = w.persistence()->controller();
    Rng rng(7 + c.options().seed);
    for (unsigned t = 0; t < c.options().txns; ++t) {
        std::uint64_t key = 0x1000 + t;
        std::uint64_t rec = hashmapHeapOff + 64ULL * t;
        pm::Oid head(1, bucketsOff +
                            64ULL * (key % nBuckets));
        std::uint64_t oldHead = ctl.load(head);
        runTxn(w, led, tc, 1,
               {{pm::Oid(1, rec), key},
                {pm::Oid(1, rec + 8), rng.next() | 1},
                {pm::Oid(1, rec + 16), oldHead},
                {head, rec}});
    }
}

/**
 * hashmap's structural invariant on the recovered durable image:
 * every bucket chain must be walkable, cycle-free, and end at records
 * whose key hashes to that bucket — a torn insert breaks one of
 * these.
 */
void
checkHashmapInvariant(World &w, std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    constexpr std::uint64_t bucketsOff = 4096;
    constexpr unsigned nBuckets = 16;
    for (unsigned b = 0; b < nBuckets; ++b) {
        std::uint64_t rec =
            ctl.persistedLoad(pm::Oid(1, bucketsOff + 64ULL * b));
        unsigned steps = 0;
        while (rec != 0) {
            if (++steps > 4096) {
                out.push_back("hashmap: bucket chain cycle");
                return;
            }
            std::uint64_t key = ctl.persistedLoad(pm::Oid(1, rec));
            std::uint64_t val =
                ctl.persistedLoad(pm::Oid(1, rec + 8));
            if (key % nBuckets != b || val == 0) {
                std::ostringstream os;
                os << "hashmap: torn record in bucket " << b
                   << " (key 0x" << std::hex << key << ", val 0x"
                   << val << ")";
                out.push_back(os.str());
                return;
            }
            rec = ctl.persistedLoad(pm::Oid(1, rec + 16));
        }
    }
}

/** txnest: `txns` transactions, the first of them the init. */
void
txnestWorkload(World &w, Ledger &led, const CrashCell &c,
               std::vector<std::string> &)
{
    sim::ThreadContext &tc = w.machine().thread(0);
    Rng rng(41 + c.options().seed);
    for (unsigned t = 0; t < c.options().txns; ++t)
        txnestTxn(w, led, tc, rng, /*init=*/t == 0);
}

/**
 * txpair: two threads running transactions over disjoint PMOs —
 * thread 0 locks PMO 1, thread 1 locks PMO 2 — with their writes
 * interleaved boundary-by-boundary and their commits staggered, so
 * enumeration crashes between one thread's durable point and the
 * other's. Each transaction writes a split pair (x, 2000 - x) plus
 * a sequence word; recovery must treat the two transactions
 * independently (each all-or-nothing on its own).
 */
void
txpairWorkload(World &w, Ledger &led, const CrashCell &c,
               std::vector<std::string> &)
{
    sim::ThreadContext &tc0 = w.machine().thread(0);
    sim::ThreadContext &tc1 = w.machine().thread(1);
    pm::TxManager &txm = *w.runtime().tx();
    const pm::PersistController &ctl = w.persistence()->controller();
    auto xOf = [](pm::PmoId p) { return pm::Oid(p, 0x1000); };
    auto yOf = [](pm::PmoId p) { return pm::Oid(p, 0x1040); };
    auto seqOf = [](pm::PmoId p) { return pm::Oid(p, 0x800); };

    Rng rng(17 + c.options().seed);
    for (unsigned t = 0; t < c.options().txns; ++t) {
        bool init = t == 0;
        pm::TxKind kind0 = !init && rng.nextBelow(2) == 1
                               ? pm::TxKind::Redo
                               : pm::TxKind::Undo;
        pm::TxKind kind1 = !init && rng.nextBelow(2) == 1
                               ? pm::TxKind::Redo
                               : pm::TxKind::Undo;
        bool abort0 = !init && rng.nextBelow(100) < 15;
        bool abort1 = !init && rng.nextBelow(100) < 15;
        std::uint64_t d0 = 1 + rng.nextBelow(500);
        std::uint64_t d1 = 1 + rng.nextBelow(500);
        std::uint64_t x0 = init ? 1000 : ctl.load(xOf(1)) + d0;
        std::uint64_t x1 = init ? 1000 : ctl.load(xOf(2)) + d1;
        std::vector<std::pair<pm::Oid, std::uint64_t>> w0 = {
            {xOf(1), x0}, {yOf(1), 2000 - x0}, {seqOf(1), t + 1}};
        std::vector<std::pair<pm::Oid, std::uint64_t>> w1 = {
            {xOf(2), x1}, {yOf(2), 2000 - x1}, {seqOf(2), t + 1}};

        armFlight(led, 0, kind0, w0);
        armFlight(led, 1, kind1, w1);
        protOpen(w, tc0, 1);
        protOpen(w, tc1, 2);
        txm.begin(tc0, 0, {1}, kind0);
        txm.begin(tc1, 1, {2}, kind1);
        // Interleave the two write-sets boundary-by-boundary.
        for (unsigned j = 0; j < 3; ++j) {
            w.runtime().access(tc0, w0[j].first, /*write=*/true);
            txm.write(tc0, 0, w0[j].first, w0[j].second);
            w.runtime().access(tc1, w1[j].first, /*write=*/true);
            txm.write(tc1, 1, w1[j].first, w1[j].second);
        }
        if (abort0)
            txm.abort(tc0, 0);
        if (abort1)
            txm.abort(tc1, 1);
        // Staggered durable points: thread 0 settles first, so a
        // crash inside thread 1's commit sees thread 0 committed.
        if (!abort0)
            markCommitting(led, 0);
        settleFlight(led, 0, txm.commit(tc0, 0));
        if (!abort1)
            markCommitting(led, 1);
        settleFlight(led, 1, txm.commit(tc1, 1));
        protClose(w, tc0, 1);
        protClose(w, tc1, 2);
        w.advanceSweeps(std::max(tc0.now(), tc1.now()));
    }
}

/** txpair's invariant: each PMO's split pair is conserved. */
void
checkTxpairInvariant(World &w, std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    for (pm::PmoId p = 1; p <= 2; ++p) {
        std::uint64_t sum =
            ctl.persistedLoad(pm::Oid(p, 0x1000)) +
            ctl.persistedLoad(pm::Oid(p, 0x1040));
        if (sum != 0 && sum != 2000) {
            std::ostringstream os;
            os << "txpair: recovered pair on PMO " << p
               << " sums to " << sum
               << ", expected 2000 (or 0 pre-init)";
            out.push_back(os.str());
        }
    }
}

/** schedule: the cell's generated fuzz schedule, on the one executor. */
void
scheduleWorkload(World &w, Ledger &led, const CrashCell &c,
                 std::vector<std::string> &replay)
{
    replaySchedule(c.schedule(), w, led, replay);
}

} // namespace

/**
 * A crash workload: the world it runs in, its run from the start,
 * and the invariant checked on the recovered durable image (null:
 * the atomicity oracle alone). The schedule workload's shape is also
 * the shape its schedule is generated for.
 */
struct CrashWorkload
{
    const char *name;
    unsigned pmos;
    unsigned threads;
    bool generated; //!< runs a schedule generated per seed
    void (*run)(World &, Ledger &, const CrashCell &,
                std::vector<std::string> &replay);
    void (*check)(World &, std::vector<std::string> &);
    /** Bytes per PMO for a run of `txns` (null: pmoSize). */
    std::uint64_t (*pmoBytes)(unsigned txns) = nullptr;
};

namespace {

const CrashWorkload workloads[] = {
    {"bank", 1, 1, false, bankWorkload, checkBankInvariant},
    {"hashmap", 1, 1, false, hashmapWorkload, checkHashmapInvariant,
     hashmapPmoBytes},
    {"txnest", 2, 1, false, txnestWorkload, checkTxnestInvariant},
    {"txpair", 2, 2, false, txpairWorkload, checkTxpairInvariant},
    {"schedule", 2, 3, true, scheduleWorkload, nullptr},
};

const CrashWorkload &
findWorkload(const std::string &name)
{
    for (const CrashWorkload &wl : workloads)
        if (name == wl.name)
            return wl;
    throw std::invalid_argument("unknown workload: " + name);
}

/** Record one run's violations, the executor's complaints first. */
void
record(CrashResult &res, std::uint64_t point, pm::PersistBoundary kind,
       const std::vector<std::string> &replay,
       const std::vector<std::string> &v)
{
    for (const std::string &m : replay)
        res.violations.push_back({point, kind, "replay: " + m});
    for (const std::string &m : v)
        res.violations.push_back({point, kind, m});
}

// ------------------------------------------- bank and txnest steps

/** Account i of the bank ledger. */
pm::Oid
acct(unsigned i)
{
    return pm::Oid(1, 0x1000 + 64ULL * i);
}

/** The sequence word both transfer workloads bump. */
const pm::Oid seqWord(1, 0x800);

/** txnest's two accounts, one per PMO. */
const pm::Oid acctA(1, 0x1000), acctB(2, 0x1000);

} // namespace

void
bankTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc, Rng &rng,
        bool init)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    std::vector<std::pair<pm::Oid, std::uint64_t>> writes;
    if (init) {
        for (unsigned i = 0; i < 8; ++i)
            writes.push_back({acct(i), 1000});
        writes.push_back({seqWord, 1});
    } else {
        auto a = static_cast<unsigned>(rng.nextBelow(8));
        auto b = static_cast<unsigned>(rng.nextBelow(7));
        if (b >= a)
            ++b;
        std::uint64_t amt = 1 + rng.nextBelow(200);
        // Two's-complement arithmetic keeps the sum invariant even
        // through a (harmless) negative balance.
        writes = {{acct(a), ctl.load(acct(a)) - amt},
                  {acct(b), ctl.load(acct(b)) + amt},
                  {seqWord, ctl.load(seqWord) + 1}};
    }
    runTxn(w, led, tc, 1, writes);
}

void
checkBankInvariant(CrashWorld &w, std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < 8; ++i)
        sum += ctl.persistedLoad(acct(i));
    // Before the init transaction commits, every account is 0.
    if (sum != 0 && sum != 8 * 1000) {
        std::ostringstream os;
        os << "bank: recovered balances sum to " << sum
           << ", expected 8000 (or 0 pre-init)";
        out.push_back(os.str());
    }
}

bool
txnestTxn(CrashWorld &w, Ledger &led, sim::ThreadContext &tc, Rng &rng,
          bool init)
{
    pm::TxManager &txm = *w.runtime().tx();
    const pm::PersistController &ctl = w.persistence()->controller();
    pm::TxKind kind = !init && rng.nextBelow(2) == 1 ? pm::TxKind::Redo
                                                     : pm::TxKind::Undo;
    bool doAbort = !init && rng.nextBelow(100) < 20;
    std::uint64_t amt = 1 + rng.nextBelow(200);
    // Values are computed before begin: a redo transaction's
    // in-place image is stale until its commit applies.
    std::uint64_t newA = init ? 1000 : ctl.load(acctA) - amt;
    std::uint64_t newB = init ? 1000 : ctl.load(acctB) + amt;
    std::uint64_t seq = ctl.load(seqWord) + 1;
    std::vector<std::pair<pm::Oid, std::uint64_t>> writes = {
        {acctA, newA}, {acctB, newB}, {seqWord, seq}};

    armFlight(led, 0, kind, writes);
    protOpen(w, tc, 1);
    protOpen(w, tc, 2);
    txm.begin(tc, 0, {1, 2}, kind);
    w.runtime().access(tc, acctA, /*write=*/true);
    txm.write(tc, 0, acctA, newA);
    txm.begin(tc, 0, {2}); // nested level: locks already held
    w.runtime().access(tc, acctB, /*write=*/true);
    txm.write(tc, 0, acctB, newB);
    txm.write(tc, 0, seqWord, seq);
    if (doAbort)
        txm.abort(tc, 0);
    txm.commit(tc, 0); // inner: unwind only
    if (!doAbort)
        markCommitting(led, 0);
    bool ok = txm.commit(tc, 0); // outermost: the durable point
    settleFlight(led, 0, ok);
    protClose(w, tc, 2);
    protClose(w, tc, 1);
    w.advanceSweeps(tc.now());
    return ok;
}

void
checkTxnestInvariant(CrashWorld &w, std::vector<std::string> &out)
{
    const pm::PersistController &ctl = w.persistence()->controller();
    std::uint64_t sum = ctl.persistedLoad(acctA) + ctl.persistedLoad(acctB);
    // Before the init transaction commits, both accounts are 0.
    if (sum != 0 && sum != 2000) {
        std::ostringstream os;
        os << "txnest: recovered cross-PMO balances sum to " << sum
           << ", expected 2000 (or 0 pre-init)";
        out.push_back(os.str());
    }
}

std::vector<std::string>
crashWorkloads()
{
    std::vector<std::string> names;
    for (const CrashWorkload &wl : workloads)
        names.push_back(wl.name);
    return names;
}

CrashCell::CrashCell(const CrashOptions &options)
    : opt(options), wl(&findWorkload(options.workload))
{
    // Every world runs at its schedule's EW target, which the
    // generator may raise above the requested one (the executor
    // refuses a world that does not match). A hand-written workload
    // has an empty schedule at the requested target.
    std::optional<core::RuntimeConfig> c =
        core::configForScheme(opt.scheme, opt.ewTarget);
    if (!c || c->scheme == core::Scheme::Unprotected)
        throw std::invalid_argument("not a checked scheme: " +
                                    opt.scheme);
    cfg = c->withTrace();
    sched.ewTarget = opt.ewTarget;
    if (wl->generated) {
        GenParams gp;
        gp.threads = wl->threads;
        gp.pmos = wl->pmos;
        gp.persistOps = true;
        gp.events = opt.events;
        gp.ewTarget = opt.ewTarget;
        gp.pmoSize = pmoSize;
        sched = generate(opt.seed, *c, gp);
    }
    cfg.ewTarget = sched.ewTarget;
}

CrashWorld
CrashCell::world() const
{
    return CrashWorld(cfg, wl->pmos, wl->threads,
                      wl->pmoBytes ? wl->pmoBytes(opt.txns) : pmoSize,
                      pm::TxManager::undoLogOff);
}

void
CrashCell::run(CrashWorld &w, Ledger &led,
               std::vector<std::string> &replay) const
{
    wl->run(w, led, *this, replay);
}

void
CrashCell::checkImage(CrashWorld &w, Ledger &led,
                      std::vector<std::string> &out) const
{
    resolveFlights(w, led, out);
    if (wl->check)
        wl->check(w, out);
}

void
CrashCell::recoverAndCheck(CrashWorld &w, Ledger &led,
                           std::vector<std::string> &out,
                           const trace::TimelineReplay &prefix,
                           trace::TimelineReplay *audit) const
{
    try {
        Cycles at = w.machine().maxClock();
        w.runtime().crash(at);
        // Recovery runs after the failure instant.
        sim::ThreadContext &rtc = w.machine().thread(0);
        if (rtc.now() < at)
            rtc.syncTo(at, sim::Charge::Other);
        (void)w.runtime().recover(rtc);
        checkImage(w, led, out);
        probeAndDrain(w, led, out, prefix, audit);
    } catch (const std::exception &e) {
        out.push_back(std::string("recovery died: ") + e.what());
    }
}

CrashResult
enumerateCrashPoints(const CrashOptions &opt)
{
    const CrashCell cell(opt);
    CrashResult res;
    // Baseline: no fault. Counts the boundaries and sanity-checks
    // the oracle machinery against an uninterrupted run.
    {
        World w = cell.world();
        Ledger led;
        std::vector<std::string> replay, v;
        try {
            cell.run(w, led, replay);
            res.boundaries = w.persistence()->controller().boundaryCount();
            cell.checkImage(w, led, v);
        } catch (const std::exception &e) {
            v.push_back(std::string("baseline run died: ") +
                        e.what());
        }
        record(res, 0, pm::PersistBoundary::Store, replay, v);
        if (!res.violations.empty() || res.boundaries == 0)
            return res;
    }

    // Points 1..B. Each of K drivers (one per host CPU) runs the
    // workload once and taps every boundary. The first driver to
    // reach point n claims it, assigns itself and its ledger into
    // its scratch world and ledger, copies its complaints so far and
    // hands over its trace audit (caught up to the point, so the copy
    // audits only the events it emits), and the copy crashes there
    // and checks recovery; a driver busy with a copy
    // falls behind and the others claim the points it passes, so the
    // points spread over the CPUs as they come. Every driver is the
    // same deterministic world, so a point's verdict does not depend
    // on which one claims it. Drivers share only the read-only cell
    // and the claim counter, and each point's slot is written by its
    // claimer alone; nothing leaves a task but through a slot (an
    // escaped exception included). The walk below reads the slots in
    // point order, so the result, and the exception rethrown for the
    // lowest failing point, are those of running the points one at a
    // time.
    struct Point
    {
        pm::PersistBoundary kind = pm::PersistBoundary::Store;
        std::vector<std::string> replay, v;
        std::exception_ptr error;
    };
    /** How a driver's run ended. */
    struct Driver
    {
        std::vector<std::string> replay;
        std::string died;
        std::exception_ptr error;
    };
    const std::uint64_t B = res.boundaries;
    std::vector<Point> points(B);
    std::vector<Driver> drivers(std::min<std::uint64_t>(hostCpus(), B));
    std::atomic<std::uint64_t> unclaimed{1}; // lowest unclaimed point
    auto drive = [&](Driver &dr) {
        try {
            World d = cell.world();
            Ledger led;
            trace::TimelineReplay audited; // d's trace, up to a point
            // The copy a point crashes: assigned from d at each point,
            // into the storage the last point left, and likewise the
            // replay its audit resumes.
            World w = cell.world();
            Ledger l;
            trace::TimelineReplay resumed;
            auto tap = [&](std::uint64_t n, pm::PersistBoundary kind) {
                std::uint64_t want = n;
                if (n > B ||
                    !unclaimed.compare_exchange_strong(want, n + 1))
                    return;
                Point &p = points[n - 1];
                p.kind = kind;
                p.replay = dr.replay;
                try {
                    if (auto sink = d.runtime().traceSink())
                        audited.catchUp(*sink);
                    w = d;
                    l = led;
                    w.persistence()->controller().crash();
                    cell.recoverAndCheck(w, l, p.v, audited, &resumed);
                } catch (...) {
                    p.error = std::current_exception();
                }
            };
            d.persistence()->controller().tapFaults(tap);
            cell.run(d, led, dr.replay);
        } catch (const std::exception &e) {
            dr.died = std::string("workload died: ") + e.what();
        } catch (...) {
            dr.error = std::current_exception();
        }
    };
    ParallelRunner pool(static_cast<unsigned>(drivers.size()));
    for (Driver &dr : drivers)
        pool.add([&drive, &dr] { drive(dr); });
    pool.run();
    // Every driver ends alike. A point no driver reached was past
    // where the workload died, or past the end of a run whose
    // boundary count regressed: a scheduled CrashRecover op disarms
    // nothing, so the plan stays armed across it.
    const Driver &end = drivers.front();
    for (std::uint64_t n = unclaimed.load(); n <= B; ++n) {
        Point &p = points[n - 1];
        p.replay = end.replay;
        p.error = end.error;
        p.v.push_back(end.died.empty()
                          ? "armed fault never fired "
                            "(non-deterministic boundary count?)"
                          : end.died);
    }

    for (std::uint64_t n = 1; n <= B; ++n) {
        const Point &p = points[n - 1];
        if (p.error)
            std::rethrow_exception(p.error);
        ++res.pointsRun;
        record(res, n, p.kind, p.replay, p.v);
    }
    return res;
}

std::string
crashResultJson(const CrashOptions &opt, const CrashResult &r)
{
    std::ostringstream os;
    os << "{\"scheme\":\"" << opt.scheme << "\",\"workload\":\""
       << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"boundaries\":" << r.boundaries
       << ",\"points_run\":" << r.pointsRun << ",\"ok\":"
       << (r.ok() ? "true" : "false");
    if (!r.violations.empty())
        os << ",\"earliest_violation\":" << r.violations.front().point;
    os << ",\"violations\":[";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
        const CrashViolation &cv = r.violations[i];
        if (i)
            os << ",";
        os << "{\"point\":" << cv.point << ",\"kind\":\""
           << pm::persistBoundaryName(cv.kind) << "\",\"detail\":"
           << metrics::jsonQuoted(cv.detail) << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace check
} // namespace terp
