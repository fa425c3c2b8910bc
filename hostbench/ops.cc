#include "ops.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hh"
#include "metrics/registry.hh"

namespace hostbench {

using namespace terp;

namespace {

const SchemeCell kUnprotected{"unprotected",
                              core::RuntimeConfig::unprotected(), 1};
const SchemeCell kMm{"mm40", core::RuntimeConfig::mm(usToCycles(40)), 1};
const SchemeCell kTm1{"tm40", core::RuntimeConfig::tm(usToCycles(40)), 1};
const SchemeCell kTt1{"tt40", core::RuntimeConfig::tt(usToCycles(40)), 1};
const SchemeCell kTm4{"tm40x4", core::RuntimeConfig::tm(usToCycles(40)),
                      4};
const SchemeCell kTt4{"tt40x4", core::RuntimeConfig::tt(usToCycles(40)),
                      4};

/** Fig 11's default SPEC scale: one pass is about a second. */
constexpr double kSpecScale = 0.5;
/** Crash transactions per enumeration: about 250 points each. */
constexpr unsigned kCrashTxns = 4;
/** Fleets per serve pass and their size. */
constexpr std::size_t kFleets = 4;
constexpr unsigned kServeSessions = 100;
constexpr unsigned kServeRequestsPerSession = 320;

void
put(std::ostringstream &os, const char *name, std::uint64_t v)
{
    os << ' ' << name << '=' << v;
}

void
put(std::ostringstream &os, const char *name, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os << ' ' << name << '=' << buf;
}

std::uint64_t
p99(const metrics::Registry *reg, const char *name)
{
    const metrics::LogHistogram *h =
        reg ? reg->findHistogram(name) : nullptr;
    return h ? h->quantile(0.99) : 0;
}

} // namespace

// ---- cell tables ------------------------------------------------------

const std::vector<WhisperCell> &
whisperCells()
{
    static const std::vector<WhisperCell> cells = [] {
        std::vector<WhisperCell> v;
        for (const std::string &p : workloads::whisperNames())
            for (const SchemeCell &s : {kUnprotected, kMm, kTm1, kTt1})
                v.push_back({p, s});
        return v;
    }();
    return cells;
}

workloads::WhisperParams
whisperParams(std::uint64_t seed)
{
    workloads::WhisperParams p; // Fig 9 default: 400 sections
    p.seed = seed;
    return p;
}

const std::vector<SpecCell> &
specCells()
{
    static const std::vector<SpecCell> cells = [] {
        std::vector<SpecCell> v;
        // MM runs one thread, as Figs 10/11 do: manual sections do
        // not refcount across threads.
        for (const std::string &p : workloads::specNames())
            for (const SchemeCell &s : {kTm4, kTt4, kMm})
                v.push_back({p, s});
        return v;
    }();
    return cells;
}

workloads::SpecParams
specParams(const SpecCell &c, std::uint64_t seed)
{
    workloads::SpecParams p;
    p.threads = c.scheme.threads;
    p.scale = kSpecScale;
    p.seed = seed;
    return p;
}

const std::vector<check::CrashOptions> &
crashCells()
{
    static const std::vector<check::CrashOptions> cells = [] {
        std::vector<check::CrashOptions> v;
        for (const char *w : {"bank", "txnest"})
            for (const char *s : {"mm", "tt"}) {
                check::CrashOptions o;
                o.workload = w;
                o.scheme = s;
                o.txns = kCrashTxns;
                v.push_back(o);
            }
        return v;
    }();
    return cells;
}

check::CrashOptions
crashOptions(std::size_t cell, std::uint64_t seed)
{
    check::CrashOptions o = crashCells().at(cell);
    o.seed = seed;
    return o;
}

serve::ServeConfig
serveConfig(std::size_t cell, std::uint64_t seed)
{
    serve::ServeConfig c;
    // Each fleet of a pass draws from its own range of the seed list.
    c.seed = cell * kSeedPool + seed;
    c.shards = 8;
    c.pmosPerShard = 8; // 64 tenant PMOs
    c.sessions = kServeSessions;
    c.requestsPerSession = kServeRequestsPerSession;
    // Odd fleets end every request with a durable 4-write transaction,
    // so durable writes run beside plain reads within one pass.
    c.txnWrites = cell % 2 ? 4 : 0;
    c.persistence = c.txnWrites != 0;
    return c;
}

// ---- the workload table ----------------------------------------------

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v;

        // whisper: splits host time between PMO prefill and region
        // ops; never enters the interpreter. Stresses workloads and
        // core; the control for interpreter and fusion work.
        Workload w{"whisper", {}, nullptr};
        for (const WhisperCell &c : whisperCells())
            w.cells.push_back(c.prog + "/" + c.scheme.tag);
        w.run = [](std::size_t cell, std::uint64_t seed) {
            const WhisperCell &c = whisperCells().at(cell);
            return signature(workloads::runWhisper(
                c.prog, c.scheme.cfg, whisperParams(seed)));
        };
        v.push_back(std::move(w));

        // spec_mt: over 95% of each op is Machine::run (interpreter,
        // cache/TLB, runtime access checks). Stresses compiler, sim,
        // core and metrics; the control for prefill caching.
        Workload s{"spec_mt", {}, nullptr};
        for (const SpecCell &c : specCells())
            s.cells.push_back(c.prog + "/" + c.scheme.tag);
        s.run = [](std::size_t cell, std::uint64_t seed) {
            const SpecCell &c = specCells().at(cell);
            return signature(workloads::runSpec(c.prog, c.scheme.cfg,
                                                specParams(c, seed)));
        };
        v.push_back(std::move(s));

        // crash: the only write- and recovery-heavy path (pm, logs,
        // TxManager, the check oracle). Bypasses the interpreter and
        // WHISPER prefill.
        Workload c{"crash", {}, nullptr};
        for (const check::CrashOptions &o : crashCells())
            c.cells.push_back(o.workload + "/" + o.scheme);
        c.run = [](std::size_t cell, std::uint64_t seed) {
            return signature(
                check::enumerateCrashPoints(crashOptions(cell, seed)));
        };
        v.push_back(std::move(c));

        // serve: the only caller of ShardDomain::sweepTo, the
        // event-driven shard loop, LoadGen and registry merges: many
        // short windows over 64 tenant PMOs.
        Workload f{"serve", {}, nullptr};
        for (std::size_t i = 0; i < kFleets; ++i)
            f.cells.push_back("fleet" + std::to_string(i) + "/txn" +
                              std::to_string(serveConfig(i, 1).txnWrites));
        f.run = [](std::size_t cell, std::uint64_t seed) {
            return signature(
                serve::runFleet(serveConfig(cell, seed), kServeWorkers));
        };
        v.push_back(std::move(f));
        return v;
    }();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<Op>
plan(const Workload &w, std::uint64_t seed)
{
    // FNV-1a of the name keeps the workloads' op lists independent.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char ch : w.name)
        h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    Rng rng(seed ^ h);
    std::vector<Op> ops;
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        ops.push_back({i, 1 + rng.nextBelow(kSeedPool)});
    for (std::size_t i = ops.size(); i > 1; --i)
        std::swap(ops[i - 1], ops[rng.nextBelow(i)]);
    return ops;
}

std::string
opKey(const Workload &w, const Op &op)
{
    return w.name + "/" + w.cells.at(op.cell) +
           "/seed=" + std::to_string(op.seed);
}

// ---- signatures -------------------------------------------------------

std::string
signature(const workloads::RunResult &r)
{
    std::ostringstream os;
    os << "cycles=" << r.totalCycles;
    const core::OverheadReport &o = r.report;
    put(os, "work", o.work);
    put(os, "attach", o.attach);
    put(os, "detach", o.detach);
    put(os, "rand", o.rand);
    put(os, "cond", o.cond);
    put(os, "other", o.other);
    put(os, "total", o.total);
    put(os, "attach_sys", o.attachSyscalls);
    put(os, "detach_sys", o.detachSyscalls);
    put(os, "rands", o.randomizations);
    put(os, "cond_ops", o.condOps);
    put(os, "silent", o.silentFraction);
    const semantics::ExposureMetrics &e = r.exposure;
    put(os, "ew_avg_us", e.ewAvgUs);
    put(os, "ew_max_us", e.ewMaxUs);
    put(os, "er", e.er);
    put(os, "tew_avg_us", e.tewAvgUs);
    put(os, "tew_max_us", e.tewMaxUs);
    put(os, "ter", e.ter);
    put(os, "ew_count", e.ewCount);
    put(os, "tew_count", e.tewCount);
    return os.str();
}

std::string
signature(const check::CrashResult &r)
{
    std::ostringstream os;
    os << "ok=" << (r.ok() ? 1 : 0);
    put(os, "boundaries", r.boundaries);
    put(os, "points", r.pointsRun);
    return os.str();
}

std::string
signature(const serve::FleetResult &r)
{
    std::ostringstream os;
    os << "generated=" << r.generated;
    put(os, "end_clock", r.endClock);
    put(os, "epochs", r.epochs);
    const metrics::Registry *fleet = r.fleet.get();
    put(os, "ew_p99", p99(fleet, "exposure.ew_cycles{pmo=\"all\"}"));
    put(os, "latency_p99", p99(fleet, "serve.request_latency_cycles"));
    return os.str();
}

// ---- checking ---------------------------------------------------------

namespace {

void
loadExpected(const std::string &path, Expected &out)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected values " + path);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t sp = line.find(' ');
        if (line.empty() || sp == std::string::npos)
            continue;
        out[line.substr(0, sp)] = line.substr(sp + 1);
    }
}

} // namespace

Expected
loadExpectedDir(const std::string &dir)
{
    Expected exp;
    for (const Workload &w : allWorkloads())
        loadExpected(dir + "/" + w.name + ".txt", exp);
    return exp;
}

std::string
verify(const Expected &exp, const std::string &key,
       const std::string &got)
{
    auto it = exp.find(key);
    if (it == exp.end())
        return key + ": no expected value";
    if (it->second != got)
        return key + ": expected {" + it->second + "} got {" + got + "}";
    return {};
}

void
Tally::record(const std::string &failure)
{
    ++attempted;
    if (failure.empty())
        return;
    ++failed;
    if (details.size() < 8)
        details.push_back(failure);
}

void
runChecked(const Workload &w, const Op &op, const Expected &exp,
           Tally &tally)
{
    const std::string key = opKey(w, op);
    std::string failure;
    try {
        failure = verify(exp, key, w.run(op.cell, op.seed));
    } catch (const std::exception &e) {
        failure = key + ": exception: " + e.what();
    }
    tally.record(failure);
}

} // namespace hostbench
