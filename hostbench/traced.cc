/**
 * @file
 * The traced mode: one pass of every workload with spans around the
 * benchmark's calls into each layer, and the per-layer metrics drawn
 * from them. Each op also runs untraced just before its traced run,
 * so tracing overhead is measured op by op; whisper and spec_mt ops
 * run a third time with metrics off, for the metrics tax. Every run
 * is output-checked, and the spec_mt re-drive must reproduce
 * runSpec's result exactly.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>

#include "compiler/interp.hh"
#include "metrics/registry.hh"
#include "ops.hh"
#include "tracer.hh"

namespace hostbench {

using namespace terp;

// ---- Tracer -----------------------------------------------------------

std::int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer &t, std::string name, std::string label)
    : tr(t), id(static_cast<int>(t.spans.size()))
{
    Span s;
    s.name = std::move(name);
    s.label = std::move(label);
    s.parent = t.open.empty() ? -1 : t.open.back();
    t.spans.push_back(std::move(s));
    t.open.push_back(id);
    // Start last, so the bookkeeping above is not inside the span.
    t.spans[id].startNs = nowNs();
}

double
Tracer::Scope::close()
{
    Span &s = tr.spans[id];
    if (!closed) {
        s.endNs = nowNs();
        closed = true;
        tr.open.pop_back();
        if (s.parent >= 0)
            tr.spans[s.parent].childNs += s.endNs - s.startNs;
    }
    return static_cast<double>(s.endNs - s.startNs) / 1e6;
}

Tracer::Scope::~Scope()
{
    close();
}

void
Tracer::aggregate(const std::string &name, std::int64_t ns)
{
    Aggregate &a = aggs[name];
    a.ns += ns;
    ++a.calls;
    if (!open.empty())
        spans[open.back()].childNs += ns;
}

double
Tracer::ms(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans)
        if (s.name == name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) / 1e6;
}

double
Tracer::selfMs(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans)
        if (s.name == name)
            ns += s.endNs - s.startNs - s.childNs;
    return static_cast<double>(ns) / 1e6;
}

const Tracer::Aggregate &
Tracer::aggregateOf(const std::string &name)
{
    return aggs[name];
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1",
                      static_cast<double>(s.startNs - t0) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\"," << buf << ",\"args\":{\"label\":\""
            << s.label << "\",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ---- the spec_mt re-drive ---------------------------------------------

workloads::RunResult
redriveSpec(const SpecCell &c, std::uint64_t seed, Tracer &tr,
            std::uint64_t &instructions)
{
    // runSpec's public sequence, step for step.
    const workloads::SpecParams p = specParams(c, seed);
    const core::RuntimeConfig &cfg = c.scheme.cfg;
    sim::Machine mach;
    pm::PmoManager pmos(p.seed);

    compiler::PassConfig pc;
    pc.ewLetThreshold = cfg.ewTarget;
    pc.tewLetThreshold = cfg.tewTarget;
    std::unique_ptr<workloads::SpecProgram> prog;
    {
        Tracer::Scope s(tr, "compiler.build_pass");
        prog = std::make_unique<workloads::SpecProgram>(
            workloads::buildSpec(c.prog, pmos, pc, p));
    }
    pm::MemImage img;
    Rng rng(p.seed ^ 0xabcdef);
    {
        Tracer::Scope s(tr, "pm.prefill");
        prog->setup(img, rng);
    }
    core::Runtime rt(mach, pmos, cfg);

    std::vector<std::unique_ptr<compiler::Interpreter>> interps;
    std::vector<sim::Job *> jobs;
    {
        Tracer::Scope s(tr, "compiler.decode");
        for (unsigned t = 0; t < p.threads; ++t) {
            mach.spawnThread();
            interps.push_back(std::make_unique<compiler::Interpreter>(
                prog->module, rt, mach, img, prog->entry,
                std::vector<std::uint64_t>{t, p.threads}));
            jobs.push_back(interps.back().get());
        }
    }
    {
        Tracer::Scope s(tr, "sim.run");
        mach.run(jobs, [&](Cycles now) {
            const std::int64_t t0 = Tracer::nowNs();
            rt.onSweep(now);
            tr.aggregate("core.sweep", Tracer::nowNs() - t0);
        });
    }
    {
        Tracer::Scope s(tr, "core.finalize");
        rt.finalize();
    }

    workloads::RunResult r;
    r.name = c.prog;
    r.report = rt.report();
    r.totalCycles = mach.maxClock();
    r.exposure = rt.exposure().metricsAll(r.totalCycles, p.threads);
    r.pmoCount = prog->pmos.size();
    r.metrics = rt.metricsRegistry();
    instructions = 0;
    for (const auto &in : interps)
        instructions += in->instructionsExecuted();
    return r;
}

std::string
sameRun(const workloads::RunResult &a, const workloads::RunResult &b)
{
    // The signature covers totalCycles, every OverheadReport
    // component and the exposure summary.
    const std::string sa = signature(a), sb = signature(b);
    if (sa != sb)
        return "re-drive differs from runSpec: {" + sb + "} vs {" + sa +
               "}";
    return {};
}

// ---- the traced run ---------------------------------------------------

namespace {

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::uint64_t
counterOf(const metrics::Registry *reg, const char *name)
{
    const metrics::Counter *c = reg ? reg->findCounter(name) : nullptr;
    return c ? c->value() : 0;
}

/** EW windows closed: the count of the all-PMO EW histogram. */
std::uint64_t
ewWindows(const metrics::Registry *reg)
{
    const metrics::LogHistogram *h =
        reg ? reg->findHistogram("exposure.ew_cycles{pmo=\"all\"}")
            : nullptr;
    return h ? h->count() : 0;
}

/** Work-held-constant counts of the runtime's registry. */
struct WorkCounts
{
    std::uint64_t full = 0, silent = 0, ticks = 0, windows = 0;

    void
    add(const metrics::Registry *reg)
    {
        full += counterOf(reg, "runtime.full_ops");
        silent += counterOf(reg, "runtime.silent_ops");
        ticks += counterOf(reg, "sweeper.ticks");
        windows += ewWindows(reg);
    }

    void
    emit(std::vector<Metric> &out, const std::string &w) const
    {
        out.push_back({"runtime.full_ops." + w, double(full), "count"});
        out.push_back(
            {"runtime.silent_ops." + w, double(silent), "count"});
        out.push_back({"sweeper.ticks." + w, double(ticks), "count"});
        out.push_back(
            {"exposure.ew_windows." + w, double(windows), "count"});
    }
};

/** Run @p f, which returns a failure detail, into the tally; an
 * exception is a failure too. Returns host seconds taken. */
template <class F>
double
checked(Tally &tally, const std::string &key, F &&f)
{
    const Clock::time_point t0 = Clock::now();
    std::string failure;
    try {
        failure = f();
    } catch (const std::exception &e) {
        failure = key + ": exception: " + e.what();
    }
    const double s = secondsBetween(t0, Clock::now());
    tally.record(failure);
    return s;
}

/** Uncovered share and tracing overhead of one workload's ops. */
void
bookkeeping(std::vector<Metric> &out, const Tracer &tr,
            const std::string &w, double untracedS)
{
    const std::string op = "op." + w;
    const double total = tr.ms(op);
    out.push_back({"trace.uncovered_pct." + w,
                   total > 0 ? 100.0 * tr.selfMs(op) / total : 0.0,
                   "%"});
    out.push_back({"trace.overhead_pct." + w,
                   untracedS > 0
                       ? 100.0 * (total / 1e3 - untracedS) / untracedS
                       : 0.0,
                   "%"});
}

void
tracedWhisper(std::uint64_t seed, const Expected &exp, Tracer &tr,
              Tally &tally, std::vector<Metric> &out)
{
    const Workload &w = *findWorkload("whisper");
    for (const std::string &prog : workloads::whisperNames()) {
        workloads::WhisperParams p = whisperParams(1);
        p.sections = 0;
        Tracer::Scope s(tr, "workloads.prefill", prog);
        workloads::runWhisper(prog, core::RuntimeConfig::unprotected(), p);
    }
    double untraced = 0, noMetrics = 0;
    double ttMs = 0, unprotectedMs = 0;
    WorkCounts counts;
    for (const Op &op : plan(w, seed)) {
        const WhisperCell &c = whisperCells().at(op.cell);
        const workloads::WhisperParams p = whisperParams(op.seed);
        const std::string key = opKey(w, op);
        untraced += checked(tally, key, [&] {
            return verify(exp, key,
                          signature(workloads::runWhisper(
                              c.prog, c.scheme.cfg, p)));
        });
        {
            Tracer::Scope o(tr, "op.whisper", key);
            checked(tally, key, [&] {
                Tracer::Scope s(tr, "workloads.runWhisper", key);
                workloads::RunResult r =
                    workloads::runWhisper(c.prog, c.scheme.cfg, p);
                const double ms = s.close();
                if (c.scheme.cfg.scheme == core::Scheme::TT)
                    ttMs += ms;
                else if (c.scheme.cfg.scheme ==
                         core::Scheme::Unprotected)
                    unprotectedMs += ms;
                counts.add(r.metrics.get());
                return verify(exp, key, signature(r));
            });
        }
        noMetrics += checked(tally, key, [&] {
            return verify(exp, key,
                          signature(workloads::runWhisper(
                              c.prog, c.scheme.cfg.withoutMetrics(),
                              p)));
        });
    }
    out.push_back(
        {"workloads.prefill_ms", tr.ms("workloads.prefill"), "ms"});
    out.push_back({"core.protect_ms", ttMs - unprotectedMs, "ms"});
    out.push_back({"metrics.tax_pct.whisper",
                   100.0 * (untraced - noMetrics) / noMetrics, "%"});
    counts.emit(out, "whisper");
    bookkeeping(out, tr, "whisper", untraced);
}

void
tracedSpec(std::uint64_t seed, const Expected &exp, Tracer &tr,
           Tally &tally, std::vector<Metric> &out)
{
    const Workload &w = *findWorkload("spec_mt");
    double untraced = 0, noMetrics = 0;
    std::uint64_t instructions = 0;
    WorkCounts counts;
    for (const Op &op : plan(w, seed)) {
        const SpecCell &c = specCells().at(op.cell);
        const workloads::SpecParams p = specParams(c, op.seed);
        const std::string key = opKey(w, op);
        workloads::RunResult ref;
        untraced += checked(tally, key, [&] {
            ref = workloads::runSpec(c.prog, c.scheme.cfg, p);
            return verify(exp, key, signature(ref));
        });
        {
            Tracer::Scope o(tr, "op.spec_mt", key);
            checked(tally, key, [&] {
                std::uint64_t n = 0;
                workloads::RunResult r = redriveSpec(c, op.seed, tr, n);
                instructions += n;
                counts.add(r.metrics.get());
                std::string diff = sameRun(ref, r);
                if (!diff.empty())
                    return key + ": " + diff;
                return verify(exp, key, signature(r));
            });
        }
        noMetrics += checked(tally, key, [&] {
            return verify(exp, key,
                          signature(workloads::runSpec(
                              c.prog, c.scheme.cfg.withoutMetrics(),
                              p)));
        });
    }
    const Tracer::Aggregate &sweep = tr.aggregateOf("core.sweep");
    const double runSelfMs = tr.selfMs("sim.run");
    out.push_back({"core.sweep_ms", double(sweep.ns) / 1e6, "ms"});
    out.push_back({"core.sweep_calls", double(sweep.calls), "count"});
    out.push_back({"core.finalize_ms", tr.ms("core.finalize"), "ms"});
    out.push_back(
        {"compiler.build_pass_ms", tr.ms("compiler.build_pass"), "ms"});
    out.push_back({"pm.prefill_ms", tr.ms("pm.prefill"), "ms"});
    out.push_back({"compiler.decode_ms", tr.ms("compiler.decode"), "ms"});
    out.push_back({"sim.run_ms", runSelfMs, "ms"});
    out.push_back(
        {"interp.instructions", double(instructions), "count"});
    out.push_back({"interp.minstr_per_s",
                   runSelfMs > 0 ? double(instructions) / runSelfMs / 1e3
                                 : 0.0,
                   "Minstr/s"});
    out.push_back({"metrics.tax_pct.spec_mt",
                   100.0 * (untraced - noMetrics) / noMetrics, "%"});
    counts.emit(out, "spec_mt");
    bookkeeping(out, tr, "spec_mt", untraced);
}

void
tracedCrash(std::uint64_t seed, const Expected &exp, Tracer &tr,
            Tally &tally, std::vector<Metric> &out)
{
    const Workload &w = *findWorkload("crash");
    double untraced = 0;
    std::map<std::string, double> ms;
    std::map<std::string, std::uint64_t> boundaries, points;
    for (const Op &op : plan(w, seed)) {
        const check::CrashOptions o = crashOptions(op.cell, op.seed);
        const std::string key = opKey(w, op);
        untraced += checked(tally, key, [&] {
            return verify(exp, key,
                          signature(check::enumerateCrashPoints(o)));
        });
        Tracer::Scope s(tr, "op.crash", key);
        checked(tally, key, [&] {
            Tracer::Scope e(tr, "check.enumerateCrashPoints", key);
            check::CrashResult r = check::enumerateCrashPoints(o);
            ms[o.workload] += e.close();
            boundaries[o.workload] += r.boundaries;
            points[o.workload] += r.pointsRun;
            return verify(exp, key, signature(r));
        });
    }
    for (const char *name : {"bank", "txnest"}) {
        const std::string n = name;
        out.push_back({"check.boundaries." + n,
                       double(boundaries[n]), "count"});
        out.push_back({"check.points." + n, double(points[n]), "count"});
        out.push_back({"check.ms_per_point." + n,
                       points[n] ? ms[n] / double(points[n]) : 0.0,
                       "ms"});
    }
    bookkeeping(out, tr, "crash", untraced);
}

void
tracedServe(std::uint64_t seed, const Expected &exp, Tracer &tr,
            Tally &tally, std::vector<Metric> &out)
{
    const Workload &w = *findWorkload("serve");
    double untraced = 0;
    std::uint64_t generated = 0, epochs = 0;
    std::uint64_t done = 0, shed = 0, commits = 0, busy = 0, ticks = 0;
    for (const Op &op : plan(w, seed)) {
        const serve::ServeConfig cfg = serveConfig(op.cell, op.seed);
        const std::string key = opKey(w, op);
        {
            Tracer::Scope s(tr, "serve.LoadGen", key);
            serve::LoadGen lg(cfg);
        }
        untraced += checked(tally, key, [&] {
            return verify(exp, key,
                          signature(serve::runFleet(cfg, kServeWorkers)));
        });
        Tracer::Scope s(tr, "op.serve", key);
        checked(tally, key, [&] {
            serve::FleetResult r;
            {
                Tracer::Scope f(tr, "serve.runFleet", key);
                r = serve::runFleet(cfg, kServeWorkers);
            }
            generated += r.generated;
            epochs += r.epochs;
            const metrics::Registry *reg = r.fleet.get();
            done += counterOf(reg, "serve.requests_done");
            shed += counterOf(reg, "serve.requests_shed");
            commits += counterOf(reg, "pm.txn_commits");
            busy += counterOf(reg, "pm.txn_busy");
            ticks += counterOf(reg, "sweeper.ticks");
            return verify(exp, key, signature(r));
        });
    }
    const double fleetMs = tr.ms("serve.runFleet");
    out.push_back({"serve.loadgen_ms", tr.ms("serve.LoadGen"), "ms"});
    out.push_back({"serve.fleet_ms", fleetMs, "ms"});
    out.push_back({"serve.requests_per_s",
                   fleetMs > 0 ? double(generated) / fleetMs * 1e3 : 0.0,
                   "1/s"});
    out.push_back({"serve.epochs", double(epochs), "count"});
    out.push_back({"serve.requests_done", double(done), "count"});
    out.push_back({"serve.requests_shed", double(shed), "count"});
    out.push_back({"pm.txn_commits", double(commits), "count"});
    out.push_back({"pm.txn_busy", double(busy), "count"});
    out.push_back({"sweeper.ticks.serve", double(ticks), "count"});
    bookkeeping(out, tr, "serve", untraced);
}

} // namespace

int
runTraced(std::uint64_t seed, const Expected &exp,
          const std::string &spansPath)
{
    Tracer tr;
    Tally tally;
    std::vector<Metric> out;
    tracedWhisper(seed, exp, tr, tally, out);
    tracedSpec(seed, exp, tr, tally, out);
    tracedCrash(seed, exp, tr, tally, out);
    tracedServe(seed, exp, tr, tally, out);

    for (const std::string &d : tally.details)
        std::fprintf(stderr, "hostbench: failed op: %s\n", d.c_str());
    if (!spansPath.empty() && !tr.writeChrome(spansPath))
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     spansPath.c_str());

    std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"metrics\":{",
                tally.attempted, tally.failed);
    for (std::size_t i = 0; i < out.size(); ++i)
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i ? "," : "", out[i].name.c_str(), out[i].value,
                    out[i].unit);
    std::printf("}}\n");
    return 0;
}

} // namespace hostbench
