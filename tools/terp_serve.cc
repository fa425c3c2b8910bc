/**
 * @file
 * terp-serve — a long-lived multi-tenant PMO server simulation.
 *
 * Owns a fleet of tenant PMOs partitioned into shards (one isolated
 * runtime domain each: circular buffer, sweeper, exposure tracker,
 * placement RNG) and serves an open-loop stream of
 * attach/access/detach transactions from simulated client sessions:
 * Zipfian tenant popularity, bursty on/off arrivals, a configurable
 * fraction of slow clients that hold their attach windows past the
 * sweeper horizon. Prints the fleet's exposure/latency posture —
 * EW/TEW tails, SLO violations, request latency percentiles, queue
 * depth and shed counts, per shard and fleet-wide.
 *
 * Determinism contract (held down by tests and the golden): for a
 * fixed --seed and --shards, the posture report is byte-identical
 * for any --workers=N. Each shard is one task that runs to the end
 * on a pool of min(N, shards) host threads; threads only decide
 * when a shard runs, never what it computes.
 *
 * Usage:
 *   terp-serve [--quick] [--seed=S] [--shards=K] [--workers=N]
 *              [--sessions=C] [--requests=R] [--scheme=NAME]
 *              [--slow=FRAC] [--queue-cap=Q] [--out=FILE]
 *              [--golden=FILE] [--write-golden=FILE]
 *              [--metrics-prom=FILE] [--history=FILE] [--quiet]
 *
 * Options:
 *   --quick              small CI configuration (2 shards, 200
 *                        sessions) — the serve golden's config;
 *                        the other flags edit it, before or after
 *   --seed=S             master seed (default 1)
 *   --shards=K           runtime domains (default 2)
 *   --workers=N          host worker threads, at most one per
 *                        shard (default 1)
 *   --sessions=C         client sessions (default 200)
 *   --requests=R         requests per session (default 16)
 *   --scheme=NAME        tt | tm | mm | ttnc | basic | unprotected
 *                        (default tt)
 *   --slow=FRAC          slow-client fraction (default 0.02)
 *   --ew-budget=F        per-tenant exposure budget (fraction of
 *                        wall-clock a tenant PMO may sit exposed)
 *                        for SLO burn-rate alerting; publishes
 *                        serve.slo_burn{tenant,win} gauges
 *                        (default 0 = off)
 *   --txn-writes=N       end every request with one durable
 *                        TxManager transaction of N writes on its
 *                        tenant PMO (enables persistence; default 0
 *                        = no transactions)
 *   --queue-cap=Q        bounded per-shard queue (default 64)
 *   --out=FILE           JSON results (default SERVE_terp.json)
 *   --golden=FILE        fail (exit 1) if the report differs
 *   --write-golden=FILE  write the report to FILE
 *   --metrics-prom=FILE  fleet metrics, Prometheus text format
 *   --history=FILE       append {git rev, req/s, p99 EW, p99
 *                        latency} to the bench history (JSON lines)
 *   --quiet              suppress the report on stdout
 *
 * A flag's value may follow '=' or come as the next argument
 * (`--seed=7` or `--seed 7`); tools/cli.hh holds the value, usage
 * and golden rules all seven tools share.
 *
 * Exit status: 0 on success, 1 on golden drift, 2 on usage errors.
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <string>

#include "cli.hh"
#include "history.hh"
#include "metrics/export.hh"
#include "serve/report.hh"
#include "serve/server.hh"

using namespace terp;

namespace {

const char kUsage[] =
    "usage: terp-serve [--quick] [--seed=S] [--shards=K]"
    " [--workers=N]\n"
    "                  [--sessions=C] [--requests=R]"
    " [--scheme=NAME] [--slow=FRAC]\n"
    "                  [--ew-budget=F]\n"
    "                  [--txn-writes=N]\n"
    "                  [--queue-cap=Q] [--out=FILE]"
    " [--golden=FILE]\n"
    "                  [--write-golden=FILE]"
    " [--metrics-prom=FILE]\n"
    "                  [--history=FILE] [--quiet]\n";

std::uint64_t
fleetP99(const serve::FleetResult &res, const char *name)
{
    if (!res.fleet)
        return 0;
    const metrics::LogHistogram *h = res.fleet->findHistogram(name);
    return h && h->summary().count() ? h->quantile(0.99) : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned workers = 1;
    bool quiet = false, quick = false;
    std::string outPath = "SERVE_terp.json";
    std::string goldenPath, writeGoldenPath, promPath, historyPath;

    auto parse = [&](serve::ServeConfig &cfg) {
        cli::Args args("terp-serve", argc, argv, kUsage);
        while (args.next()) {
            if (args.is("--quick")) {
                quick = true;
            } else if (args.is("--seed")) {
                cfg.seed = args.seed();
            } else if (args.is("--shards")) {
                cfg.shards = static_cast<unsigned>(args.count(1, 4096));
            } else if (args.is("--workers")) {
                workers = static_cast<unsigned>(args.count(1, 1024));
            } else if (args.is("--sessions")) {
                cfg.sessions = static_cast<unsigned>(args.count(0, 1000000));
            } else if (args.is("--requests")) {
                cfg.requestsPerSession =
                    static_cast<unsigned>(args.count(0, 1000000));
            } else if (args.is("--scheme")) {
                cfg.runtime = cli::scheme("terp-serve", args.str());
            } else if (args.is("--slow")) {
                cfg.slowFraction = args.real(0, 1);
            } else if (args.is("--ew-budget")) {
                cfg.tenantEwBudget = args.real(0, HUGE_VAL);
            } else if (args.is("--txn-writes")) {
                cfg.txnWrites = static_cast<unsigned>(args.count(0, UINT_MAX));
                if (cfg.txnWrites > 0)
                    cfg.persistence = true;
            } else if (args.is("--queue-cap")) {
                cfg.queueCapacity =
                    static_cast<unsigned>(args.count(1, UINT_MAX));
            } else if (args.is("--out")) {
                outPath = args.str();
            } else if (args.is("--golden")) {
                goldenPath = args.str();
            } else if (args.is("--write-golden")) {
                writeGoldenPath = args.str();
            } else if (args.is("--metrics-prom")) {
                promPath = args.str();
            } else if (args.is("--history")) {
                historyPath = args.str();
            } else if (args.is("--quiet")) {
                quiet = true;
            } else {
                args.unknown();
            }
        }
    };
    // --quick replaces the whole configuration, so it goes first and
    // a second walk applies the other flags on top of it.
    serve::ServeConfig cfg;
    parse(cfg);
    if (quick) {
        cfg = serve::ServeConfig::quick();
        parse(cfg);
    }
    // runFleet starts at most one thread per shard; report that count.
    workers = std::min(workers, cfg.shards);

    std::fprintf(stderr,
                 "terp-serve: %u shard(s), %u session(s), %u host "
                 "worker(s), seed %llu\n",
                 cfg.shards, cfg.sessions, workers,
                 static_cast<unsigned long long>(cfg.seed));

    serve::FleetResult res = serve::runFleet(cfg, workers);
    std::string report = serve::postureReport(res);
    if (!quiet)
        std::fputs(report.c_str(), stdout);
    std::fprintf(stderr, "terp-serve: done in %.2fs\n",
                 res.wallSeconds);

    if (!outPath.empty())
        cli::writeText("terp-serve", outPath, serve::toJson(res, workers));

    if (!promPath.empty()) {
        if (!res.fleet) {
            std::fprintf(stderr,
                         "terp-serve: metrics disabled, no %s\n",
                         promPath.c_str());
            return 2;
        }
        cli::writeText("terp-serve", promPath,
                       metrics::toPrometheus(*res.fleet));
    }

    if (!historyPath.empty()) {
        bench::HistoryRecord rec;
        rec.tool = "terp-serve";
        rec.metric = "req_per_s"; // completed requests, not sims
        std::uint64_t done = 0;
        for (const auto &s : res.shards)
            done += s.completed;
        rec.simsPerS =
            res.wallSeconds > 0 ? done / res.wallSeconds : 0.0;
        rec.p99EwCycles =
            fleetP99(res, "exposure.ew_cycles{pmo=\"all\"}");
        rec.p99LatencyCycles =
            fleetP99(res, "serve.request_latency_cycles");
        if (!bench::appendHistory(historyPath, rec)) {
            std::fprintf(stderr, "terp-serve: cannot append %s\n",
                         historyPath.c_str());
            return 2;
        }
        std::fprintf(stderr, "terp-serve: appended history %s\n",
                     historyPath.c_str());
    }

    if (!writeGoldenPath.empty())
        cli::writeText("terp-serve", writeGoldenPath, report);
    if (!goldenPath.empty())
        return cli::checkGolden("terp-serve", goldenPath, report);
    return 0;
}
