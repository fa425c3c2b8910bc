/**
 * @file
 * terp-bench — runs the whole table/figure suite in-process and
 * emits a machine-readable performance summary (BENCH_terp.json):
 * per-figure wall-clock, simulation counts, simulated cycles and
 * sims/sec, plus host thread count and the git revision.
 *
 * Each figure of bench/harness.hh's kFigures prints its table to
 * stdout (once, on the first pass); progress goes to stderr and the
 * JSON to a file. The quick suite's stdout is pinned byte for byte
 * by bench/golden/tables_quick.txt.
 *
 * Simulated-cycle totals are deterministic per figure, so they
 * double as a regression oracle: --golden compares the rendered
 * summary against a checked-in one and fails on any drift, catching
 * accidental semantic changes from performance work.
 *
 * Usage:
 *   terp-bench [--quick] [--jobs=N] [--repeat=N] [--out=FILE]
 *              [--golden=FILE] [--write-golden=FILE]
 *              [--metrics-prom=FILE] [--history=FILE]
 *
 * Options:
 *   --quick            reduced workload sizes (CI smoke run)
 *   --jobs=N           worker threads per figure (default 1)
 *   --repeat=N         run the suite N times and report best-of-N
 *                      wall clock (one JSON record / history line);
 *                      simulated work must be identical across
 *                      passes — a mismatch is reported as drift
 *   --out=FILE         JSON output path (default BENCH_terp.json)
 *   --golden=FILE      fail (exit 1) unless the per-figure summary
 *                      (sims and simulated cycles) equals FILE
 *                      byte for byte
 *   --write-golden=FILE  write the per-figure summary to FILE
 *   --metrics-prom=FILE  also export the aggregated metrics registry
 *                      in Prometheus text format
 *   --history=FILE     append {git rev, sims/s, p99 EW} to the
 *                      append-only bench history (JSON lines)
 *
 * The JSON summary ends with a "metrics" section: the process-wide
 * registry every run merged into (bench::globalMetrics()), giving
 * the suite's security-posture aggregate — exposure-window
 * percentiles, silent-operation fractions, sweeper activity — next
 * to the performance numbers. tools/terp-stats reads it back.
 *
 * A flag's value may follow '=' or come as the next argument
 * (`--jobs=4` or `--jobs 4`); tools/cli.hh holds the value, usage
 * and golden rules all seven tools share.
 *
 * Exit status: 0 on success, 1 on golden drift, 2 on usage errors.
 */

#include <chrono>
#include <climits>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli.hh"
#include "harness.hh"
#include "history.hh"
#include "metrics/export.hh"

using namespace terp;

namespace {

struct FigResult
{
    std::string name;
    double wallS = 0;
    std::uint64_t sims = 0;
    std::uint64_t simCycles = 0;
};

/**
 * Largest p99 across the aggregate's pmo="all" EW histograms (the
 * merge bakes scheme labels into the names, so there is one per
 * scheme; the worst tail is the regression-relevant one).
 */
std::uint64_t
aggregateEwP99()
{
    std::uint64_t worst = 0;
    for (const auto &[name, entry] :
         bench::globalMetrics().entries()) {
        if (entry.kind != metrics::Kind::Histogram || !entry.hist)
            continue;
        if (name.rfind("exposure.ew_cycles{", 0) != 0 ||
            name.find("pmo=\"all\"") == std::string::npos)
            continue;
        std::uint64_t p = entry.hist->quantile(0.99);
        if (p > worst)
            worst = p;
    }
    return worst;
}

const char kUsage[] =
    "usage: terp-bench [--quick] [--jobs=N] [--repeat=N]"
    " [--out=FILE] [--golden=FILE]\n"
    "                  [--write-golden=FILE]"
    " [--metrics-prom=FILE] [--history=FILE]\n";

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned jobs = 1;
    unsigned repeat = 1;
    std::string outPath = "BENCH_terp.json";
    std::string goldenPath;
    std::string writeGoldenPath;
    std::string promPath;
    std::string historyPath;

    cli::Args args("terp-bench", argc, argv, kUsage);
    while (args.next()) {
        if (args.is("--quick"))
            quick = true;
        else if (args.is("--jobs"))
            jobs = static_cast<unsigned>(args.count(1, 1024));
        else if (args.is("--repeat"))
            repeat = static_cast<unsigned>(args.count(1, UINT_MAX));
        else if (args.is("--out"))
            outPath = args.str();
        else if (args.is("--golden"))
            goldenPath = args.str();
        else if (args.is("--write-golden"))
            writeGoldenPath = args.str();
        else if (args.is("--metrics-prom"))
            promPath = args.str();
        else if (args.is("--history"))
            historyPath = args.str();
        else
            args.unknown();
    }

    std::vector<FigResult> results;
    // Best-of-N convention (see bench/history.hh): wall-clock fields
    // are the minimum over passes, simulated work the (identical)
    // per-pass amount, so a single record summarizes N passes without
    // inflating throughput by host noise in either direction.
    double bestPassS = 0;
    std::uint64_t passSims = 0;
    bool repeatDrift = false;
    // Later passes rerun identical work; their tables are discarded
    // so stdout carries the suite once.
    const std::unique_ptr<std::FILE, int (*)(std::FILE *)> devNull(
        repeat > 1 ? std::fopen("/dev/null", "w") : nullptr,
        std::fclose);

    for (unsigned pass = 0; pass < repeat; ++pass) {
        // Every pass re-runs the same simulated work, so the metrics
        // section describes one pass, as the stats golden expects.
        bench::globalMetrics() = metrics::Registry();
        const auto passStart = std::chrono::steady_clock::now();
        const bench::SimTally passBefore = bench::tallySnapshot();
        if (repeat > 1)
            std::fprintf(stderr, "terp-bench: pass %u/%u\n", pass + 1,
                         repeat);

        std::FILE *out = pass == 0 || !devNull ? stdout : devNull.get();
        for (std::size_t fi = 0; fi < std::size(bench::kFigures); ++fi) {
            const bench::Figure &fig = bench::kFigures[fi];
            const bench::SimTally before = bench::tallySnapshot();
            const auto t0 = std::chrono::steady_clock::now();
            fig.fn(quick, jobs, out);
            const auto t1 = std::chrono::steady_clock::now();
            const bench::SimTally after = bench::tallySnapshot();

            FigResult r;
            r.name = fig.name;
            r.wallS = std::chrono::duration<double>(t1 - t0).count();
            r.sims = after.sims - before.sims;
            r.simCycles = after.simCycles - before.simCycles;
            if (pass == 0) {
                results.push_back(r);
            } else {
                FigResult &best = results[fi];
                if (r.sims != best.sims ||
                    r.simCycles != best.simCycles) {
                    std::fprintf(stderr,
                                 "terp-bench: simulated work differs "
                                 "across passes in %s\n",
                                 fig.name);
                    repeatDrift = true;
                }
                if (r.wallS < best.wallS)
                    best.wallS = r.wallS;
            }
            // One line after the run, so the table on stdout never
            // lands inside it on a shared terminal.
            std::fprintf(stderr,
                         "terp-bench: %-8s ... %6.2fs  %3llu sims  "
                         "%llu cycles\n",
                         fig.name, r.wallS, (unsigned long long)r.sims,
                         (unsigned long long)r.simCycles);
        }

        const double passS =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - passStart)
                .count();
        const bench::SimTally passAfter = bench::tallySnapshot();
        if (pass == 0) {
            bestPassS = passS;
            passSims = passAfter.sims - passBefore.sims;
        } else if (passS < bestPassS) {
            bestPassS = passS;
        }
    }
    const double totalS = bestPassS;
    bench::SimTally total = bench::tallySnapshot();
    total.sims = passSims;
    if (repeatDrift)
        std::fprintf(stderr,
                     "terp-bench: WARNING: simulated work drifted "
                     "across repeat passes; results suspect\n");
    // ---- JSON summary --------------------------------------------
    std::string json = cli::format(
        "{\n"
        "  \"git_rev\": \"%s\",\n"
        "  \"host_threads\": %u,\n"
        "  \"jobs\": %u,\n"
        "  \"quick\": %s,\n"
        "  \"repeat\": %u,\n"
        "  \"total_wall_s\": %.3f,\n"
        "  \"total_sims\": %llu,\n"
        "  \"total_sims_per_s\": %.2f,\n"
        "  \"figures\": [\n",
        bench::gitRev().c_str(), std::thread::hardware_concurrency(), jobs,
        quick ? "true" : "false", repeat, totalS,
        (unsigned long long)total.sims,
        totalS > 0 ? total.sims / totalS : 0.0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const FigResult &r = results[i];
        json += cli::format("    {\"name\": \"%s\", \"wall_s\": %.3f, "
                            "\"sims\": %llu, \"sim_cycles\": %llu, "
                            "\"sims_per_s\": %.2f}%s\n",
                            r.name.c_str(), r.wallS,
                            (unsigned long long)r.sims,
                            (unsigned long long)r.simCycles,
                            r.wallS > 0 ? r.sims / r.wallS : 0.0,
                            i + 1 < results.size() ? "," : "");
    }
    json += "  ],\n  \"metrics\": " +
            metrics::toJson(bench::globalMetrics(), "  ") + "\n}\n";
    cli::writeText("terp-bench", outPath, json);

    if (!historyPath.empty()) {
        bench::HistoryRecord rec;
        rec.tool = "terp-bench";
        rec.metric = "sims_per_s";
        rec.simsPerS = totalS > 0 ? total.sims / totalS : 0.0;
        rec.p99EwCycles = aggregateEwP99();
        if (!bench::appendHistory(historyPath, rec)) {
            std::fprintf(stderr, "terp-bench: cannot append %s\n",
                         historyPath.c_str());
            return 2;
        }
        std::fprintf(stderr, "terp-bench: appended history %s\n",
                     historyPath.c_str());
    }

    if (!promPath.empty())
        cli::writeText("terp-bench", promPath,
                       metrics::toPrometheus(bench::globalMetrics()));

    // ---- golden summary (simulated work only; no wall-clock) ------
    std::string golden =
        "# terp-bench golden summary: <figure> <sims> <sim_cycles>\n";
    for (const FigResult &r : results)
        golden += cli::format("%s %llu %llu\n", r.name.c_str(),
                              (unsigned long long)r.sims,
                              (unsigned long long)r.simCycles);
    if (!writeGoldenPath.empty())
        cli::writeText("terp-bench", writeGoldenPath, golden);
    if (!goldenPath.empty())
        return cli::checkGolden("terp-bench", goldenPath, golden);
    return 0;
}
