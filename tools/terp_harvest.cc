/**
 * @file
 * terp-harvest — race-to-expiry intermittent-power driver.
 *
 * Runs the energy-harvesting harness (src/energy/harvest.hh) over a
 * matrix of capacitor sizes x schemes: each cell executes thousands
 * of consecutive power-fail / recharge / recover cycles off a
 * capacitor charged per simulated cycle, with the crash-enumeration
 * oracle's invariants checked at every cycle. The table shows how
 * the exposure-window cost of intermittent power scales with storage
 * size — smaller capacitors mean more recovery re-attaches and more
 * sweeper ticks gated by the backup-energy reserve, so EW/TEW climb
 * as capacity shrinks. Overhead columns are relative to the largest
 * capacitor in the list (the closest cell to steady power).
 *
 * Usage:
 *   terp-harvest [options]
 *
 * Options:
 *   --scheme S        all (default) or one of: mm tm tt ttnc basic
 *   --workload W      bank (default) or txmix
 *   --caps LIST       comma-separated capacitor sizes in energy
 *                     units, each 1..1000000 (default
 *                     600,1000,2000,4000)
 *   --cycles N        power cycles per cell (default 200)
 *   --seed N          workload seed (default 0)
 *   --ew US           EW target in microseconds (default 5)
 *   --audit N         trace-audit stride in power cycles (default
 *                     25; 0 disables)
 *   --json            one JSON object per cell on stdout
 *   --golden=FILE     fail (exit 1) if the deterministic per-cell
 *                     summary differs from FILE
 *   --write-golden=FILE  write the per-cell summary to FILE
 *   --history=PATH    append one throughput record (metric label
 *                     cycles_per_s) to the benchmark history
 *
 * Exit status: 0 when every cell passed its oracle, 1 on any
 * violation or golden drift, 2 on usage errors.
 */

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/fuzzer.hh"
#include "cli.hh"
#include "energy/harvest.hh"
#include "history.hh"

using namespace terp;

namespace {

struct CellResult
{
    std::string scheme;
    std::uint64_t capUnits = 0;
    energy::HarvestResult res;
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: terp-harvest [--scheme all|mm|tm|tt|ttnc|basic]\n"
        "                    [--workload bank|txmix] [--caps LIST]\n"
        "                    [--cycles N] [--seed N] [--ew US]\n"
        "                    [--audit N] [--json] [--golden=FILE]\n"
        "                    [--write-golden=FILE] [--history=PATH]\n");
    return 2;
}

/**
 * Largest accepted capacitor: a power cycle's length grows with the
 * charge, so this bounds one cell to minutes, not days.
 */
constexpr std::uint64_t kMaxCapUnits = 1000000;

std::vector<std::uint64_t>
parseCaps(const std::string &list)
{
    std::vector<std::uint64_t> caps;
    std::size_t pos = 0;
    while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        caps.push_back(cli::count("terp-harvest", "--caps",
                                  list.substr(pos, comma - pos), 1,
                                  kMaxCapUnits));
        pos = comma + 1;
    }
    return caps;
}

std::string
cellJson(const std::string &workload, const CellResult &c)
{
    const energy::HarvestResult &r = c.res;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"scheme\": \"%s\", \"workload\": \"%s\", "
        "\"cap_units\": %llu, \"power_cycles\": %u, "
        "\"committed\": %llu, \"interrupted\": %llu, "
        "\"aborted\": %llu, \"checkpoints\": %llu, "
        "\"sweeps_run\": %llu, \"sweeps_skipped\": %llu, "
        "\"recovered_logs\": %llu, \"sim_cycles\": %llu, "
        "\"off_cycles\": %llu, \"ew_avg_us\": %.3f, "
        "\"ew_max_us\": %.3f, \"tew_avg_us\": %.3f, "
        "\"violations\": %zu}",
        c.scheme.c_str(), workload.c_str(),
        (unsigned long long)c.capUnits, r.powerCycles,
        (unsigned long long)r.committed,
        (unsigned long long)r.interrupted,
        (unsigned long long)r.aborted,
        (unsigned long long)r.checkpoints,
        (unsigned long long)r.sweepsRun,
        (unsigned long long)r.sweepsSkipped,
        (unsigned long long)r.recoveredLogs,
        (unsigned long long)r.simCycles,
        (unsigned long long)r.offCycles, r.exposure.ewAvgUs,
        r.exposure.ewMaxUs, r.exposure.tewAvgUs,
        r.violations.size());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scheme = "all";
    std::string workload = "bank";
    std::string capsArg = "600,1000,2000,4000";
    unsigned cycles = 200;
    std::uint64_t seed = 0;
    double ewUs = 5.0;
    unsigned audit = 25;
    bool json = false;
    std::string goldenPath, writeGoldenPath, historyPath;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string inl;
        std::size_t eq = a.find('=');
        if (eq != std::string::npos) {
            inl = a.substr(eq + 1);
            a = a.substr(0, eq);
        }
        auto val = [&]() -> std::string {
            if (!inl.empty())
                return inl;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--scheme") {
            scheme = val();
        } else if (a == "--workload") {
            workload = val();
        } else if (a == "--caps") {
            capsArg = val();
        } else if (a == "--cycles") {
            cycles = static_cast<unsigned>(
                cli::count("terp-harvest", a, val(), 1, UINT_MAX));
        } else if (a == "--seed") {
            seed = std::strtoull(val().c_str(), nullptr, 0);
        } else if (a == "--ew") {
            ewUs = cli::positive("terp-harvest", a, val());
        } else if (a == "--audit") {
            audit = static_cast<unsigned>(
                cli::count("terp-harvest", a, val(), 0, UINT_MAX));
        } else if (a == "--json") {
            json = true;
        } else if (a == "--golden") {
            goldenPath = val();
        } else if (a == "--write-golden") {
            writeGoldenPath = val();
        } else if (a == "--history") {
            historyPath = val();
        } else if (a == "--help" || a == "-h") {
            return usage();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            return usage();
        }
    }

    std::vector<std::uint64_t> caps = parseCaps(capsArg);
    if (caps.empty())
        return usage();
    std::vector<std::string> schemes =
        scheme == "all" ? check::allSchemes()
                        : std::vector<std::string>{scheme};

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<CellResult> cells;
    bool anyViolation = false;
    std::uint64_t totalPowerCycles = 0;
    double worstEwMaxUs = 0;

    for (const std::string &sc : schemes) {
        for (std::uint64_t cap : caps) {
            energy::HarvestOptions opt;
            opt.scheme = sc;
            opt.workload = workload;
            opt.seed = seed;
            opt.powerCycles = cycles;
            opt.ewTarget = usToCycles(ewUs);
            opt.cap.capacityUnits = cap;
            opt.auditEvery = audit;
            CellResult cell;
            cell.scheme = sc;
            cell.capUnits = cap;
            try {
                cell.res = energy::runHarvest(opt);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "terp-harvest: %s %llu: %s\n",
                             sc.c_str(), (unsigned long long)cap,
                             e.what());
                return 2;
            }
            totalPowerCycles += cell.res.powerCycles;
            if (cell.res.exposure.ewMaxUs > worstEwMaxUs)
                worstEwMaxUs = cell.res.exposure.ewMaxUs;
            if (!cell.res.ok()) {
                anyViolation = true;
                for (const std::string &v : cell.res.violations)
                    std::fprintf(stderr,
                                 "terp-harvest: %s cap=%llu: %s\n",
                                 sc.c_str(), (unsigned long long)cap,
                                 v.c_str());
            }
            cells.push_back(std::move(cell));
        }
    }
    const double wallS = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    if (json) {
        for (const CellResult &c : cells)
            std::printf("%s\n", cellJson(workload, c).c_str());
    } else {
        std::printf("terp-harvest: %s workload, %u power cycles per "
                    "cell, EW target %.1fus\n",
                    workload.c_str(), cycles, ewUs);
        std::printf("%-6s %8s %9s %9s %6s %6s %8s %8s %9s %8s\n",
                    "scheme", "cap", "commit", "interrupt", "ckpt",
                    "swskip", "ew_avg", "ew_ovh", "tew_avg",
                    "ew_max");
        for (const std::string &sc : schemes) {
            // Baseline: the largest capacitor of this scheme's rows
            // (closest to steady power).
            double baseEw = 0;
            std::uint64_t baseCap = 0;
            for (const CellResult &c : cells) {
                if (c.scheme == sc && c.capUnits > baseCap) {
                    baseCap = c.capUnits;
                    baseEw = c.res.exposure.ewAvgUs;
                }
            }
            for (const CellResult &c : cells) {
                if (c.scheme != sc)
                    continue;
                double ovh =
                    baseEw > 0 ? (c.res.exposure.ewAvgUs / baseEw -
                                  1.0) * 100.0
                               : 0.0;
                std::printf("%-6s %8llu %9llu %9llu %6llu %6llu "
                            "%7.2fu %+7.1f%% %8.2fu %7.2fu\n",
                            c.scheme.c_str(),
                            (unsigned long long)c.capUnits,
                            (unsigned long long)c.res.committed,
                            (unsigned long long)c.res.interrupted,
                            (unsigned long long)c.res.checkpoints,
                            (unsigned long long)c.res.sweepsSkipped,
                            c.res.exposure.ewAvgUs, ovh,
                            c.res.exposure.tewAvgUs,
                            c.res.exposure.ewMaxUs);
            }
        }
        std::printf("terp-harvest: %llu power cycles total, %.2fs "
                    "wall (%.0f cycles/s)\n",
                    (unsigned long long)totalPowerCycles, wallS,
                    wallS > 0 ? totalPowerCycles / wallS : 0.0);
    }

    if (!historyPath.empty()) {
        bench::HistoryRecord rec;
        rec.tool = "terp-harvest";
        rec.metric = "cycles_per_s";
        rec.simsPerS =
            wallS > 0 ? totalPowerCycles / wallS : 0.0;
        rec.p99EwCycles =
            static_cast<std::uint64_t>(usToCycles(worstEwMaxUs));
        if (!bench::appendHistory(historyPath, rec)) {
            std::fprintf(stderr, "terp-harvest: cannot append %s\n",
                         historyPath.c_str());
            return 2;
        }
        std::fprintf(stderr, "terp-harvest: appended history %s\n",
                     historyPath.c_str());
    }

    // ---- golden summary (simulated work only; no wall clock) ------
    if (!writeGoldenPath.empty()) {
        FILE *f = std::fopen(writeGoldenPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "terp-harvest: cannot write %s\n",
                         writeGoldenPath.c_str());
            return 2;
        }
        std::fprintf(f,
                     "# terp-harvest golden summary: <scheme> "
                     "<workload> <cap> <power_cycles> <committed> "
                     "<interrupted> <sim_cycles>\n");
        for (const CellResult &c : cells)
            std::fprintf(f, "%s %s %llu %u %llu %llu %llu\n",
                         c.scheme.c_str(), workload.c_str(),
                         (unsigned long long)c.capUnits,
                         c.res.powerCycles,
                         (unsigned long long)c.res.committed,
                         (unsigned long long)c.res.interrupted,
                         (unsigned long long)c.res.simCycles);
        std::fclose(f);
        std::fprintf(stderr, "terp-harvest: wrote golden %s\n",
                     writeGoldenPath.c_str());
    }

    if (!goldenPath.empty()) {
        FILE *f = std::fopen(goldenPath.c_str(), "r");
        if (!f) {
            std::fprintf(stderr,
                         "terp-harvest: cannot read golden %s\n",
                         goldenPath.c_str());
            return 2;
        }
        bool drift = false;
        std::size_t seen = 0;
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            if (line[0] == '#' || line[0] == '\n')
                continue;
            char sc[64], wl[64];
            unsigned long long cap = 0, pc = 0, com = 0, intr = 0,
                               sim = 0;
            if (std::sscanf(line, "%63s %63s %llu %llu %llu %llu %llu",
                            sc, wl, &cap, &pc, &com, &intr,
                            &sim) != 7)
                continue;
            ++seen;
            const CellResult *match = nullptr;
            for (const CellResult &c : cells)
                if (c.scheme == sc && workload == wl &&
                    c.capUnits == cap)
                    match = &c;
            if (!match) {
                std::fprintf(stderr,
                             "terp-harvest: golden names unknown "
                             "cell '%s %s %llu'\n",
                             sc, wl, cap);
                drift = true;
            } else if (match->res.powerCycles != pc ||
                       match->res.committed != com ||
                       match->res.interrupted != intr ||
                       match->res.simCycles != sim) {
                std::fprintf(
                    stderr,
                    "terp-harvest: DRIFT in %s %llu: cycles "
                    "%llu -> %u, committed %llu -> %llu, "
                    "interrupted %llu -> %llu, sim_cycles "
                    "%llu -> %llu\n",
                    sc, cap, pc, match->res.powerCycles, com,
                    (unsigned long long)match->res.committed, intr,
                    (unsigned long long)match->res.interrupted, sim,
                    (unsigned long long)match->res.simCycles);
                drift = true;
            }
        }
        std::fclose(f);
        if (seen != cells.size()) {
            std::fprintf(stderr,
                         "terp-harvest: golden covers %zu of %zu "
                         "cells\n",
                         seen, cells.size());
            drift = true;
        }
        if (drift)
            return 1;
        std::fprintf(stderr,
                     "terp-harvest: simulated cycles match golden\n");
    }
    return anyViolation ? 1 : 0;
}
