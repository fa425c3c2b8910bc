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
 *   --workload W      bank (default) or txnest: terp-crash's
 *                     transactions of that name
 *   --caps LIST       comma-separated capacitor sizes in energy
 *                     units, each 101..1000000: above the
 *                     capacitor's fail threshold (100 units) and
 *                     small enough to finish (default
 *                     600,1000,2000,4000)
 *   --cycles N        power cycles per cell (default 200)
 *   --seed N          workload seed (default 0)
 *   --ew US           EW target in microseconds (default 5)
 *   --audit N         trace-audit stride in power cycles (default
 *                     25; 0 disables)
 *   --json            one JSON object per cell on stdout
 *   --golden=FILE     fail (exit 1) unless the deterministic per-cell
 *                     summary equals FILE byte for byte
 *   --write-golden=FILE  write the per-cell summary to FILE
 *   --history=PATH    append one throughput record (metric label
 *                     cycles_per_s) to the benchmark history
 *
 * A flag's value may follow '=' or come as the next argument
 * (`--seed=7` or `--seed 7`); tools/cli.hh holds the value, usage
 * and golden rules all seven tools share.
 *
 * Exit status: 0 when every cell passed its oracle, 1 on any
 * violation or golden drift, 2 on usage errors.
 */

#include <chrono>
#include <climits>
#include <cstdio>
#include <string>
#include <vector>

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

const char kUsage[] =
    "usage: terp-harvest [--scheme all|mm|tm|tt|ttnc|basic]\n"
    "                    [--workload bank|txnest] [--caps LIST]\n"
    "                    [--cycles N] [--seed N] [--ew US]\n"
    "                    [--audit N] [--json] [--golden=FILE]\n"
    "                    [--write-golden=FILE] [--history=PATH]\n";

/**
 * Smallest accepted capacitor: one that holds more than the backup
 * reserve the device power-fails at.
 */
constexpr std::uint64_t kMinCapUnits =
    energy::CapacitorConfig{}.failThresholdUnits + 1;
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
                                  list.substr(pos, comma - pos),
                                  kMinCapUnits, kMaxCapUnits));
        pos = comma + 1;
    }
    return caps;
}

std::string
cellJson(const std::string &workload, const CellResult &c)
{
    const energy::HarvestResult &r = c.res;
    return cli::format(
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
        r.exposure.ewMaxUs, r.exposure.tewAvgUs, r.violations.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> schemes = core::checkedSchemeTags();
    std::string workload = "bank";
    std::string capsArg = "600,1000,2000,4000";
    unsigned cycles = 200;
    std::uint64_t seed = 0;
    double ewUs = 5.0;
    unsigned audit = 25;
    bool json = false;
    std::string goldenPath, writeGoldenPath, historyPath;

    cli::Args args("terp-harvest", argc, argv, kUsage);
    while (args.next()) {
        if (args.is("--scheme"))
            schemes = args.checkedSchemes();
        else if (args.is("--workload")) {
            workload = args.str();
            if (workload != "bank" && workload != "txnest")
                args.fail("unknown workload '" + workload +
                          "' (try: bank txnest)");
        }
        else if (args.is("--caps"))
            capsArg = args.str();
        else if (args.is("--cycles"))
            cycles = static_cast<unsigned>(args.count(1, UINT_MAX));
        else if (args.is("--seed"))
            seed = args.seed();
        else if (args.is("--ew"))
            ewUs = args.usTime();
        else if (args.is("--audit"))
            audit = static_cast<unsigned>(args.count(0, UINT_MAX));
        else if (args.is("--json"))
            json = true;
        else if (args.is("--golden"))
            goldenPath = args.str();
        else if (args.is("--write-golden"))
            writeGoldenPath = args.str();
        else if (args.is("--history"))
            historyPath = args.str();
        else
            args.unknown();
    }

    std::vector<std::uint64_t> caps = parseCaps(capsArg);
    if (caps.empty())
        args.usage();

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
            cell.res = energy::runHarvest(opt);
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
    std::string golden = "# terp-harvest golden summary: <scheme> "
                         "<workload> <cap> <power_cycles> <committed> "
                         "<interrupted> <sim_cycles>\n";
    for (const CellResult &c : cells)
        golden += cli::format("%s %s %llu %u %llu %llu %llu\n",
                              c.scheme.c_str(), workload.c_str(),
                              (unsigned long long)c.capUnits,
                              c.res.powerCycles,
                              (unsigned long long)c.res.committed,
                              (unsigned long long)c.res.interrupted,
                              (unsigned long long)c.res.simCycles);
    if (!writeGoldenPath.empty())
        cli::writeText("terp-harvest", writeGoldenPath, golden);
    if (!goldenPath.empty()) {
        if (int rc = cli::checkGolden("terp-harvest", goldenPath, golden))
            return rc;
    }
    return anyViolation ? 1 : 0;
}
