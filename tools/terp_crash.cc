/**
 * @file
 * terp-crash — crash-point fault injection and recovery validation.
 *
 * For each selected workload x scheme cell the driver runs an
 * uninterrupted baseline to count persist-boundary events, then
 * crashes before every boundary without re-running the workload per
 * boundary: one driver world per CPU runs it once, and at each
 * boundary a copy of a driver crashes there, recovers, and asserts
 * the atomicity / liveness / exposure-hygiene oracle (see
 * src/check/crash.hh).
 *
 * Usage:
 *   terp-crash [options]
 *
 * Options:
 *   --scheme S      all (default) or one of: mm tm tt ttnc basic
 *   --workload W    all (default) or one of: bank hashmap txnest
 *                   txpair schedule
 *   --seed N        first seed (default 0)
 *   --seeds N       seeds per cell, >= 1 (default 1; schedule
 *                   workloads generate a fresh schedule per seed)
 *   --txns N        bank transfers / hashmap inserts (default 12;
 *                   at most 4294967168, hashmap's largest PMO)
 *   --events N      schedule length in ops, >= 1 (default 40)
 *   --ew US         EW target in microseconds (default 5)
 *   --json          one JSON summary object per cell on stdout
 *
 * A flag's value may follow '=' or come as the next argument
 * (`--seed=7` or `--seed 7`); tools/cli.hh holds the value, usage
 * and golden rules all seven tools share.
 *
 * Exit status: 0 when every crash point recovered cleanly, 1 on any
 * violation, 2 on usage errors (counts must be plain decimal
 * digits).
 */

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "check/crash.hh"
#include "cli.hh"

using namespace terp;

namespace {

const char kUsage[] =
    "usage: terp-crash [--scheme all|mm|tm|tt|ttnc|basic]\n"
    "                  [--workload all|bank|hashmap|txnest|\n"
    "                   txpair|schedule]\n"
    "                  [--seed N] [--seeds N] [--txns N]\n"
    "                  [--events N] [--ew US] [--json]\n";

} // namespace

int
main(int argc, char **argv)
{
    check::CrashOptions opt;
    std::vector<std::string> schemes = core::checkedSchemeTags();
    std::string workload = "all";
    unsigned seeds = 1;
    double ewUs = 5.0;
    bool json = false;

    cli::Args args("terp-crash", argc, argv, kUsage);
    while (args.next()) {
        if (args.is("--scheme"))
            schemes = args.checkedSchemes();
        else if (args.is("--workload"))
            workload = args.str();
        else if (args.is("--seed"))
            opt.seed = args.seed();
        else if (args.is("--seeds"))
            seeds = static_cast<unsigned>(args.count(1, UINT_MAX));
        else if (args.is("--txns"))
            opt.txns =
                static_cast<unsigned>(args.count(0, check::maxCrashTxns));
        else if (args.is("--events"))
            opt.events = static_cast<unsigned>(args.count(1, UINT_MAX));
        else if (args.is("--ew"))
            ewUs = args.usTime();
        else if (args.is("--json"))
            json = true;
        else
            args.unknown();
    }

    opt.ewTarget = usToCycles(ewUs);
    std::vector<std::string> workloads =
        workload == "all" ? check::crashWorkloads()
                          : std::vector<std::string>{workload};

    std::uint64_t firstSeed = opt.seed;
    bool anyViolation = false;
    for (const std::string &wl : workloads) {
        for (const std::string &sc : schemes) {
            for (unsigned s = 0; s < seeds; ++s) {
                check::CrashOptions cell = opt;
                cell.scheme = sc;
                cell.workload = wl;
                cell.seed = firstSeed + s;
                check::CrashResult res;
                try {
                    res = check::enumerateCrashPoints(cell);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "terp-crash: %s\n",
                                 e.what());
                    return 2;
                }
                if (json) {
                    std::printf(
                        "%s\n",
                        check::crashResultJson(cell, res).c_str());
                } else {
                    std::printf(
                        "terp-crash: %-8s %-8s seed=%llu  "
                        "%llu crash points, %zu violation(s)\n",
                        wl.c_str(), sc.c_str(),
                        static_cast<unsigned long long>(cell.seed),
                        static_cast<unsigned long long>(
                            res.pointsRun),
                        res.violations.size());
                }
                if (!res.ok()) {
                    anyViolation = true;
                    std::size_t cap = 8;
                    for (const check::CrashViolation &cv :
                         res.violations) {
                        if (cap-- == 0) {
                            std::fprintf(stderr, "  ...\n");
                            break;
                        }
                        std::fprintf(
                            stderr,
                            "  point %llu (before %s): %s\n",
                            static_cast<unsigned long long>(
                                cv.point),
                            pm::persistBoundaryName(cv.kind),
                            cv.detail.c_str());
                    }
                }
            }
        }
    }
    return anyViolation ? 1 : 0;
}
