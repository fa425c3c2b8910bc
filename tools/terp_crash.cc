/**
 * @file
 * terp-crash — crash-point fault injection and recovery validation.
 *
 * For each selected workload x scheme cell the driver runs an
 * uninterrupted baseline to count persist-boundary events, then
 * re-runs the workload once per boundary with the controller's fault
 * plan armed to crash there, recovers, and asserts the atomicity /
 * liveness / exposure-hygiene oracle (see src/check/crash.hh).
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
 *   --txns N        bank transfers / hashmap inserts (default 12)
 *   --events N      schedule length in ops, >= 1 (default 40)
 *   --ew US         EW target in microseconds (default 5)
 *   --json          one JSON summary object per cell on stdout
 *
 * Exit status: 0 when every crash point recovered cleanly, 1 on any
 * violation, 2 on usage errors (counts must be plain decimal
 * digits).
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/crash.hh"
#include "check/fuzzer.hh"
#include "cli.hh"

using namespace terp;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: terp-crash [--scheme all|mm|tm|tt|ttnc|basic]\n"
        "                  [--workload all|bank|hashmap|txnest|\n"
        "                   txpair|schedule]\n"
        "                  [--seed N] [--seeds N] [--txns N]\n"
        "                  [--events N] [--ew US] [--json]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    check::CrashOptions opt;
    std::string scheme = "all";
    std::string workload = "all";
    unsigned seeds = 1;
    double ewUs = 5.0;
    bool json = false;

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
        } else if (a == "--seed") {
            opt.seed = std::strtoull(val().c_str(), nullptr, 0);
        } else if (a == "--seeds") {
            seeds = static_cast<unsigned>(
                cli::count("terp-crash", a, val(), 1, UINT_MAX));
        } else if (a == "--txns") {
            opt.txns = static_cast<unsigned>(
                cli::count("terp-crash", a, val(), 0, UINT_MAX));
        } else if (a == "--events") {
            opt.events = static_cast<unsigned>(
                cli::count("terp-crash", a, val(), 1, UINT_MAX));
        } else if (a == "--ew") {
            ewUs = cli::positive("terp-crash", a, val());
        } else if (a == "--json") {
            json = true;
        } else if (a == "--help" || a == "-h") {
            return usage();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            return usage();
        }
    }

    opt.ewTarget = usToCycles(ewUs);
    std::vector<std::string> schemes =
        scheme == "all" ? check::allSchemes()
                        : std::vector<std::string>{scheme};
    std::vector<std::string> workloads =
        workload == "all"
            ? std::vector<std::string>{"bank", "hashmap", "txnest",
                                     "txpair", "schedule"}
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
