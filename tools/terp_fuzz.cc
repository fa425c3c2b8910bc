/**
 * @file
 * terp-fuzz — differential fuzzing of the protection runtime
 * against the Section-IV specification semantics.
 *
 * Generates seed-deterministic multi-threaded schedules of
 * region/manual begin-end pairs, accesses and sweeper ticks, replays
 * each against core::Runtime and the spec oracle in lockstep, and
 * reports any divergence with a shrunken schedule plus a paste-ready
 * C++ reproducer.
 *
 * Usage:
 *   terp-fuzz [options]
 *
 * Options:
 *   --scheme S      all (default) or one of: mm tm tt ttnc basic
 *   --seeds N       seeds per scheme (default 64)
 *   --first-seed N  first seed (default 0; replay a report with
 *                   --first-seed <seed> --seeds 1)
 *   --events N      events per schedule (default 40)
 *   --threads N     threads per schedule (default 3, at most 64)
 *   --pmos N        PMOs per schedule (default 2, at most 32)
 *   --ew US         EW target in microseconds (default 5; floor 5)
 *   --crash         mix undo-log transactions and crash/recover
 *                   steps into the schedules
 *   --txn           mix TxManager transactions into the schedules:
 *                   nested begin/commit, aborts, cross-thread lock
 *                   conflicts, undo and redo variants, checked in
 *                   lockstep against the transaction spec oracle
 *   --shrink        minimize divergent schedules (greedy deletion)
 *   --no-shrink     report the raw divergent schedule
 *
 * Exit status: 0 when every schedule is divergence-free, 1 on any
 * divergence, 2 on usage errors.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "arch/circular_buffer.hh"
#include "check/fuzzer.hh"
#include "cli.hh"

using namespace terp;

namespace {

/**
 * Schedule shape caps. PMOs: TT keeps every live PMO in the 32-entry
 * circular buffer, so more would overflow it by construction.
 */
constexpr unsigned kMaxThreads = 64;
constexpr unsigned kMaxPmos = arch::CircularBuffer::capacity;

int
usage()
{
    std::fprintf(stderr,
                 "usage: terp-fuzz [--scheme all|mm|tm|tt|ttnc|basic]"
                 " [--seeds N]\n"
                 "                 [--first-seed N] [--events N] "
                 "[--threads N] [--pmos N]\n"
                 "                 [--ew US] [--crash] [--txn] "
                 "[--shrink|--no-shrink]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzOptions opt;
    opt.shrink = true;
    std::string scheme = "all";
    double ewUs = 5.0;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        // Accept both "--flag value" and "--flag=value".
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
        } else if (a == "--seeds") {
            opt.seeds = static_cast<unsigned>(
                cli::count("terp-fuzz", a, val(), 1, UINT_MAX));
        } else if (a == "--first-seed") {
            opt.firstSeed = std::strtoull(val().c_str(), nullptr, 0);
        } else if (a == "--events") {
            opt.gen.events = static_cast<unsigned>(
                cli::count("terp-fuzz", a, val(), 1, UINT_MAX));
        } else if (a == "--threads") {
            opt.gen.threads = static_cast<unsigned>(
                cli::count("terp-fuzz", a, val(), 1, kMaxThreads));
        } else if (a == "--pmos") {
            opt.gen.pmos = static_cast<unsigned>(
                cli::count("terp-fuzz", a, val(), 1, kMaxPmos));
        } else if (a == "--ew") {
            ewUs = cli::positive("terp-fuzz", a, val());
        } else if (a == "--crash") {
            opt.gen.persistOps = true;
        } else if (a == "--txn") {
            opt.gen.txnOps = true;
        } else if (a == "--shrink") {
            opt.shrink = true;
        } else if (a == "--no-shrink") {
            opt.shrink = false;
        } else if (a == "--help" || a == "-h") {
            return usage();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            return usage();
        }
    }

    opt.gen.ewTarget = usToCycles(ewUs);
    if (scheme != "all")
        opt.schemes.push_back(scheme);

    check::FuzzResult res;
    try {
        res = check::fuzz(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "terp-fuzz: %s\n", e.what());
        return 2;
    }

    if (res.ok()) {
        std::printf("terp-fuzz: %u schedules replayed, no "
                    "divergence\n",
                    res.executed);
        return 0;
    }

    std::printf("terp-fuzz: %zu divergence(s) in %u schedules\n\n",
                res.divergences.size(), res.executed);
    for (const check::Divergence &d : res.divergences) {
        std::printf("== scheme=%s seed=%llu (%zu events after "
                    "shrinking) ==\n",
                    d.scheme.c_str(),
                    static_cast<unsigned long long>(d.seed),
                    d.shrunk.ops.size());
        for (const std::string &c : d.complaints)
            std::printf("  %s\n", c.c_str());
        std::printf("--- schedule ---\n");
        for (std::size_t i = 0; i < d.shrunk.ops.size(); ++i)
            std::printf("  %2zu: %s\n", i,
                        check::describeOp(d.shrunk.ops[i]).c_str());
        std::printf("--- reproducer ---\n%s\n",
                    d.reproducer.c_str());
    }
    return 1;
}
