/**
 * @file
 * terp-fuzz — differential fuzzing of the protection runtime
 * against the Section-IV specification semantics.
 *
 * Generates seed-deterministic multi-threaded schedules of
 * region/manual begin-end pairs, accesses and sweeper ticks, replays
 * each against core::Runtime and the spec oracle in lockstep, and
 * reports any divergence with a shrunken schedule plus the exact
 * terp-fuzz command that regenerates it.
 *
 * Usage:
 *   terp-fuzz [options]
 *
 * Options:
 *   --scheme S      all (default) or one of: mm tm tt ttnc basic
 *   --seeds N       seeds per scheme (default 64)
 *   --first-seed N  first seed (default 0)
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
 * A flag's value may follow '=' or come as the next argument
 * (`--seed=7` or `--seed 7`); tools/cli.hh holds the value, usage
 * and golden rules all seven tools share.
 *
 * Exit status: 0 when every schedule is divergence-free, 1 on any
 * divergence, 2 on usage errors.
 */

#include <climits>
#include <cstdio>
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

const char kUsage[] =
    "usage: terp-fuzz [--scheme all|mm|tm|tt|ttnc|basic] [--seeds N]\n"
    "                 [--first-seed N] [--events N] [--threads N] "
    "[--pmos N]\n"
    "                 [--ew US] [--crash] [--txn] [--shrink|--no-shrink]\n";

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzOptions opt;
    opt.shrink = true;
    double ewUs = 5.0;

    cli::Args args("terp-fuzz", argc, argv, kUsage);
    while (args.next()) {
        if (args.is("--scheme"))
            opt.schemes = args.checkedSchemes();
        else if (args.is("--seeds"))
            opt.seeds = static_cast<unsigned>(args.count(1, UINT_MAX));
        else if (args.is("--first-seed"))
            opt.firstSeed = args.seed();
        else if (args.is("--events"))
            opt.gen.events = static_cast<unsigned>(args.count(1, UINT_MAX));
        else if (args.is("--threads"))
            opt.gen.threads =
                static_cast<unsigned>(args.count(1, kMaxThreads));
        else if (args.is("--pmos"))
            opt.gen.pmos = static_cast<unsigned>(args.count(1, kMaxPmos));
        else if (args.is("--ew"))
            ewUs = args.usTime();
        else if (args.is("--crash"))
            opt.gen.persistOps = true;
        else if (args.is("--txn"))
            opt.gen.txnOps = true;
        else if (args.is("--shrink"))
            opt.shrink = true;
        else if (args.is("--no-shrink"))
            opt.shrink = false;
        else
            args.unknown();
    }

    opt.gen.ewTarget = usToCycles(ewUs);

    // Every flag that shapes a schedule or its shrinking, so a
    // report's replay line regenerates exactly what it lists.
    const std::string replayFlags =
        cli::format(" --events %u --threads %u --pmos %u --ew %.17g",
                    opt.gen.events, opt.gen.threads, opt.gen.pmos,
                    ewUs) +
        (opt.gen.persistOps ? " --crash" : "") +
        (opt.gen.txnOps ? " --txn" : "") +
        (opt.shrink ? "" : " --no-shrink");

    check::FuzzResult res = check::fuzz(opt);

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
        std::printf("replay: terp-fuzz --scheme %s --first-seed %llu "
                    "--seeds 1%s\n\n",
                    d.scheme.c_str(),
                    static_cast<unsigned long long>(d.seed),
                    replayFlags.c_str());
    }
    return 1;
}
