/**
 * @file
 * hostbench: host-time benchmark program of the TERP simulator.
 *
 *   hostbench run --workload W --seed N --passes P --expected DIR
 *       One cold pass of W's op list, then P timed passes; prints one
 *       JSON line with the pass times and the failed/attempted tally.
 *   hostbench trace --seed N --expected DIR [--spans FILE]
 *       One traced pass of every workload; prints the per-layer
 *       metrics and writes the spans as a Chrome trace.
 *   hostbench record --out DIR
 *       Writes the expected output of every (cell, pool seed) pair.
 *   hostbench selftest --expected DIR
 *       Checks the benchmark's own failure accounting and re-drive.
 *
 * run.py builds this program and turns its output into the
 * benchmark's metrics; see README.md.
 */

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "ops.hh"
#include "tracer.hh"

using namespace hostbench;

namespace {

using Args = std::map<std::string, std::string>;

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("bad argument " + k);
        a[k.substr(2)] = argv[++i];
    }
    return a;
}

const std::string &
need(const Args &a, const char *key)
{
    auto it = a.find(key);
    if (it == a.end())
        throw std::invalid_argument(std::string("missing --") + key);
    return it->second;
}

std::uint64_t
number(const Args &a, const char *key)
{
    const std::string &s = need(a, key);
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0')
        throw std::invalid_argument(std::string("--") + key +
                                    " wants a number, got " + s);
    return v;
}

/** The probe's time on the reference host, defining its speed. */
constexpr double kProbeReferenceSeconds = 0.040;

volatile std::uint64_t probeSink;

/**
 * Host-speed probe: a fixed integer loop of four interleaved
 * dependency chains, about 40 ms on the reference host. Its time moves
 * with the core's clock and with whatever shares the core, never with
 * the simulator, so pass times are scaled by it into reference-host
 * seconds.
 */
double
probeSeconds()
{
    const Clock::time_point t0 = Clock::now();
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    for (std::uint64_t k = 0; k < 40'000'000; ++k) {
        a += k ^ b;
        b = (b << 1) ^ c;
        c += d >> 3;
        d ^= a + k;
    }
    probeSink = a + b + c + d;
    return secondsBetween(t0, Clock::now());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printFailures(const Tally &t)
{
    for (const std::string &d : t.details)
        std::fprintf(stderr, "hostbench: failed op: %s\n", d.c_str());
}

int
cmdRun(const Args &a)
{
    const Workload *w = findWorkload(need(a, "workload"));
    if (!w)
        throw std::invalid_argument("unknown workload " +
                                    need(a, "workload"));
    const std::uint64_t passes = number(a, "passes");
    const Expected exp = loadExpectedDir(need(a, "expected"));
    const std::vector<Op> ops = plan(*w, number(a, "seed"));

    Tally tally;
    auto pass = [&] {
        for (const Op &op : ops)
            runChecked(*w, op, exp, tally);
    };
    // The cold pass includes lazy set-up and first touch; run.py
    // times it from process start as setup_s. steady_clock and
    // Python's time.monotonic() both read CLOCK_MONOTONIC on Linux.
    pass();
    const double coldEnd =
        std::chrono::duration<double>(Clock::now().time_since_epoch())
            .count();
    // Each timed pass is bracketed by probes; the cold pass is
    // followed by one.
    std::vector<double> probes{probeSeconds()};
    std::vector<double> times;
    for (std::uint64_t i = 0; i < passes; ++i) {
        const Clock::time_point t0 = Clock::now();
        pass();
        times.push_back(secondsBetween(t0, Clock::now()));
        probes.push_back(probeSeconds());
    }
    printFailures(tally);

    auto list = [](const char *key, const std::vector<double> &v) {
        std::printf(",\"%s\":[", key);
        for (std::size_t i = 0; i < v.size(); ++i)
            std::printf("%s%.9f", i ? "," : "", v[i]);
        std::printf("]");
    };
    std::printf("{\"workload\":\"%s\",\"ops_per_pass\":%zu,"
                "\"cold_end_s\":%.9f,\"probe_reference_s\":%.9f",
                w->name.c_str(), ops.size(), coldEnd,
                kProbeReferenceSeconds);
    list("pass_s", times);
    list("probe_s", probes);
    std::printf(",\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
                ",\"peak_rss_mb\":%.3f}\n",
                tally.attempted, tally.failed, peakRssMb());
    return 0;
}

int
cmdRecord(const Args &a)
{
    const std::string dir = need(a, "out");
    for (const Workload &w : allWorkloads()) {
        std::map<std::string, std::string> lines;
        for (std::size_t cell = 0; cell < w.cells.size(); ++cell)
            for (std::uint64_t seed = 1; seed <= kSeedPool; ++seed)
                lines[opKey(w, {cell, seed})] = w.run(cell, seed);
        const std::string path = dir + "/" + w.name + ".txt";
        std::ofstream out(path);
        for (const auto &[key, sig] : lines)
            out << key << ' ' << sig << '\n';
        if (!out)
            throw std::runtime_error("cannot write " + path);
        std::fprintf(stderr, "hostbench: wrote %zu values to %s\n",
                     lines.size(), path.c_str());
    }
    return 0;
}

/** Prints and counts one self-test expectation. */
struct Checks
{
    int failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        if (!ok)
            ++failed;
    }
};

int
cmdSelftest(const Args &a)
{
    const Expected exp = loadExpectedDir(need(a, "expected"));
    Checks c;

    // Failed/attempted accounting on a cheap whisper op.
    const Workload &w = *findWorkload("whisper");
    std::size_t cell = 0;
    while (w.cells.at(cell) != "tpcc/unprotected")
        ++cell;
    const Op op{cell, 1};
    const std::string key = opKey(w, op);

    Tally good;
    runChecked(w, op, exp, good);
    c.expect(good.attempted == 1 && good.failed == 0,
             "recorded expected value passes");

    Expected corrupt = exp;
    std::string &sig = corrupt.at(key);
    sig[sig.find('=') + 1] ^= 1; // flip a bit of the cycle count
    Tally bad;
    runChecked(w, op, corrupt, bad);
    runChecked(w, op, exp, bad);
    c.expect(bad.attempted == 2 && bad.failed == 1,
             "a corrupted expected value counts one failed of two");

    Expected missing = exp;
    missing.erase(key);
    Tally gone;
    runChecked(w, op, missing, gone);
    c.expect(gone.attempted == 1 && gone.failed == 1,
             "a missing expected value counts as failed");

    Workload throwing = w;
    throwing.run = [](std::size_t, std::uint64_t) -> std::string {
        throw std::runtime_error("injected");
    };
    Tally thrown;
    runChecked(throwing, op, exp, thrown);
    c.expect(thrown.attempted == 1 && thrown.failed == 1,
             "an exception counts as failed, not a crash");

    // The traced re-drive reproduces runSpec exactly, and the
    // comparison does see a different run.
    const SpecCell &sc = specCells().at(0);
    Tracer tr;
    std::uint64_t instructions = 0;
    const terp::workloads::RunResult redriven =
        redriveSpec(sc, 1, tr, instructions);
    const terp::workloads::RunResult ref = terp::workloads::runSpec(
        sc.prog, sc.scheme.cfg, specParams(sc, 1));
    c.expect(sameRun(ref, redriven).empty() && instructions > 0,
             "re-drive of " + sc.prog + "/" + sc.scheme.tag +
                 " is cycle-identical to runSpec");
    const SpecCell &next = specCells().at(1);
    const terp::workloads::RunResult other = terp::workloads::runSpec(
        next.prog, next.scheme.cfg, specParams(next, 1));
    c.expect(!sameRun(other, redriven).empty(),
             "re-drive comparison detects a different scheme");

    std::printf("%s: %d failed\n", c.failed ? "FAIL" : "PASS", c.failed);
    return c.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: hostbench run|trace|record|selftest "
                     "[--key value ...]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args a = parseArgs(argc, argv);
        if (cmd == "run")
            return cmdRun(a);
        if (cmd == "trace") {
            auto it = a.find("spans");
            return runTraced(number(a, "seed"),
                             loadExpectedDir(need(a, "expected")),
                             it == a.end() ? "" : it->second);
        }
        if (cmd == "record")
            return cmdRecord(a);
        if (cmd == "selftest")
            return cmdSelftest(a);
        std::fprintf(stderr, "hostbench: unknown command %s\n",
                     cmd.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
    }
    return 2;
}
