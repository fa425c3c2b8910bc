/**
 * @file
 * terp-trace — dump an event trace for any workload/scheme
 * combination, audit it, and export it for Perfetto.
 *
 * Usage:
 *   terp-trace <workload> <scheme> [options]
 *   terp-trace list
 *
 * Workloads: the six WHISPER surrogates (echo ycsb tpcc ctree
 * hashmap redis) and the five SPEC surrogates (mcf lbm imagick nab
 * xz). Schemes: unprotected mm tm tt ttnc basic.
 *
 * Options:
 *   --out FILE      Chrome-trace JSON output (default terp-trace.json)
 *   --jsonl FILE    also write JSONL (one event per line)
 *   --threads N     SPEC thread count, 1..1024 (default 1)
 *   --sections N    WHISPER transactions (default 200)
 *   --scale F       SPEC iteration scale, > 0 (default 1.0)
 *   --ew US         EW target in microseconds (default 40)
 *   --tew US        TEW target in microseconds (default 2)
 *   --capacity N    per-thread ring capacity in events, >= 1
 *                   (default 64Ki; the ring grows to it on demand)
 *
 * Exit status is 1 if the timeline auditor finds any divergence
 * between the trace replay and the runtime's EwTracker, 2 on usage
 * errors (counts must be plain decimal digits).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "cli.hh"
#include "trace/export.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

using namespace terp;

namespace {

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    return std::find(v.begin(), v.end(), s) != v.end();
}

core::RuntimeConfig
schemeConfig(const std::string &scheme, Cycles ew, Cycles tew)
{
    if (scheme == "unprotected")
        return core::RuntimeConfig::unprotected();
    if (scheme == "mm")
        return core::RuntimeConfig::mm(ew);
    if (scheme == "tm")
        return core::RuntimeConfig::tm(ew, tew);
    if (scheme == "tt")
        return core::RuntimeConfig::tt(ew, tew);
    if (scheme == "ttnc")
        return core::RuntimeConfig::ttNoCombining(ew, tew);
    if (scheme == "basic")
        return core::RuntimeConfig::basicSemantics(ew);
    std::fprintf(stderr, "unknown scheme '%s' (try: unprotected mm "
                         "tm tt ttnc basic)\n",
                 scheme.c_str());
    std::exit(2);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: terp-trace <workload> <scheme> [--out FILE] "
                 "[--jsonl FILE]\n"
                 "                  [--threads N] [--sections N] "
                 "[--scale F]\n"
                 "                  [--ew US] [--tew US] "
                 "[--capacity N]\n"
                 "       terp-trace list\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    if (std::string(argv[1]) == "list") {
        std::printf("WHISPER workloads:");
        for (const std::string &n : workloads::whisperNames())
            std::printf(" %s", n.c_str());
        std::printf("\nSPEC surrogates:  ");
        for (const std::string &n : workloads::specNames())
            std::printf(" %s", n.c_str());
        std::printf("\nschemes:           unprotected mm tm tt ttnc "
                    "basic\n");
        return 0;
    }
    if (argc < 3)
        return usage();

    std::string workload = argv[1];
    std::string scheme = argv[2];
    std::string out = "terp-trace.json";
    std::string jsonl;
    unsigned threads = 1;
    std::uint64_t sections = 200;
    double scale = 1.0;
    double ewUs = 40.0, tewUs = 2.0;
    std::size_t capacity = trace::TraceSink::defaultCapacity;

    for (int i = 3; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--out")
            out = val();
        else if (a == "--jsonl")
            jsonl = val();
        else if (a == "--threads")
            threads = static_cast<unsigned>(
                cli::count("terp-trace", a, val(), 1, 1024));
        else if (a == "--sections")
            sections = cli::count("terp-trace", a, val(), 0, UINT64_MAX);
        else if (a == "--scale")
            scale = cli::positive("terp-trace", a, val());
        else if (a == "--ew")
            ewUs = std::atof(val());
        else if (a == "--tew")
            tewUs = std::atof(val());
        else if (a == "--capacity")
            capacity = static_cast<std::size_t>(
                cli::count("terp-trace", a, val(), 1, SIZE_MAX));
        else
            return usage();
    }

    core::RuntimeConfig cfg =
        schemeConfig(scheme, usToCycles(ewUs), usToCycles(tewUs));
    cfg.traceEnabled = true;
    cfg.traceCapacity = capacity;

    workloads::RunResult r;
    if (contains(workloads::whisperNames(), workload)) {
        workloads::WhisperParams p;
        p.sections = sections;
        r = workloads::runWhisper(workload, cfg, p);
    } else if (contains(workloads::specNames(), workload)) {
        workloads::SpecParams p;
        p.threads = threads;
        p.scale = scale;
        r = workloads::runSpec(workload, cfg, p);
    } else {
        std::fprintf(stderr, "unknown workload '%s' (terp-trace list "
                             "shows the options)\n",
                     workload.c_str());
        return 2;
    }

    std::printf("%s under %s: %llu cycles (%.1f us)\n",
                workload.c_str(), cfg.describe().c_str(),
                static_cast<unsigned long long>(r.totalCycles),
                cyclesToUs(r.totalCycles));
    std::printf("events: %llu emitted, %llu dropped (ring capacity "
                "%zu/thread)\n",
                static_cast<unsigned long long>(
                    r.trace->totalEmitted()),
                static_cast<unsigned long long>(
                    r.trace->totalDropped()),
                r.trace->perThreadCapacity());

    std::map<std::string, std::uint64_t> byKind;
    for (const trace::Event &e : r.trace->merged())
        ++byKind[trace::eventKindName(e.kind)];
    for (const auto &[kind, n] : byKind) {
        std::printf("  %-16s %llu\n", kind.c_str(),
                    static_cast<unsigned long long>(n));
    }

    if (!trace::writeChromeTraceFile(*r.trace, out,
                                     workload + " " + scheme)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s (open with https://ui.perfetto.dev)\n",
                out.c_str());
    if (!jsonl.empty()) {
        if (!trace::writeJsonlFile(*r.trace, jsonl)) {
            std::fprintf(stderr, "cannot write %s\n", jsonl.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonl.c_str());
    }

    std::printf("%s\n", r.traceAudit->summary().c_str());
    for (const std::string &m : r.traceAudit->mismatches)
        std::printf("  mismatch: %s\n", m.c_str());
    return r.traceAudit->ok ? 0 : 1;
}
