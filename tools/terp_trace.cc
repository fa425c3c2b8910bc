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
 *   --capacity N    trace capacity in events per emitting thread,
 *                   >= 1 (default 256Ki): the one ring holds N for
 *                   each thread that emitted, growing on demand
 *
 * A flag's value may follow '=' or come as the next argument
 * (`--sections=4` or `--sections 4`); tools/cli.hh holds the value
 * and usage rules all seven tools share.
 *
 * Exit status is 1 if the timeline auditor finds any divergence
 * between the trace replay and the runtime's EwTracker, 2 on usage
 * errors (counts must be plain decimal digits).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

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

const char kUsage[] =
    "usage: terp-trace <workload> <scheme> [--out FILE] [--jsonl FILE]\n"
    "                  [--threads N] [--sections N] [--scale F]\n"
    "                  [--ew US] [--tew US] [--capacity N]\n"
    "       terp-trace list\n";

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    std::string out = "terp-trace.json";
    std::string jsonl;
    unsigned threads = 1;
    std::uint64_t sections = 200;
    double scale = 1.0;
    double ewUs = 40.0, tewUs = 2.0;
    // Four times RuntimeConfig's default: a four-thread SPEC run
    // (mcf's 402,450 events) fits whole. The ring grows with the
    // events written, so a smaller run costs no more.
    std::size_t capacity = trace::TraceSink::defaultCapacity * 4;

    cli::Args args("terp-trace", argc, argv, kUsage);
    while (args.next()) {
        if (args.positional())
            positional.push_back(args.arg());
        else if (args.is("--out"))
            out = args.str();
        else if (args.is("--jsonl"))
            jsonl = args.str();
        else if (args.is("--threads"))
            threads = static_cast<unsigned>(args.count(1, 1024));
        else if (args.is("--sections"))
            sections = args.count(0, UINT64_MAX);
        else if (args.is("--scale"))
            scale = args.positive();
        else if (args.is("--ew"))
            ewUs = args.usTime();
        else if (args.is("--tew"))
            tewUs = args.usTime();
        else if (args.is("--capacity"))
            capacity = static_cast<std::size_t>(args.count(1, SIZE_MAX));
        else
            args.unknown();
    }

    if (positional.size() == 1 && positional[0] == "list") {
        std::printf("WHISPER workloads:");
        for (const std::string &n : workloads::whisperNames())
            std::printf(" %s", n.c_str());
        std::printf("\nSPEC surrogates:  ");
        for (const std::string &n : workloads::specNames())
            std::printf(" %s", n.c_str());
        std::printf("\nschemes:           %s\n",
                    cli::joined(core::schemeTags()).c_str());
        return 0;
    }
    if (positional.size() != 2)
        args.usage();
    const std::string &workload = positional[0];
    const std::string &scheme = positional[1];

    core::RuntimeConfig cfg = cli::scheme(
        "terp-trace", scheme, usToCycles(ewUs), usToCycles(tewUs));
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
                "%zu events x %zu emitting threads)\n",
                static_cast<unsigned long long>(
                    r.trace->totalEmitted()),
                static_cast<unsigned long long>(
                    r.trace->totalDropped()),
                r.trace->perThreadCapacity(), r.trace->tids().size());

    std::map<std::string, std::uint64_t> byKind;
    for (const trace::Event &e : r.trace->events())
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
