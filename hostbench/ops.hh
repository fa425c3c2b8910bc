/**
 * @file
 * The benchmark's four workloads as fixed, seeded op lists.
 *
 * A workload is a table of cells (program x scheme, crash workload x
 * scheme, fleet variant). One pass runs every cell exactly once, in
 * an order shuffled by the workload seed, each with a per-op seed
 * drawn from a small pool. Expected simulated outputs are recorded
 * for every (cell, pool seed) pair, so any workload seed yields an op
 * list whose every result is checked exactly.
 */

#ifndef HOSTBENCH_OPS_HH
#define HOSTBENCH_OPS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/crash.hh"
#include "core/config.hh"
#include "serve/server.hh"
#include "workloads/spec.hh"
#include "workloads/whisper.hh"

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Per-op seeds are drawn from 1..kSeedPool. */
inline constexpr unsigned kSeedPool = 4;

/** One op: a cell of the workload's table run with one pool seed. */
struct Op
{
    std::size_t cell = 0;
    std::uint64_t seed = 1;
};

struct Workload
{
    std::string name;
    std::vector<std::string> cells;
    /** Run a cell with a seed; returns its output signature. */
    std::function<std::string(std::size_t, std::uint64_t)> run;
};

const std::vector<Workload> &allWorkloads();
/** Null when @p name is not a workload. */
const Workload *findWorkload(const std::string &name);

/** The op list for a workload seed: every cell once, shuffled. */
std::vector<Op> plan(const Workload &w, std::uint64_t seed);
/** Expected-file key of an op, e.g. "whisper/ctree/tt40/seed=3". */
std::string opKey(const Workload &w, const Op &op);

// ---- the cell tables, shared by the timed and the traced mode --------

struct SchemeCell
{
    const char *tag;
    terp::core::RuntimeConfig cfg;
    unsigned threads;
};

struct WhisperCell
{
    std::string prog;
    SchemeCell scheme;
};
/** The six WHISPER surrogates x {unprotected, MM, TM, TT} (40us). */
const std::vector<WhisperCell> &whisperCells();
terp::workloads::WhisperParams whisperParams(std::uint64_t seed);

struct SpecCell
{
    std::string prog;
    SchemeCell scheme;
};
/** The five SPEC surrogates x {TM, TT at 4 threads, MM at 1}. */
const std::vector<SpecCell> &specCells();
terp::workloads::SpecParams specParams(const SpecCell &c,
                                       std::uint64_t seed);

/** bank and txnest x {MM, TT}. */
const std::vector<terp::check::CrashOptions> &crashCells();
terp::check::CrashOptions crashOptions(std::size_t cell,
                                       std::uint64_t seed);

/** Fleets alternating txnWrites 0 and 4 over 64 tenant PMOs. */
terp::serve::ServeConfig serveConfig(std::size_t cell,
                                     std::uint64_t seed);
/** Host workers of every fleet: one, for a steady measurement. */
inline constexpr unsigned kServeWorkers = 1;

// ---- output signatures: exact, deterministic simulated results -------

std::string signature(const terp::workloads::RunResult &r);
std::string signature(const terp::check::CrashResult &r);
std::string signature(const terp::serve::FleetResult &r);

// ---- checking ---------------------------------------------------------

/** Expected signatures by op key. */
using Expected = std::map<std::string, std::string>;

/** Read the "<key> <signature>" lines of <dir>/<workload>.txt for
 * every workload. */
Expected loadExpectedDir(const std::string &dir);

/** Empty when @p got matches; otherwise why the op failed. */
std::string verify(const Expected &exp, const std::string &key,
                   const std::string &got);

/** Failed/attempted tally of a set of ops. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure details, for the log. */
    std::vector<std::string> details;

    void record(const std::string &failure);
};

/**
 * Run one op and check its output. A mismatch, a missing expected
 * value or an exception is a failed op, never a crash.
 */
void runChecked(const Workload &w, const Op &op, const Expected &exp,
                Tally &tally);

/** Traced run of every workload; prints one JSON object. */
int runTraced(std::uint64_t seed, const Expected &exp,
              const std::string &spansPath);

/**
 * The traced spec_mt re-drive of one cell: runSpec's public sequence
 * with spans around each layer. Used by the traced mode and its
 * self-test.
 */
class Tracer;
terp::workloads::RunResult redriveSpec(const SpecCell &c,
                                       std::uint64_t seed, Tracer &tr,
                                       std::uint64_t &instructions);

/** Empty when two spec results are cycle-identical. */
std::string sameRun(const terp::workloads::RunResult &a,
                    const terp::workloads::RunResult &b);

} // namespace hostbench

#endif // HOSTBENCH_OPS_HH
