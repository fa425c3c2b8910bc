/**
 * @file
 * Microbenchmarks (google-benchmark) for the compiler substrate:
 * CFG analysis, the Algorithm-1 insertion pass, the verifier and
 * interpreter throughput.
 */

#include <benchmark/benchmark.h>

#include "compiler/analysis.hh"
#include "compiler/builder.hh"
#include "compiler/interp.hh"
#include "compiler/pass.hh"
#include "compiler/verifier.hh"
#include "core/domain.hh"

using namespace terp;
using namespace terp::compiler;

namespace {

/** A moderately branchy kernel with PMO accesses. */
Module
makeKernel(unsigned loops)
{
    Module m;
    FunctionBuilder b(m, "kern", 0);
    for (unsigned l = 0; l < loops; ++l) {
        b.forLoop(16, [&](Reg i) {
            Reg addr = b.add(b.pmoBase(1 + (l % 3), 0),
                             b.mul(i, b.constant(64)));
            Reg v = b.load(addr);
            b.ifThenElse(b.cmpLt(v, b.constant(100)),
                         [&]() { b.store(addr, b.add(v, i)); });
        });
        b.compute(20);
    }
    b.ret();
    b.finish();
    return m;
}

} // namespace

static void
BM_CfgAnalysis(benchmark::State &state)
{
    Module m = makeKernel(static_cast<unsigned>(state.range(0)));
    PmoFacts facts = PmoFacts::analyze(m);
    for (auto _ : state) {
        Analysis an(m.function(0), facts.blockMasks(0));
        benchmark::DoNotOptimize(an.letBetween(0, noBlock));
    }
}
BENCHMARK(BM_CfgAnalysis)->Arg(4)->Arg(16);

static void
BM_PointerAnalysis(benchmark::State &state)
{
    Module m = makeKernel(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(PmoFacts::analyze(m));
    }
}
BENCHMARK(BM_PointerAnalysis)->Arg(4)->Arg(16);

static void
BM_InsertionPass(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Module m = makeKernel(static_cast<unsigned>(state.range(0)));
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            runInsertionPass(m, PassConfig{}));
    }
}
BENCHMARK(BM_InsertionPass)->Arg(4)->Arg(16);

static void
BM_Verifier(benchmark::State &state)
{
    Module m = makeKernel(8);
    runInsertionPass(m, PassConfig{});
    PmoFacts facts = PmoFacts::analyze(m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(verifyModule(m, facts, true));
    }
}
BENCHMARK(BM_Verifier);

static void
BM_InterpreterThroughput(benchmark::State &state)
{
    Module m;
    FunctionBuilder b(m, "loop", 0);
    b.forLoop(1000, [&](Reg i) {
        Reg a = b.add(i, i);
        Reg c = b.mul(a, i);
        b.store(b.dramBase(0x100), c);
    });
    b.ret();
    b.finish();

    std::uint64_t instrs = 0;
    for (auto _ : state) {
        core::ShardDomain d(core::DomainConfig{});
        pm::MemImage img;
        Interpreter in(m, d.runtime(), d.machine(), img, 0);
        sim::ThreadContext &tc = d.machine().spawnThread();
        while (in.step(tc)) {
        }
        instrs += in.instructionsExecuted();
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

BENCHMARK_MAIN();
