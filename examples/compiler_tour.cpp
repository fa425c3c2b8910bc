/**
 * @file
 * Tour of the TERP compiler pipeline: build a small program with
 * PMO accesses in branches and loops, run the Algorithm-1 insertion
 * pass, show the instrumented IR, verify it, and execute it on the
 * simulated machine under full TERP protection.
 *
 * Build & run:  ./build/examples/compiler_tour
 */

#include <cstdio>

#include "compiler/builder.hh"
#include "compiler/dot.hh"
#include "compiler/interp.hh"
#include "compiler/pass.hh"
#include "compiler/verifier.hh"
#include "core/domain.hh"
#include "semantics/poset.hh"

using namespace terp;
using namespace terp::compiler;

int
main()
{
    // ---- one simulated process under TT protection -------------------
    core::DomainConfig dc;
    dc.runtime = core::RuntimeConfig::tt();
    core::ShardDomain process(dc);
    pm::PmoManager &pmos = process.pmos();

    // ---- build a program ------------------------------------------
    pm::PmoId ledger = pmos.create("ledger", 4 * MiB).id();
    pm::PmoId index = pmos.create("index", 1 * MiB).id();

    Module mod;
    FunctionBuilder b(mod, "post_entries", 1);
    b.forLoop(64, [&](Reg i) {
        Reg amount = b.mul(i, b.constant(3));
        // Credit entries go to even slots, debits to odd ones.
        Reg even = b.cmpEq(b.arith(Op::Rem, i, b.constant(2)),
                           b.constant(0));
        b.ifThenElse(
            even,
            [&]() {
                Reg slot = b.add(b.pmoBase(ledger, 0),
                                 b.mul(i, b.constant(64)));
                b.store(slot, amount);
            },
            [&]() {
                Reg slot = b.add(b.pmoBase(ledger, 4096),
                                 b.mul(i, b.constant(64)));
                b.store(slot, amount);
            });
        // Update the index summary.
        Reg sum_slot = b.pmoBase(index, 0);
        Reg old = b.load(sum_slot);
        b.store(sum_slot, b.add(old, amount));
        b.compute(50); // unrelated bookkeeping
    });
    b.ret();
    std::uint32_t entry = b.finish();

    std::printf("=== IR before the TERP pass ===\n%s\n",
                mod.dump().c_str());

    // ---- run Algorithm 1 -------------------------------------------
    PassConfig cfg; // 40us EW threshold, 2us TEW threshold
    PassResult res = runInsertionPass(mod, cfg);
    std::printf("=== pass result ===\n");
    std::printf("WFG regions: %zu, CONDAT inserted: %llu, CONDDT "
                "inserted: %llu (grouped %llu, per-block %llu)\n",
                res.regions.size(),
                (unsigned long long)res.condAttach,
                (unsigned long long)res.condDetach,
                (unsigned long long)res.grouped,
                (unsigned long long)res.perBlock);
    for (const WfgRegion &r : res.regions) {
        std::printf("  region: header bb%u exit bb%d blocks %u "
                    "pmo-mask 0x%llx LET %llu cycles\n",
                    r.header, r.exit == noBlock ? -1 : (int)r.exit,
                    r.blockCount, (unsigned long long)r.pmoMask,
                    (unsigned long long)r.let);
    }

    PmoFacts facts = PmoFacts::analyze(mod);
    VerifyResult v = verifyModule(mod, facts, true);
    std::printf("strict verifier: %s\n\n", v.ok ? "OK" : "FAILED");

    std::printf("=== IR after the TERP pass ===\n%s\n",
                mod.dump().c_str());

    // ---- execute under TT protection --------------------------------
    sim::Machine &mach = process.machine();
    pm::MemImage img;
    Interpreter interp(mod, process.runtime(), mach, img, entry);
    mach.spawnThread();
    process.runJobs({&interp});
    process.finalize();

    core::OverheadReport rep = process.runtime().report();
    std::printf("=== execution under TT ===\n");
    std::printf("instructions: %llu, time %.1f us, faults %llu\n",
                (unsigned long long)interp.instructionsExecuted(),
                cyclesToUs(mach.maxClock()),
                (unsigned long long)interp.faultCount());
    std::printf("attach syscalls %llu, cond ops %llu (%.1f%% "
                "silent)\n",
                (unsigned long long)rep.attachSyscalls,
                (unsigned long long)rep.condOps,
                100.0 * rep.silentFraction);
    std::printf("index sum stored in PM: %llu\n\n",
                (unsigned long long)img.peek(pm::Oid(index, 0).raw));

    // ---- Fig 5-style CFG rendering -----------------------------------
    std::printf("=== instrumented CFG (Graphviz; shaded = PMO "
                "accesses, clusters = WFG regions) ===\n%s\n",
                cfgToDot(mod.function(entry), entry, facts,
                         res.regions)
                    .c_str());

    // ---- the TERP poset ----------------------------------------------
    semantics::Poset poset = semantics::makeCanonicalTerpPoset();
    std::printf("=== canonical TERP poset (Hasse diagram, dot) ===\n"
                "%s",
                poset.toDot().c_str());
    return 0;
}
