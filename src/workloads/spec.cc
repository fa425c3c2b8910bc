#include "workloads/spec.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "compiler/builder.hh"
#include "core/domain.hh"

namespace terp {
namespace workloads {

namespace {

using compiler::FunctionBuilder;
using compiler::Reg;

/**
 * Emit a thread-sliced, chunked loop:
 *
 *   for chunk in [0, n_chunks):
 *       if (chunk % n_threads == tid):
 *           attach(manual_pmos)          // MERR bookends
 *           for i in [0, iters): body(chunk*iters + i)
 *           detach(manual_pmos)
 */
void
chunkedLoop(FunctionBuilder &b, Reg tid, Reg n_threads,
            std::uint64_t n_chunks, std::uint64_t iters,
            const std::vector<pm::PmoId> &manual_pmos,
            const std::function<void(Reg)> &body)
{
    b.forLoop(n_chunks, [&](Reg chunk) {
        Reg mine = b.cmpEq(b.arith(compiler::Op::Rem, chunk, n_threads),
                           tid);
        b.ifThenElse(mine, [&]() {
            for (pm::PmoId p : manual_pmos)
                b.manualAttach(p);
            Reg iters_r = b.constant(static_cast<std::int64_t>(iters));
            b.forLoop(iters, [&](Reg i) {
                Reg gi = b.add(b.mul(chunk, iters_r), i);
                body(gi);
            });
            for (pm::PmoId p : manual_pmos)
                b.manualDetach(p);
        });
    });
}

/** addr = base(pmo, 0) + idx * stride (+ byte_off) */
Reg
pmoAddr(FunctionBuilder &b, pm::PmoId pmo, Reg idx,
        std::uint64_t stride, std::uint64_t byte_off = 0)
{
    Reg base = b.pmoBase(pmo, static_cast<std::int64_t>(byte_off));
    Reg s = b.constant(static_cast<std::int64_t>(stride));
    return b.add(base, b.mul(idx, s));
}

struct Sizes
{
    std::uint64_t n;     //!< elements per scan
    std::uint64_t iters; //!< elements per manual chunk
};

Sizes
scaled(double scale, std::uint64_t n)
{
    std::uint64_t scaled_n = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(static_cast<double>(n) * scale));
    return {scaled_n, 6};
}

/** Elements processed per IR loop iteration (unrolled in the IR). */
constexpr std::uint64_t unroll = 4;

// ------------------------------------------------------------- lbm

SpecProgram
buildLbm(pm::PmoManager &pm, const SpecParams &params)
{
    SpecProgram prog;
    pm::PmoId a = pm.create("spec.lbm.gridA", 4 * MiB).id();
    pm::PmoId bgrid = pm.create("spec.lbm.gridB", 4 * MiB).id();
    prog.pmos = {a, bgrid};

    Sizes sz = scaled(params.scale, 49152);
    const std::uint64_t cell = 64; // bytes per cell
    const std::uint64_t row = 64;  // cells per row

    FunctionBuilder b(prog.module, "lbm", 2);
    Reg tid = b.param(0), nt = b.param(1);

    auto stencil = [&](pm::PmoId src, pm::PmoId dst) {
        chunkedLoop(
            b, tid, nt, sz.n / (sz.iters * unroll), sz.iters,
            {src, dst}, [&](Reg gi) {
                Reg un = b.constant(unroll);
                Reg e0 = b.mul(gi, un);
                std::vector<Reg> vals;
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg s0 = b.load(pmoAddr(b, src, ei, cell, 0));
                    Reg s1 = b.load(pmoAddr(b, src, ei, cell, 8));
                    Reg s2 = b.load(
                        pmoAddr(b, src, ei, cell, row * cell));
                    vals.push_back(b.add(b.add(s0, s1), s2));
                }
                b.compute(1400); // collision step
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    b.store(pmoAddr(b, dst, ei, cell, 0), vals[u]);
                    b.store(pmoAddr(b, dst, ei, cell, 8), vals[u]);
                }
            });
    };

    b.forLoop(2, [&](Reg) { // timesteps: A->B then B->A
        stencil(a, bgrid);
        stencil(bgrid, a);
    });
    b.ret();
    prog.entry = b.finish();
    prog.setup = [](pm::MemImage &, Rng &) {};
    return prog;
}

// ------------------------------------------------------------- mcf

SpecProgram
buildMcf(pm::PmoManager &pm, const SpecParams &params)
{
    SpecProgram prog;
    pm::PmoId nodes = pm.create("spec.mcf.nodes", 1 * MiB).id();
    pm::PmoId arcs = pm.create("spec.mcf.arcs", 2 * MiB).id();
    pm::PmoId flow = pm.create("spec.mcf.flow", 512 * KiB).id();
    pm::PmoId tree = pm.create("spec.mcf.tree", 256 * KiB).id();
    prog.pmos = {nodes, arcs, flow, tree};

    const std::uint64_t n_nodes = 16384;
    Sizes arcs_sz = scaled(params.scale, 32768);
    Sizes nodes_sz = scaled(params.scale, 16384);

    FunctionBuilder b(prog.module, "mcf", 2);
    Reg tid = b.param(0), nt = b.param(1);

    b.forLoop(2, [&](Reg) { // simplex iterations
        // Phase 1: price arcs (arcs + nodes active).
        chunkedLoop(
            b, tid, nt, arcs_sz.n / (arcs_sz.iters * unroll),
            arcs_sz.iters, {arcs, nodes}, [&](Reg gi) {
                Reg e0 = b.mul(gi, b.constant(unroll));
                std::vector<Reg> reds;
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg arc_cost = b.load(pmoAddr(b, arcs, ei, 32, 0));
                    Reg head = b.load(pmoAddr(b, arcs, ei, 32, 8));
                    Reg pot = b.load(pmoAddr(b, nodes, head, 64, 0));
                    reds.push_back(b.sub(arc_cost, pot));
                }
                b.compute(1100); // reduced-cost evaluation
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    b.store(pmoAddr(b, arcs, ei, 32, 16), reds[u]);
                }
            });
        // Phase 2: update flows (flow active alone; the entering
        // arcs' reduced costs were staged through a DRAM worklist).
        chunkedLoop(
            b, tid, nt, arcs_sz.n / (arcs_sz.iters * unroll),
            arcs_sz.iters, {flow}, [&](Reg gi) {
                Reg e0 = b.mul(gi, b.constant(unroll));
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg slot = b.add(
                        b.dramBase(0x10000),
                        b.arith(compiler::Op::And, ei,
                                b.constant(8191)));
                    Reg red = b.load(slot);
                    Reg fo = b.arith(compiler::Op::Shr, ei,
                                     b.constant(2));
                    Reg old = b.load(pmoAddr(b, flow, fo, 32, 0));
                    b.store(pmoAddr(b, flow, fo, 32, 0),
                            b.add(old, red));
                }
                b.compute(900); // pivot bookkeeping
            });
        // Phase 3: rebuild spanning tree (nodes + tree active).
        chunkedLoop(
            b, tid, nt, nodes_sz.n / (nodes_sz.iters * unroll),
            nodes_sz.iters, {nodes, tree}, [&](Reg gi) {
                Reg e0 = b.mul(gi, b.constant(unroll));
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg pot = b.load(pmoAddr(b, nodes, ei, 64, 0));
                    Reg to = b.arith(compiler::Op::Shr, ei,
                                     b.constant(2));
                    b.store(pmoAddr(b, tree, to, 32, 0), pot);
                    b.store(pmoAddr(b, nodes, ei, 64, 8),
                            b.add(pot, ei));
                }
                b.compute(900); // basis update
            });
    });
    b.ret();
    prog.entry = b.finish();

    std::uint64_t arc_count = arcs_sz.n;
    prog.setup = [arc_count, arcs, n_nodes](pm::MemImage &img,
                                            Rng &rng) {
        // arcs[i].head = random node index.
        img.reserveDense(pm::Oid(arcs, 0).raw, arc_count * 32);
        for (std::uint64_t i = 0; i < arc_count; ++i) {
            img.fill(pm::Oid(arcs, i * 32 + 8).raw,
                     rng.nextBelow(n_nodes));
        }
    };
    return prog;
}

// ---------------------------------------------------------- imagick

SpecProgram
buildImagick(pm::PmoManager &pm, const SpecParams &params)
{
    SpecProgram prog;
    pm::PmoId in = pm.create("spec.imagick.in", 2 * MiB).id();
    pm::PmoId out = pm.create("spec.imagick.out", 2 * MiB).id();
    pm::PmoId meta = pm.create("spec.imagick.meta", 256 * KiB).id();
    prog.pmos = {in, out, meta};

    Sizes px = scaled(params.scale, 24576);

    FunctionBuilder b(prog.module, "imagick", 2);
    Reg tid = b.param(0), nt = b.param(1);

    b.forLoop(2, [&](Reg) { // two filter passes
        // Prologue: stage the filter kernel from the metadata PMO
        // into DRAM (meta active alone, briefly).
        chunkedLoop(b, tid, nt, 1, 8, {meta}, [&](Reg gi) {
            Reg k = b.load(pmoAddr(b, meta, gi, 64, 0));
            b.store(b.add(b.dramBase(0x8000),
                          b.mul(gi, b.constant(8))),
                    k);
            b.compute(60);
        });
        // Convolution sweep: in + out active.
        chunkedLoop(
            b, tid, nt, px.n / (px.iters * unroll), px.iters,
            {in, out}, [&](Reg gi) {
                Reg e0 = b.mul(gi, b.constant(unroll));
                Reg k = b.load(b.dramBase(0x8000)); // staged kernel
                std::vector<Reg> accs;
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg p0 = b.load(pmoAddr(b, in, ei, 64, 0));
                    Reg p1 = b.load(pmoAddr(b, in, ei, 64, 64));
                    accs.push_back(b.add(b.mul(p0, k), p1));
                }
                b.compute(1300); // filter arithmetic
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    b.store(pmoAddr(b, out, ei, 64, 0), accs[u]);
                }
            });
    });
    b.ret();
    prog.entry = b.finish();
    prog.setup = [](pm::MemImage &, Rng &) {};
    return prog;
}

// -------------------------------------------------------------- nab

SpecProgram
buildNab(pm::PmoManager &pm, const SpecParams &params)
{
    SpecProgram prog;
    pm::PmoId pos = pm.create("spec.nab.pos", 1 * MiB).id();
    pm::PmoId force = pm.create("spec.nab.force", 1 * MiB).id();
    pm::PmoId parm = pm.create("spec.nab.params", 256 * KiB).id();
    prog.pmos = {pos, force, parm};

    Sizes pt = scaled(params.scale, 12288);
    const std::uint64_t n_particles = 16384;

    FunctionBuilder b(prog.module, "nab", 2);
    Reg tid = b.param(0), nt = b.param(1);

    b.forLoop(2, [&](Reg) { // MD steps
        // Prologue: stage force-field parameters in DRAM (parm
        // active alone, briefly).
        chunkedLoop(b, tid, nt, 1, 8, {parm}, [&](Reg gi) {
            Reg eps = b.load(pmoAddr(b, parm, gi, 64, 0));
            b.store(b.add(b.dramBase(0x9000),
                          b.mul(gi, b.constant(8))),
                    eps);
            b.compute(60);
        });
        // Force computation (pos + force active).
        chunkedLoop(
            b, tid, nt, pt.n / (pt.iters * unroll), pt.iters,
            {pos, force}, [&](Reg gi) {
                Reg e0 = b.mul(gi, b.constant(unroll));
                Reg eps = b.load(b.dramBase(0x9000));
                std::vector<Reg> fs;
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg xi = b.load(pmoAddr(b, pos, ei, 64, 0));
                    Reg j = b.load(pmoAddr(b, pos, ei, 64, 8));
                    Reg xj = b.load(pmoAddr(b, pos, j, 64, 0));
                    Reg d = b.sub(xi, xj);
                    fs.push_back(b.mul(b.mul(d, d), eps));
                }
                b.compute(1500); // pairwise potential evaluation
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    b.store(pmoAddr(b, force, ei, 64, 0), fs[u]);
                }
            });
        // Staged integration: forces -> DRAM (force active alone),
        // then DRAM -> positions (pos active alone).
        chunkedLoop(
            b, tid, nt, pt.n / (pt.iters * unroll), pt.iters,
            {force}, [&](Reg gi) {
                Reg e0 = b.mul(gi, b.constant(unroll));
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg f = b.load(pmoAddr(b, force, ei, 64, 0));
                    Reg slot = b.add(
                        b.dramBase(0xa000),
                        b.mul(b.arith(compiler::Op::And, ei,
                                      b.constant(4095)),
                              b.constant(8)));
                    b.store(slot, f);
                }
                b.compute(400);
            });
        chunkedLoop(
            b, tid, nt, pt.n / (pt.iters * unroll), pt.iters,
            {pos}, [&](Reg gi) {
                Reg e0 = b.mul(gi, b.constant(unroll));
                for (std::uint64_t u = 0; u < unroll; ++u) {
                    Reg ei = b.add(e0, b.constant(
                                           static_cast<std::int64_t>(u)));
                    Reg slot = b.add(
                        b.dramBase(0xa000),
                        b.mul(b.arith(compiler::Op::And, ei,
                                      b.constant(4095)),
                              b.constant(8)));
                    Reg f = b.load(slot);
                    Reg x = b.load(pmoAddr(b, pos, ei, 64, 0));
                    b.store(pmoAddr(b, pos, ei, 64, 0), b.add(x, f));
                }
                b.compute(400); // integrator update
            });
    });
    b.ret();
    prog.entry = b.finish();

    std::uint64_t count = pt.n;
    prog.setup = [count, pos, n_particles](pm::MemImage &img,
                                           Rng &rng) {
        // pos[i].neighbour = random particle index.
        img.reserveDense(pm::Oid(pos, 0).raw, count * 64);
        for (std::uint64_t i = 0; i < count; ++i) {
            img.fill(pm::Oid(pos, i * 64 + 8).raw,
                     rng.nextBelow(n_particles));
        }
    };
    return prog;
}

// --------------------------------------------------------------- xz

SpecProgram
buildXz(pm::PmoManager &pm, const SpecParams &params)
{
    SpecProgram prog;
    pm::PmoId in = pm.create("spec.xz.in", 2 * MiB).id();
    pm::PmoId dict = pm.create("spec.xz.dict", 1 * MiB).id();
    pm::PmoId hash = pm.create("spec.xz.hash", 1 * MiB).id();
    pm::PmoId out = pm.create("spec.xz.out", 2 * MiB).id();
    pm::PmoId stats = pm.create("spec.xz.stats", 256 * KiB).id();
    pm::PmoId match = pm.create("spec.xz.match", 2 * MiB).id();
    prog.pmos = {in, dict, hash, out, stats, match};

    Sizes blk = scaled(params.scale, 24576);
    const std::uint64_t hash_slots = 32768;

    FunctionBuilder b(prog.module, "xz", 2);
    Reg tid = b.param(0), nt = b.param(1);

    // Phase 1: hash input positions (in + hash active).
    chunkedLoop(
        b, tid, nt, blk.n / (blk.iters * unroll), blk.iters,
        {in, hash}, [&](Reg gi) {
            Reg e0 = b.mul(gi, b.constant(unroll));
            for (std::uint64_t u = 0; u < unroll; ++u) {
                Reg ei = b.add(e0, b.constant(
                                       static_cast<std::int64_t>(u)));
                Reg byte = b.load(pmoAddr(b, in, ei, 64, 0));
                Reg h = b.arith(
                    compiler::Op::And,
                    b.mul(byte, b.constant(0x9e3779b1)),
                    b.constant(
                        static_cast<std::int64_t>(hash_slots - 1)));
                Reg slot_addr = pmoAddr(b, hash, h, 16, 0);
                Reg prev = b.load(slot_addr);
                b.store(slot_addr, b.add(prev, ei));
            }
            b.compute(900); // rolling-hash maintenance
        });
    // Phase 2: match search (in + dict + match active).
    chunkedLoop(
        b, tid, nt, blk.n / (blk.iters * unroll), blk.iters,
        {in, dict, match}, [&](Reg gi) {
            Reg e0 = b.mul(gi, b.constant(unroll));
            std::vector<Reg> lens;
            for (std::uint64_t u = 0; u < unroll; ++u) {
                Reg ei = b.add(e0, b.constant(
                                       static_cast<std::int64_t>(u)));
                Reg cand = b.load(pmoAddr(b, in, ei, 64, 8));
                Reg d = b.load(pmoAddr(b, dict, cand, 64, 0));
                Reg cur = b.load(pmoAddr(b, in, ei, 64, 0));
                lens.push_back(b.sub(cur, d));
            }
            b.compute(1000); // match-length comparison
            for (std::uint64_t u = 0; u < unroll; ++u) {
                Reg ei = b.add(e0, b.constant(
                                       static_cast<std::int64_t>(u)));
                b.store(pmoAddr(b, match, ei, 64, 0), lens[u]);
            }
        });
    // Phase 3: emit (match + out active; statistics staged in DRAM).
    chunkedLoop(
        b, tid, nt, blk.n / (blk.iters * unroll), blk.iters,
        {match, out}, [&](Reg gi) {
            Reg e0 = b.mul(gi, b.constant(unroll));
            for (std::uint64_t u = 0; u < unroll; ++u) {
                Reg ei = b.add(e0, b.constant(
                                       static_cast<std::int64_t>(u)));
                Reg len = b.load(pmoAddr(b, match, ei, 64, 0));
                b.store(pmoAddr(b, out, ei, 64, 0), len);
                Reg so = b.arith(compiler::Op::And, ei,
                                 b.constant(1023));
                b.store(b.add(b.dramBase(0xb000),
                              b.mul(so, b.constant(8))),
                        len);
            }
            b.compute(900); // range-coder emission
        });
    // Phase 4: fold staged statistics back (stats active alone).
    chunkedLoop(
        b, tid, nt, 1024 / (blk.iters * unroll), blk.iters,
        {stats}, [&](Reg gi) {
            Reg e0 = b.mul(gi, b.constant(unroll));
            for (std::uint64_t u = 0; u < unroll; ++u) {
                Reg so = b.arith(
                    compiler::Op::And,
                    b.add(e0, b.constant(
                                  static_cast<std::int64_t>(u))),
                    b.constant(1023));
                Reg st = b.load(b.add(b.dramBase(0xb000),
                                      b.mul(so, b.constant(8))));
                Reg old = b.load(pmoAddr(b, stats, so, 64, 0));
                b.store(pmoAddr(b, stats, so, 64, 0),
                        b.add(old, st));
            }
            b.compute(400);
        });
    b.ret();
    prog.entry = b.finish();

    std::uint64_t count = blk.n;
    std::uint64_t dict_entries = (1 * MiB) / 64;
    prog.setup = [count, in, dict_entries](pm::MemImage &img,
                                           Rng &rng) {
        img.reserveDense(pm::Oid(in, 0).raw, count * 64);
        for (std::uint64_t i = 0; i < count; ++i) {
            img.fill(pm::Oid(in, i * 64).raw, rng.next() & 0xff);
            img.fill(pm::Oid(in, i * 64 + 8).raw,
                     rng.nextBelow(dict_entries));
        }
    };
    return prog;
}

} // namespace

const std::vector<std::string> &
specNames()
{
    static const std::vector<std::string> names = {
        "mcf", "lbm", "imagick", "nab", "xz"};
    return names;
}

unsigned
specPmoCount(const std::string &name)
{
    if (name == "mcf")
        return 4;
    if (name == "lbm")
        return 2;
    if (name == "imagick")
        return 3;
    if (name == "nab")
        return 3;
    if (name == "xz")
        return 6;
    TERP_PANIC("unknown SPEC workload: ", name);
}

SpecProgram
buildSpec(const std::string &name, pm::PmoManager &pmos,
          const compiler::PassConfig &pass_cfg,
          const SpecParams &params)
{
    SpecProgram prog;
    if (name == "mcf")
        prog = buildMcf(pmos, params);
    else if (name == "lbm")
        prog = buildLbm(pmos, params);
    else if (name == "imagick")
        prog = buildImagick(pmos, params);
    else if (name == "nab")
        prog = buildNab(pmos, params);
    else if (name == "xz")
        prog = buildXz(pmos, params);
    else
        TERP_PANIC("unknown SPEC workload: ", name);

    TERP_ASSERT(prog.pmos.size() == specPmoCount(name),
                "PMO count mismatch for ", name);
    if (params.runPass)
        prog.passResult = compiler::runInsertionPass(prog.module,
                                                     pass_cfg);
    return prog;
}

RunResult
runSpec(const std::string &name, const core::RuntimeConfig &cfg,
        const SpecParams &params)
{
    core::DomainConfig dc;
    dc.runtime = cfg;
    dc.placementSeed = params.seed;
    core::ShardDomain d(dc);
    sim::Machine &mach = d.machine();
    core::Runtime &rt = d.runtime();

    compiler::PassConfig pc;
    pc.ewLetThreshold = cfg.ewTarget;
    pc.tewLetThreshold = cfg.tewTarget;
    SpecProgram prog = buildSpec(name, d.pmos(), pc, params);

    pm::MemImage img;
    Rng rng(params.seed ^ 0xabcdef);
    prog.setup(img, rng);

    std::vector<std::unique_ptr<compiler::Interpreter>> interps;
    std::vector<sim::Job *> jobs;
    for (unsigned t = 0; t < params.threads; ++t) {
        mach.spawnThread();
        interps.push_back(std::make_unique<compiler::Interpreter>(
            prog.module, rt, mach, img, prog.entry,
            std::vector<std::uint64_t>{t, params.threads}));
        jobs.push_back(interps.back().get());
    }
    d.runJobs(jobs);
    d.finalize();

    RunResult r;
    r.name = name;
    r.report = rt.report();
    r.totalCycles = mach.maxClock();
    r.exposure = rt.exposure().metricsAll(r.totalCycles,
                                          params.threads);
    r.pmoCount = prog.pmos.size();
    if (auto sink = rt.traceSink()) {
        r.trace = sink;
        r.traceAudit = std::make_shared<trace::AuditReport>(
            trace::auditTimeline(*sink, r.totalCycles,
                                 rt.exposure()));
    }
    if ((r.metrics = rt.metricsRegistry())) {
        r.metrics->setLabel("workload", name);
        std::uint64_t instrs = 0;
        for (const auto &in : interps)
            instrs += in->instructionsExecuted();
        r.metrics->counter("interp.instructions").inc(instrs);
        // Fusion effectiveness: a host dispatch choice, not simulated
        // work, so the counters are host.* and stay out of the
        // posture goldens, fleet merges and bench-metric comparisons.
        std::uint64_t sites = 0;
        std::uint64_t kinds[compiler::Interpreter::kFusionKinds] = {};
        for (const auto &in : interps) {
            sites += in->fusionCandidates();
            for (unsigned k = 0; k < compiler::Interpreter::kFusionKinds;
                 ++k)
                kinds[k] += in->fusedDispatches(k);
        }
        r.metrics->counter("host.interp.fusion_candidates").inc(sites);
        for (unsigned k = 0; k < compiler::Interpreter::kFusionKinds;
             ++k) {
            if (!kinds[k])
                continue;
            r.metrics
                ->counter(metrics::labeled(
                    "host.interp.fused_dispatches", "kind",
                    compiler::Interpreter::fusionKindName(k)))
                .inc(kinds[k]);
        }
    }
    return r;
}

} // namespace workloads
} // namespace terp
