#include "compiler/interp.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace terp {
namespace compiler {

namespace {

/** Env flag: unset/empty -> @p dflt; "0" -> false; anything else on. */
bool
envFlag(const char *name, bool dflt)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    return !(v[0] == '0' && v[1] == '\0');
}

/**
 * TERP_FUSE=0 keeps the unfused interpreter alive for differential
 * testing. Decode-time only: existing decoded images are unaffected
 * by later env changes.
 */
bool
fusionEnabled()
{
    // Re-read per call (decode-time only, so this is cold): the
    // differential tests flip TERP_FUSE between in-process runs.
    return envFlag("TERP_FUSE", true);
}

} // namespace

const char *
Interpreter::fusionKindName(unsigned k)
{
    static const char *const names[kFusionKinds] = {
        "addrun",  "addr4",   "incjump",  "constmul", "muladd",
        "constadd", "addload", "addstore", "dramadd",  "cmpltbranch",
    };
    return k < kFusionKinds ? names[k] : "?";
}

Interpreter::Interpreter(const Module &m, core::Runtime &rt_,
                         sim::Machine &mach_, MemoryImage &mem_,
                         std::uint32_t entry,
                         std::vector<std::uint64_t> args,
                         std::uint64_t quantum_)
    : mod(&m), rt(&rt_), mach(&mach_), mem(&mem_), quantum(quantum_)
{
    dfuncs.resize(m.functions.size());
    for (std::uint32_t i = 0; i < m.functions.size(); ++i)
        decodeFunction(i);

    const Function &f = m.function(entry);
    TERP_ASSERT(args.size() <= f.nParams, "too many arguments");
    Frame fr;
    fr.fn = entry;
    fr.regs.assign(f.nRegs + 1, 0); // +1: phantom zero register
    for (std::size_t i = 0; i < args.size(); ++i)
        fr.regs[i] = args[i];
    bindBlock(fr);
    stack.push_back(std::move(fr));
}

void
Interpreter::decodeFunction(std::uint32_t i)
{
    const Function &f = mod->function(i);
    DFunc &df = dfuncs[i];
    df.nRegs = f.nRegs;
    // Phantom always-zero register (see DFunc doc): rewriting noReg
    // operands to it lets the dispatch loop index regs[] without a
    // sentinel branch.
    const Reg zr = f.nRegs;
    auto z = [zr](Reg r) { return r == noReg ? zr : r; };
    df.blocks.reserve(f.blocks.size());
    for (const BasicBlock &bb : f.blocks) {
        // Proven here so the dispatch loop needs no per-instruction
        // bounds check: execution can only leave a block through its
        // terminator (a Call resumes at idx+1, which stays inside
        // the block because Call is not a terminator).
        TERP_ASSERT(!bb.instrs.empty() &&
                        isTerminator(bb.instrs.back().op),
                    "unterminated basic block reached the ",
                    "interpreter in function ", f.name);
        df.blocks.emplace_back(
            static_cast<std::uint32_t>(df.code.size()),
            static_cast<std::uint32_t>(bb.instrs.size()));
        for (const Instr &in : bb.instrs) {
            DInstr d;
            d.op = in.op;
            d.dst = in.dst;
            d.ra = in.ra;
            d.rb = in.rb;
            d.mode = in.mode;
            d.aux = in.imm;
            switch (in.op) {
              case Op::PmoBase:
              case Op::CondAttach:
              case Op::CondDetach:
              case Op::ManualAttach:
              case Op::ManualDetach:
                d.ra = in.pmo;
                break;
              case Op::Jump:
                d.aux = in.target[0];
                break;
              case Op::Call: {
                const Function &callee = mod->function(in.callee);
                TERP_ASSERT(in.args.size() <= callee.nParams,
                            "call argument count mismatch");
                d.ra = in.callee;
                d.rb = static_cast<Reg>(df.callArgs.size());
                d.nArgs = static_cast<std::uint16_t>(in.args.size());
                for (Reg a : in.args)
                    df.callArgs.push_back(z(a));
                break;
              }
              case Op::Mov:
              case Op::Load:
              case Op::Ret:
                d.ra = z(d.ra);
                break;
              case Op::Branch:
                d.ra = z(d.ra);
                d.aux = static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(in.target[0]) |
                    (static_cast<std::uint64_t>(in.target[1]) << 32));
                break;
              default:
                d.ra = z(d.ra);
                d.rb = z(d.rb);
                break;
            }
            df.code.push_back(d);
        }

        // Run-length-fuse self-add busy work (see opAddRun): mark
        // each run of identical `add d, d, d`. Runs never cross a
        // block boundary (blocks end in a terminator, which is not
        // an Add). With fusion on, every member becomes a resume
        // head carrying the remaining run length, so a quantum
        // boundary mid-run costs one extra dispatch instead of one
        // per remaining add.
        const bool fuseOn = fusionEnabled();
        const std::size_t start = df.blocks.back().first;
        const std::size_t end = df.code.size();
        for (std::size_t a = start; a < end;) {
            const DInstr &h = df.code[a];
            if (h.op != Op::Add || h.ra != h.dst || h.rb != h.dst) {
                ++a;
                continue;
            }
            std::size_t b = a + 1;
            while (b < end && df.code[b].op == Op::Add &&
                   df.code[b].dst == h.dst &&
                   df.code[b].ra == h.dst && df.code[b].rb == h.dst)
                ++b;
            if (b - a > 1) {
                if (fuseOn) {
                    ++fuseSites;
                    for (std::size_t p = a; p < b; ++p) {
                        df.code[p].op = opAddRun;
                        df.code[p].aux =
                            static_cast<std::int64_t>(b - p);
                    }
                } else {
                    df.code[a].op = opAddRun;
                    df.code[a].aux = static_cast<std::int64_t>(b - a);
                }
            }
            a = b;
        }

        // Superinstruction peephole (DESIGN.md §14): rewrite the head
        // of each matched sequence to its fused opcode; constituents
        // stay in place, keyed by their original opcodes, as resume
        // targets. Rules are tried longest-first so the 4-wide
        // address-compute chain beats its constituent pairs. Matching
        // is on opcodes alone — the fused handlers replicate the
        // constituent semantics from the constituents' own operand
        // fields, so no data-flow precondition is required.
        if (fuseOn) {
            struct FuseRule
            {
                Op fused;
                unsigned len;
                Op seq[4];
            };
            static const FuseRule rules[] = {
                {opFuseAddr4, 4,
                 {Op::PmoBase, Op::Const, Op::Mul, Op::Add}},
                {opFuseIncJump, 3,
                 {Op::Const, Op::Add, Op::Jump, Op::Nop}},
                {opFuseConstMul, 2,
                 {Op::Const, Op::Mul, Op::Nop, Op::Nop}},
                {opFuseMulAdd, 2,
                 {Op::Mul, Op::Add, Op::Nop, Op::Nop}},
                {opFuseConstAdd, 2,
                 {Op::Const, Op::Add, Op::Nop, Op::Nop}},
                {opFuseAddLoad, 2,
                 {Op::Add, Op::Load, Op::Nop, Op::Nop}},
                {opFuseAddStore, 2,
                 {Op::Add, Op::Store, Op::Nop, Op::Nop}},
                {opFuseDramAdd, 2,
                 {Op::DramBase, Op::Add, Op::Nop, Op::Nop}},
                {opFuseCmpltBr, 2,
                 {Op::CmpLt, Op::Branch, Op::Nop, Op::Nop}},
            };
            for (std::size_t a = start; a < end;) {
                const FuseRule *hit = nullptr;
                for (const FuseRule &r : rules) {
                    if (a + r.len > end)
                        continue;
                    bool m = true;
                    for (unsigned i = 0; i < r.len; ++i) {
                        if (df.code[a + i].op != r.seq[i]) {
                            m = false;
                            break;
                        }
                    }
                    if (m) {
                        hit = &r;
                        break;
                    }
                }
                if (hit) {
                    ++fuseSites;
                    df.code[a].op = hit->fused;
                    a += hit->len;
                } else {
                    ++a;
                }
            }
        }
    }
}

void
Interpreter::bindBlock(Frame &fr)
{
    const DFunc &df = dfuncs[fr.fn];
    const auto &span = df.blocks.at(fr.block);
    fr.code = df.code.data() + span.first;
    fr.codeLen = span.second;
}

std::uint64_t
Interpreter::storageKey(std::uint64_t addr) const
{
    if (addr >= pm::PmoManager::arenaBase &&
        addr < pm::PmoManager::arenaBase + pm::PmoManager::arenaSize) {
        const pm::Pmo *p = rt->pmoManager().findByVaddr(addr);
        if (p)
            return pm::Oid(p->id(), addr - p->vaddrBase()).raw;
    }
    return addr;
}

bool
Interpreter::memAccess(sim::ThreadContext &tc, std::uint64_t addr,
                       bool write)
{
    core::AccessOutcome o = core::AccessOutcome::Ok;
    if (addr >= pm::PmoManager::arenaBase &&
        addr < pm::PmoManager::arenaBase + pm::PmoManager::arenaSize) {
        // A raw virtual address — the shape attacker-injected
        // pointers take. Goes through the full matrix/MPK checks and
        // fails if the mapping moved or permissions are closed.
        o = rt->tryAccessVaddr(tc, addr, write);
    } else if (MemoryImage::isPmoPointer(addr)) {
        o = rt->tryAccess(tc, pm::Oid::fromRaw(addr), write);
    } else {
        mach->access(tc, sim::MemAccess{
                             MemoryImage::dramVirtBase + addr,
                             MemoryImage::dramPhysBase + addr, write,
                             sim::MemKind::Dram});
        return true;
    }
    if (o != core::AccessOutcome::Ok) {
        ++nFaults;
        if (!trapFaults) {
            TERP_PANIC("IR program PMO access fault: ",
                       core::accessOutcomeName(o), " at ", addr);
        }
        return false;
    }
    return true;
}

bool
Interpreter::step(sim::ThreadContext &tc)
{
    if (doneFlag)
        return false;
    if (stack.empty()) {
        doneFlag = true;
        return false;
    }

    // Deferred instruction-time accounting. Pure ALU / control-flow
    // instructions only ever add n*cpi cycles of Work to the thread;
    // nothing observes the clock between two of them, so their
    // charges accumulate here and flush in one Machine::execute call
    // at the next observation point (memory access, region op, or
    // quantum end). With a dyadic cpi (the 0.5 of the 4-wide model)
    // every intermediate value is exactly representable, so
    // execute(a); execute(b) and execute(a+b) produce bit-identical
    // clocks and carries — verified against the per-instruction
    // charging by the bench oracles and the differential fuzzer.
    std::uint64_t pending = 0;
#define TERP_FLUSH()                                                   \
    do {                                                               \
        if (pending) {                                                 \
            mach->execute(tc, pending);                                \
            pending = 0;                                               \
        }                                                              \
    } while (0)

    // Hot interpreter state lives in locals: the top frame, program
    // counter, and the current block's code / register file pointers.
    // The executed-instruction count is derived from `budget` at the
    // exits (each dispatch runs one instruction to completion, bar a
    // blocked region entry). Locals are committed back to (or
    // reloaded from) the frame only when something could observe or
    // change them —
    // control transfers, blocking, quantum end. Register buffers
    // never move while their frame is live (Frame moves transfer the
    // heap allocation), so the cached pointers stay valid until
    // TERP_RELOAD() refreshes them after a frame or block switch.
    Frame *frp = &stack.back();
    std::size_t idx = frp->idx;
    std::uint64_t budget = 0;
    const DInstr *code = frp->code;
    std::uint64_t *regs = frp->regs.data();
    const DInstr *inp = nullptr;

#define TERP_RELOAD()                                                  \
    do {                                                               \
        code = frp->code;                                              \
        regs = frp->regs.data();                                       \
    } while (0)

    // Advance to the next constituent inside a fused handler. Mirrors
    // one TERP_NEXT + dispatch preamble: step the pc, and if the
    // quantum is exhausted exit through quantum_end — idx then points
    // at the next, not-yet-executed constituent, whose slot still
    // carries its *original* opcode, so the resumed step() re-enters
    // the sequence mid-way with exactly the unfused semantics. The
    // budget increment mirrors the one TERP_DISPATCH charges per
    // instruction.
#define TERP_FUSE_STEP()                                               \
    do {                                                               \
        ++idx;                                                         \
        ++inp;                                                         \
        if (budget == quantum)                                         \
            goto quantum_end;                                          \
        ++budget;                                                      \
    } while (0)

    // Threaded dispatch (GNU labels-as-values, which GCC and Clang
    // both support): each handler jumps straight to the next handler
    // through a per-site indirect branch, which predicts far better
    // on the long ALU runs of the synthetic kernels than one shared
    // switch branch.
    static const void *const jt[] = {
        &&op_Const, &&op_Mov, &&op_Add, &&op_Sub, &&op_Mul,
        &&op_Div, &&op_Rem, &&op_And, &&op_Or, &&op_Xor,
        &&op_Shl, &&op_Shr, &&op_CmpEq, &&op_CmpNe, &&op_CmpLt,
        &&op_CmpLe, &&op_Load, &&op_Store, &&op_PmoBase,
        &&op_DramBase, &&op_Jump, &&op_Branch, &&op_Ret, &&op_Call,
        &&op_CondAttach, &&op_CondDetach, &&op_ManualAttach,
        &&op_ManualDetach, &&op_Nop, &&op_AddRun,
        &&op_FuseAddr4, &&op_FuseIncJump, &&op_FuseConstMul,
        &&op_FuseMulAdd, &&op_FuseConstAdd, &&op_FuseAddLoad,
        &&op_FuseAddStore, &&op_FuseDramAdd, &&op_FuseCmpltBr,
    };
    static_assert(sizeof(jt) / sizeof(jt[0]) ==
                      static_cast<unsigned>(opFuseCmpltBr) + 1,
                  "jump table must cover every opcode");

#define TERP_CASE(name) op_##name:
#define TERP_DISPATCH()                                                \
    do {                                                               \
        if (budget == quantum)                                         \
            goto quantum_end;                                          \
        ++budget;                                                      \
        inp = &code[idx];                                              \
        goto *jt[static_cast<unsigned>(inp->op)];                      \
    } while (0)
#define TERP_NEXT()                                                    \
    do {                                                               \
        ++idx;                                                         \
        TERP_DISPATCH();                                               \
    } while (0)

    TERP_DISPATCH();

    // Decode rewrote noReg operands to the phantom zero register, so
    // operand reads index regs[] unconditionally.
    TERP_CASE(Const)
    {
        regs[inp->dst] = static_cast<std::uint64_t>(inp->aux);
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Mov)
    {
        regs[inp->dst] = regs[inp->ra];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Add)
    {
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Sub)
    {
        regs[inp->dst] = regs[inp->ra] - regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Mul)
    {
        regs[inp->dst] = regs[inp->ra] * regs[inp->rb];
        pending += 3;
        TERP_NEXT();
    }
    TERP_CASE(Div)
    {
        regs[inp->dst] =
            regs[inp->rb] ? regs[inp->ra] / regs[inp->rb] : 0;
        pending += 10;
        TERP_NEXT();
    }
    TERP_CASE(Rem)
    {
        regs[inp->dst] =
            regs[inp->rb] ? regs[inp->ra] % regs[inp->rb] : 0;
        pending += 10;
        TERP_NEXT();
    }
    TERP_CASE(And)
    {
        regs[inp->dst] = regs[inp->ra] & regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Or)
    {
        regs[inp->dst] = regs[inp->ra] | regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Xor)
    {
        regs[inp->dst] = regs[inp->ra] ^ regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Shl)
    {
        regs[inp->dst] = regs[inp->ra] << (regs[inp->rb] & 63);
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Shr)
    {
        regs[inp->dst] = regs[inp->ra] >> (regs[inp->rb] & 63);
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(CmpEq)
    {
        regs[inp->dst] = regs[inp->ra] == regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(CmpNe)
    {
        regs[inp->dst] = regs[inp->ra] != regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(CmpLt)
    {
        regs[inp->dst] = regs[inp->ra] < regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(CmpLe)
    {
        regs[inp->dst] = regs[inp->ra] <= regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Load)
    {
        std::uint64_t addr = regs[inp->ra];
        TERP_FLUSH(); // fault emits carry tc.now() timestamps
        bool ok = memAccess(tc, addr, false);
        regs[inp->dst] = ok ? mem->peek(storageKey(addr)) : 0;
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Store)
    {
        std::uint64_t addr = regs[inp->ra];
        TERP_FLUSH();
        bool ok = memAccess(tc, addr, true);
        if (ok)
            mem->poke(storageKey(addr), regs[inp->rb]);
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(PmoBase)
    {
        regs[inp->dst] =
            pm::Oid(inp->ra,
                    static_cast<std::uint64_t>(inp->aux)).raw;
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(DramBase)
    {
        regs[inp->dst] = static_cast<std::uint64_t>(inp->aux);
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(Jump)
    {
        frp->block = static_cast<BlockId>(inp->aux);
        idx = 0;
        bindBlock(*frp);
        TERP_RELOAD();
        pending += 1;
        TERP_DISPATCH();
    }
    TERP_CASE(Branch)
    {
        const auto packed = static_cast<std::uint64_t>(inp->aux);
        frp->block = regs[inp->ra]
                         ? static_cast<BlockId>(packed)
                         : static_cast<BlockId>(packed >> 32);
        idx = 0;
        bindBlock(*frp);
        TERP_RELOAD();
        pending += 1;
        TERP_DISPATCH();
    }
    TERP_CASE(Ret)
    {
        std::uint64_t rv = regs[inp->ra];
        Reg dst = frp->retDst;
        stack.pop_back();
        pending += 1;
        if (stack.empty()) {
            retValue = rv;
            doneFlag = true;
            nExec += budget; // every dispatched instr completed
            TERP_FLUSH();
            return false;
        }
        frp = &stack.back();
        idx = frp->idx; // resume after the Call
        TERP_RELOAD();
        if (dst != noReg)
            regs[dst] = rv;
        TERP_DISPATCH();
    }
    TERP_CASE(Call)
    {
        Frame nf;
        nf.fn = inp->ra;
        nf.regs.assign(dfuncs[inp->ra].nRegs + 1, 0);
        const Reg *cargs =
            dfuncs[frp->fn].callArgs.data() + inp->rb;
        for (std::uint16_t a = 0; a < inp->nArgs; ++a)
            nf.regs[a] = regs[cargs[a]];
        nf.retDst = inp->dst;
        frp->idx = idx + 1; // return to the next instruction
        bindBlock(nf);
        pending += 2;
        stack.push_back(std::move(nf));
        frp = &stack.back();
        idx = 0;
        TERP_RELOAD();
        TERP_DISPATCH();
    }
    TERP_CASE(CondAttach)
    {
        TERP_FLUSH(); // region ops read and stamp tc.now()
        core::GuardResult r =
            rt->regionBegin(tc, inp->ra, inp->mode);
        if (r == core::GuardResult::Blocked) {
            // Retry this instruction when the thread is woken.
            frp->idx = idx;
            nExec += budget - 1; // this instruction did not execute
            return true;
        }
        TERP_NEXT();
    }
    TERP_CASE(CondDetach)
    {
        TERP_FLUSH();
        rt->regionEnd(tc, inp->ra);
        TERP_NEXT();
    }
    TERP_CASE(ManualAttach)
    {
        TERP_FLUSH();
        rt->manualBegin(tc, inp->ra, inp->mode);
        TERP_NEXT();
    }
    TERP_CASE(ManualDetach)
    {
        TERP_FLUSH();
        rt->manualEnd(tc, inp->ra);
        TERP_NEXT();
    }
    TERP_CASE(Nop)
    {
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(AddRun)
    {
        // Head of a fused self-add run (see opAddRun): k doublings of
        // regs[dst] are one shift. The dispatch already counted one
        // instruction toward the quantum; extend by the rest of the
        // run or the remaining quantum, whichever is smaller, so the
        // step still executes exactly `quantum` instructions.
        std::uint64_t t = static_cast<std::uint64_t>(inp->aux);
        const std::uint64_t room = quantum - budget;
        if (t - 1 > room)
            t = room + 1;
        regs[inp->dst] = t < 64 ? regs[inp->dst] << t : 0;
        pending += t;
        budget += t - 1;
        idx += t;
        ++fuseHits[0];
        TERP_DISPATCH();
    }

    // ---- fused superinstructions (DESIGN.md §14) --------------------
    // Each handler is the literal concatenation of its constituent
    // handler bodies with TERP_FUSE_STEP() between them: identical
    // register writes, identical `pending` charges, identical flush
    // points, identical quantum/fault behaviour — only the dispatch
    // overhead between constituents is gone.
    TERP_CASE(FuseAddr4) // PmoBase; Const; Mul; Add (pmoAddr chain)
    {
        ++fuseHits[1];
        regs[inp->dst] =
            pm::Oid(inp->ra,
                    static_cast<std::uint64_t>(inp->aux)).raw;
        pending += 1;
        TERP_FUSE_STEP();
        regs[inp->dst] = static_cast<std::uint64_t>(inp->aux);
        pending += 1;
        TERP_FUSE_STEP();
        regs[inp->dst] = regs[inp->ra] * regs[inp->rb];
        pending += 3;
        TERP_FUSE_STEP();
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(FuseIncJump) // Const; Add; Jump (loop latch)
    {
        ++fuseHits[2];
        regs[inp->dst] = static_cast<std::uint64_t>(inp->aux);
        pending += 1;
        TERP_FUSE_STEP();
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_FUSE_STEP();
        frp->block = static_cast<BlockId>(inp->aux);
        idx = 0;
        bindBlock(*frp);
        TERP_RELOAD();
        pending += 1;
        TERP_DISPATCH();
    }
    TERP_CASE(FuseConstMul)
    {
        ++fuseHits[3];
        regs[inp->dst] = static_cast<std::uint64_t>(inp->aux);
        pending += 1;
        TERP_FUSE_STEP();
        regs[inp->dst] = regs[inp->ra] * regs[inp->rb];
        pending += 3;
        TERP_NEXT();
    }
    TERP_CASE(FuseMulAdd)
    {
        ++fuseHits[4];
        regs[inp->dst] = regs[inp->ra] * regs[inp->rb];
        pending += 3;
        TERP_FUSE_STEP();
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(FuseConstAdd)
    {
        ++fuseHits[5];
        regs[inp->dst] = static_cast<std::uint64_t>(inp->aux);
        pending += 1;
        TERP_FUSE_STEP();
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(FuseAddLoad)
    {
        ++fuseHits[6];
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_FUSE_STEP();
        {
            std::uint64_t addr = regs[inp->ra];
            TERP_FLUSH();
            bool ok = memAccess(tc, addr, false);
            regs[inp->dst] = ok ? mem->peek(storageKey(addr)) : 0;
            pending += 1;
        }
        TERP_NEXT();
    }
    TERP_CASE(FuseAddStore)
    {
        ++fuseHits[7];
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_FUSE_STEP();
        {
            std::uint64_t addr = regs[inp->ra];
            TERP_FLUSH();
            bool ok = memAccess(tc, addr, true);
            if (ok)
                mem->poke(storageKey(addr), regs[inp->rb]);
            pending += 1;
        }
        TERP_NEXT();
    }
    TERP_CASE(FuseDramAdd)
    {
        ++fuseHits[8];
        regs[inp->dst] = static_cast<std::uint64_t>(inp->aux);
        pending += 1;
        TERP_FUSE_STEP();
        regs[inp->dst] = regs[inp->ra] + regs[inp->rb];
        pending += 1;
        TERP_NEXT();
    }
    TERP_CASE(FuseCmpltBr) // CmpLt; Branch (loop header)
    {
        ++fuseHits[9];
        regs[inp->dst] = regs[inp->ra] < regs[inp->rb];
        pending += 1;
        TERP_FUSE_STEP();
        {
            const auto packed = static_cast<std::uint64_t>(inp->aux);
            frp->block = regs[inp->ra]
                             ? static_cast<BlockId>(packed)
                             : static_cast<BlockId>(packed >> 32);
        }
        idx = 0;
        bindBlock(*frp);
        TERP_RELOAD();
        pending += 1;
        TERP_DISPATCH();
    }

quantum_end:
    frp->idx = idx;
    nExec += budget;
    TERP_FLUSH();
    return true;

#undef TERP_FLUSH
#undef TERP_RELOAD
#undef TERP_FUSE_STEP
#undef TERP_CASE
#undef TERP_DISPATCH
#undef TERP_NEXT
}

} // namespace compiler
} // namespace terp
