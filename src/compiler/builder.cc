#include "compiler/builder.hh"

#include "common/logging.hh"

namespace terp {
namespace compiler {

FunctionBuilder::FunctionBuilder(Module &mod_, const std::string &name,
                                 std::uint32_t n_params)
    : mod(mod_)
{
    fidx = static_cast<std::uint32_t>(mod.functions.size());
    mod.functions.emplace_back();
    Function &f = func();
    f.name = name;
    f.nParams = n_params;
    f.nRegs = n_params;
    f.blocks.emplace_back();
    f.blocks[0].label = "entry";
    cur = 0;
}

std::uint32_t
FunctionBuilder::finish()
{
    TERP_ASSERT(!finished, "finish() called twice");
    finished = true;
    func().validate();
    return fidx;
}

Instr &
FunctionBuilder::emit(Instr in)
{
    BasicBlock &bb = func().block(cur);
    TERP_ASSERT(!bb.terminated(),
                "emitting into terminated block in ", func().name);
    bb.instrs.push_back(std::move(in));
    return bb.instrs.back();
}

Reg
FunctionBuilder::param(std::uint32_t i) const
{
    TERP_ASSERT(i < func().nParams, "bad param index");
    return i;
}

Reg
FunctionBuilder::constant(std::int64_t v)
{
    Reg d = newReg();
    Instr in;
    in.op = Op::Const;
    in.dst = d;
    in.imm = v;
    emit(in);
    return d;
}

Reg
FunctionBuilder::arith(Op op, Reg a, Reg b)
{
    Reg d = newReg();
    Instr in;
    in.op = op;
    in.dst = d;
    in.ra = a;
    in.rb = b;
    emit(in);
    return d;
}

void
FunctionBuilder::compute(std::uint64_t n)
{
    // A register self-add per unit of work keeps the block's
    // instruction count (and hence LET) proportional to n.
    if (n == 0)
        return;
    Reg d = constant(1);
    for (std::uint64_t i = 1; i < n; ++i) {
        Instr in;
        in.op = Op::Add;
        in.dst = d;
        in.ra = d;
        in.rb = d;
        emit(in);
    }
}

Reg
FunctionBuilder::pmoBase(pm::PmoId pmo, std::int64_t off)
{
    Reg d = newReg();
    Instr in;
    in.op = Op::PmoBase;
    in.dst = d;
    in.imm = off;
    in.pmo = pmo;
    emit(in);
    return d;
}

Reg
FunctionBuilder::dramBase(std::int64_t off)
{
    Reg d = newReg();
    Instr in;
    in.op = Op::DramBase;
    in.dst = d;
    in.imm = off;
    emit(in);
    return d;
}

Reg
FunctionBuilder::load(Reg addr)
{
    Reg d = newReg();
    Instr in;
    in.op = Op::Load;
    in.dst = d;
    in.ra = addr;
    emit(in);
    return d;
}

void
FunctionBuilder::store(Reg addr, Reg value)
{
    Instr in;
    in.op = Op::Store;
    in.ra = addr;
    in.rb = value;
    emit(in);
}

Reg
FunctionBuilder::call(std::uint32_t callee, const std::vector<Reg> &args)
{
    Reg d = newReg();
    Instr in;
    in.op = Op::Call;
    in.dst = d;
    in.callee = callee;
    in.args = args;
    emit(in);
    return d;
}

void
FunctionBuilder::condAttach(pm::PmoId pmo, pm::Mode mode)
{
    Instr in;
    in.op = Op::CondAttach;
    in.pmo = pmo;
    in.mode = mode;
    emit(in);
}

void
FunctionBuilder::condDetach(pm::PmoId pmo)
{
    Instr in;
    in.op = Op::CondDetach;
    in.pmo = pmo;
    emit(in);
}

void
FunctionBuilder::manualAttach(pm::PmoId pmo, pm::Mode mode)
{
    Instr in;
    in.op = Op::ManualAttach;
    in.pmo = pmo;
    in.mode = mode;
    emit(in);
}

void
FunctionBuilder::manualDetach(pm::PmoId pmo)
{
    Instr in;
    in.op = Op::ManualDetach;
    in.pmo = pmo;
    emit(in);
}

void
FunctionBuilder::ret(Reg value)
{
    Instr in;
    in.op = Op::Ret;
    in.ra = value;
    emit(in);
}

BlockId
FunctionBuilder::newBlock(const std::string &label)
{
    Function &f = func();
    f.blocks.emplace_back();
    f.blocks.back().label = label;
    return static_cast<BlockId>(f.blocks.size() - 1);
}

void
FunctionBuilder::jump(BlockId target)
{
    Instr in;
    in.op = Op::Jump;
    in.target[0] = target;
    emit(in);
}

void
FunctionBuilder::branch(Reg cond, BlockId if_true, BlockId if_false)
{
    Instr in;
    in.op = Op::Branch;
    in.ra = cond;
    in.target[0] = if_true;
    in.target[1] = if_false;
    emit(in);
}

void
FunctionBuilder::ifThenElse(Reg cond, const BodyFn &then_fn,
                            const BodyFn &else_fn)
{
    BlockId then_b = newBlock("then");
    BlockId else_b = else_fn ? newBlock("else") : noBlock;
    BlockId join_b = newBlock("join");

    branch(cond, then_b, else_fn ? else_b : join_b);

    setBlock(then_b);
    then_fn();
    if (!func().block(cur).terminated())
        jump(join_b);

    if (else_fn) {
        setBlock(else_b);
        else_fn();
        if (!func().block(cur).terminated())
            jump(join_b);
    }

    setBlock(join_b);
}

void
FunctionBuilder::forLoop(std::uint64_t trips, const LoopBodyFn &body,
                         bool known_bound)
{
    Reg idx = constant(0);
    Reg bound = constant(static_cast<std::int64_t>(trips));
    BlockId header = newBlock("loop.header");
    BlockId body_b = newBlock("loop.body");
    BlockId exit_b = newBlock("loop.exit");

    jump(header);
    setBlock(header);
    Reg c = cmpLt(idx, bound);
    branch(c, body_b, exit_b);

    setBlock(body_b);
    body(idx);
    // idx = idx + 1 (in-place so the header sees the update).
    Reg one = constant(1);
    Instr inc;
    inc.op = Op::Add;
    inc.dst = idx;
    inc.ra = idx;
    inc.rb = one;
    func().block(cur).instrs.push_back(inc);
    jump(header);

    if (known_bound)
        func().loopBound[header] = trips;
    setBlock(exit_b);
}

} // namespace compiler
} // namespace terp
