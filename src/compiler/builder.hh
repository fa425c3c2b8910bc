/**
 * @file
 * Structured construction of IR functions.
 *
 * The builder keeps an insertion point and offers both raw block
 * wiring (for irregular CFGs in tests) and structured helpers
 * (if/else, bounded and unbounded loops) that record loop trip
 * metadata for the LET estimator. Workload surrogates (SPEC kernels,
 * the data-only-attack FTP example) are written against this API.
 */

#ifndef TERP_COMPILER_BUILDER_HH
#define TERP_COMPILER_BUILDER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "compiler/ir.hh"

namespace terp {
namespace compiler {

/** Builds one function inside a module. */
class FunctionBuilder
{
  public:
    /**
     * Start a new function; registers 0..n_params-1 hold arguments.
     */
    FunctionBuilder(Module &mod, const std::string &name,
                    std::uint32_t n_params = 0);

    /** Finish: validate and return the function's index. */
    std::uint32_t finish();

    // ---- registers and simple instructions ---------------------------

    Reg newReg() { return func().nRegs++; }
    Reg param(std::uint32_t i) const;

    Reg constant(std::int64_t v);
    Reg arith(Op op, Reg a, Reg b);
    Reg add(Reg a, Reg b) { return arith(Op::Add, a, b); }
    Reg sub(Reg a, Reg b) { return arith(Op::Sub, a, b); }
    Reg mul(Reg a, Reg b) { return arith(Op::Mul, a, b); }
    Reg cmpLt(Reg a, Reg b) { return arith(Op::CmpLt, a, b); }
    Reg cmpEq(Reg a, Reg b) { return arith(Op::CmpEq, a, b); }

    /** Burn @p n arithmetic instructions (models plain compute). */
    void compute(std::uint64_t n);

    /** Pointer to offset @p off inside PMO @p pmo. */
    Reg pmoBase(pm::PmoId pmo, std::int64_t off = 0);

    /** Pointer to offset @p off of the DRAM arena. */
    Reg dramBase(std::int64_t off);

    Reg load(Reg addr);
    void store(Reg addr, Reg value);

    Reg call(std::uint32_t callee, const std::vector<Reg> &args = {});

    /** Explicit TERP constructs (the pass inserts these normally). */
    void condAttach(pm::PmoId pmo, pm::Mode mode = pm::Mode::ReadWrite);
    void condDetach(pm::PmoId pmo);

    /** MERR-style manual bookends (honored only by the MM scheme). */
    void manualAttach(pm::PmoId pmo,
                      pm::Mode mode = pm::Mode::ReadWrite);
    void manualDetach(pm::PmoId pmo);

    void ret(Reg value = noReg);

    // ---- raw control flow --------------------------------------------

    BlockId newBlock(const std::string &label = "");
    void setBlock(BlockId b) { cur = b; }
    void jump(BlockId target);
    void branch(Reg cond, BlockId if_true, BlockId if_false);

    // ---- structured control flow -------------------------------------

    using BodyFn = std::function<void()>;
    using LoopBodyFn = std::function<void(Reg /*induction*/)>;

    /** if (cond) { then_fn() } else { else_fn() }; else may be null. */
    void ifThenElse(Reg cond, const BodyFn &then_fn,
                    const BodyFn &else_fn = nullptr);

    /**
     * for (i = 0; i < trips; ++i) body(i). @p known_bound controls
     * whether the trip count is recorded for LET estimation.
     */
    void forLoop(std::uint64_t trips, const LoopBodyFn &body,
                 bool known_bound = true);

    Function &func() { return mod.functions[fidx]; }
    const Function &func() const { return mod.functions[fidx]; }

  private:
    Module &mod;
    std::uint32_t fidx;
    BlockId cur;
    bool finished = false;

    Instr &emit(Instr in);
};

} // namespace compiler
} // namespace terp

#endif // TERP_COMPILER_BUILDER_HH
