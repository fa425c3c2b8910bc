/**
 * @file
 * IR interpreter bound to the timing simulator and the protection
 * runtime.
 *
 * Each simulated thread runs one Interpreter as its Job; all threads
 * of a program share one MemoryImage, whose words are keyed by
 * location-independent pointer values (ObjectIDs for PMO data, arena
 * offsets for DRAM), so PMO re-randomization is transparent to the
 * program — exactly the property relocatable PMO pointers give real
 * TERP programs.
 *
 * The interpreter is resumable: when a region entry blocks under the
 * basic-semantics ablation, the program counter stays put and the
 * instruction retries after the thread is woken.
 */

#ifndef TERP_COMPILER_INTERP_HH
#define TERP_COMPILER_INTERP_HH

#include <cstdint>
#include <vector>

#include "compiler/ir.hh"
#include "core/runtime.hh"
#include "pm/mem_image.hh"
#include "sim/machine.hh"

namespace terp {
namespace compiler {

/** Word-granularity memory shared by all threads of a program. */
using MemoryImage = pm::MemImage;

/** Executes one function (and its callees) on a simulated thread. */
class Interpreter : public sim::Job
{
  public:
    /**
     * @param m       The (instrumented) module. Not owned.
     * @param rt      Protection runtime handling TERP constructs.
     * @param mach    The machine charging instruction/memory time.
     * @param mem     Shared memory image.
     * @param entry   Index of the function to run.
     * @param args    Argument values (bound to registers 0..n-1).
     * @param quantum Instructions per scheduler step.
     */
    Interpreter(const Module &m, core::Runtime &rt,
                sim::Machine &mach, MemoryImage &mem,
                std::uint32_t entry,
                std::vector<std::uint64_t> args = {},
                std::uint64_t quantum = 256);

    bool step(sim::ThreadContext &tc) override;

    /**
     * When true, access faults (permission denials, segfaults from
     * stale attacker pointers) are recorded and the faulting
     * instruction is skipped instead of panicking. Used by the
     * security experiments; well-formed programs keep the default.
     */
    bool trapFaults = false;

    bool finished() const { return doneFlag; }
    std::uint64_t result() const { return retValue; }
    std::uint64_t instructionsExecuted() const { return nExec; }

    /** Faults observed (well-formed programs should have none). */
    std::uint64_t faultCount() const { return nFaults; }

    // ---- fusion effectiveness (host-side diagnostics) ---------------

    /** Fusion kinds the decoder can emit (add-run + peepholes). */
    static constexpr unsigned kFusionKinds = 10;

    /** Short label of fusion kind @p k (e.g. "addr4", "addrun"). */
    static const char *fusionKindName(unsigned k);

    /** Dispatches that entered the fused handler of kind @p k. */
    std::uint64_t fusedDispatches(unsigned k) const
    {
        return fuseHits[k];
    }

    /**
     * Decode-time sites matched by a fusion rule (counted only when
     * fusion is enabled; each run of self-adds counts once).
     */
    std::uint64_t fusionCandidates() const { return fuseSites; }

  private:
    /**
     * A decoded instruction: the hot subset of Instr packed into 32
     * bytes so the dispatch loop streams through cache lines instead
     * of hopping across 88-byte Instr records (whose std::vector
     * member also ruins locality). Field reuse: `ra` holds the PmoId
     * for PmoBase and the conditional/manual attach-detach ops, and
     * the callee index for Call; `rb` holds a Call's offset into
     * DFunc::callArgs; `aux` holds the immediate or the packed
     * branch targets (lo = taken / jump target, hi = fall-through).
     */
    struct DInstr
    {
        Op op = Op::Nop;
        std::uint16_t nArgs = 0; //!< Call argument count
        Reg dst = noReg;
        Reg ra = noReg;
        Reg rb = noReg;
        pm::Mode mode = pm::Mode::ReadWrite;
        std::int64_t aux = 0;
    };

    /**
     * Interpreter-private pseudo-op marking a run of k identical
     * self-adds (add d, d, d — the shape FunctionBuilder::compute
     * emits for busy work). k self-adds double d k times, i.e.
     * d <<= k (0 once k reaches 64), with the same per-instruction
     * charge sum, so the run executes in O(1) instead of k
     * dispatches. With fusion enabled (TERP_FUSE!=0) *every* member
     * of the run carries the pseudo-op with `aux` = the run length
     * remaining from that member, so a quantum boundary that splits
     * a run resumes into another O(1) dispatch instead of decaying
     * to one-add-per-dispatch for the rest of the run (the dominant
     * pair in the measured opcode-pair profile — 89% of dispatches —
     * was exactly that decay). Under TERP_FUSE=0 only the head is
     * rewritten, which is the pre-fusion behaviour.
     */
    static constexpr Op opAddRun =
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 1);

    /**
     * Fused superinstructions: decode-time peephole rewrites of the
     * dominant adjacent opcode sequences of the SPEC surrogates,
     * selected from a measured opcode-pair profile (DESIGN.md
     * §14). Only the head of a matched sequence is rewritten; the
     * constituents keep their original opcodes, so every mid-sequence
     * resume point (quantum boundary, fault) stays addressable and
     * the fused handler falls back to them by committing idx at the
     * split. Each fused handler replays the constituent handlers
     * verbatim — same register writes, same `pending` charges, same
     * flush points — so cycle accounting is bit-identical.
     */
    static constexpr Op opFuseAddr4 = // PmoBase; Const; Mul; Add
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 2);
    static constexpr Op opFuseIncJump = // Const; Add; Jump (latch)
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 3);
    static constexpr Op opFuseConstMul =
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 4);
    static constexpr Op opFuseMulAdd =
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 5);
    static constexpr Op opFuseConstAdd =
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 6);
    static constexpr Op opFuseAddLoad =
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 7);
    static constexpr Op opFuseAddStore =
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 8);
    static constexpr Op opFuseDramAdd =
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 9);
    static constexpr Op opFuseCmpltBr = // CmpLt; Branch (loop header)
        static_cast<Op>(static_cast<unsigned>(Op::Nop) + 10);

    /**
     * One function, decoded: all blocks concatenated. Frames carry
     * one extra "phantom zero" register at index nRegs; the decoder
     * rewrites every noReg *operand* to it, so the hot loop reads
     * regs[r] unconditionally instead of branching on the sentinel.
     * (noReg *destinations* — a Call whose result is dropped — keep
     * the sentinel and the explicit check on the Ret path.)
     */
    struct DFunc
    {
        std::vector<DInstr> code;
        /** (offset, length) into code, per block id. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks;
        std::vector<Reg> callArgs; //!< flattened Call argument lists
        std::uint32_t nRegs = 0;   //!< real registers (phantom extra)
    };

    struct Frame
    {
        std::uint32_t fn;
        BlockId block = 0;
        std::size_t idx = 0;
        std::vector<std::uint64_t> regs;
        Reg retDst = noReg;
        /**
         * Cached pointer to the current block's decoded instructions
         * (into dfuncs, which never changes during a run). Refreshed
         * by bindBlock() on every control transfer.
         */
        const DInstr *code = nullptr;
        std::size_t codeLen = 0;
    };

    /** Decode one module function into dfuncs[i]. */
    void decodeFunction(std::uint32_t i);

    /** Refresh fr.code/codeLen after fn/block changed. */
    void bindBlock(Frame &fr);

    const Module *mod;
    std::vector<DFunc> dfuncs; //!< decoded image of *mod
    core::Runtime *rt;
    sim::Machine *mach;
    MemoryImage *mem;
    std::uint64_t quantum;

    std::vector<Frame> stack;
    bool doneFlag = false;
    std::uint64_t retValue = 0;
    std::uint64_t nExec = 0;
    std::uint64_t nFaults = 0;
    std::uint64_t fuseHits[kFusionKinds] = {};
    std::uint64_t fuseSites = 0;

    /** Timed + checked access; false if it faulted (trapFaults). */
    bool memAccess(sim::ThreadContext &tc, std::uint64_t addr,
                   bool write);

    /** Backing-store key for a pointer (raw vaddrs -> ObjectIDs). */
    std::uint64_t storageKey(std::uint64_t addr) const;
};

} // namespace compiler
} // namespace terp

#endif // TERP_COMPILER_INTERP_HH
