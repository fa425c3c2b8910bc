/**
 * @file
 * Per-function CFG analysis: predecessors, reachability, dominators
 * and post-dominators (iterative bit-vector dataflow), natural-loop
 * detection, and the longest-execution-time (LET) estimator of
 * Section V-A, which assumes 1000 iterations for loops whose trip
 * count is statically unknown.
 */

#ifndef TERP_COMPILER_ANALYSIS_HH
#define TERP_COMPILER_ANALYSIS_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/units.hh"
#include "compiler/ir.hh"

namespace terp {
namespace compiler {

/** Dense bitset over block ids. */
class BlockSet
{
  public:
    explicit BlockSet(std::uint32_t n = 0, bool ones = false);

    void set(std::uint32_t i);
    bool test(std::uint32_t i) const;
    void intersectWith(const BlockSet &o);
    bool operator==(const BlockSet &o) const { return w == o.w; }
    std::uint32_t count() const;
    std::uint32_t size() const { return n; }

  private:
    std::uint32_t n;
    std::vector<std::uint64_t> w;
};

/** Trip count assumed for loops with unknown static bounds. */
constexpr std::uint64_t assumedLoopTrips = 1000;

/** Per-instruction LET costs (conservative cycles). */
Cycles instrCost(const Instr &in);

/** All derived facts about one function's CFG. */
class Analysis
{
  public:
    /**
     * @param f          The function (not owned; must outlive this).
     * @param block_pmo  Per-block mask of PMOs accessed (bit i =
     *                   PmoId i), from the module pointer analysis.
     * @param call_let   LET of each callee function (by index), used
     *                   to cost Call instructions.
     */
    Analysis(const Function &f,
             std::vector<std::uint64_t> block_pmo,
             const std::map<std::uint32_t, Cycles> &call_let = {});

    const Function &function() const { return *func; }

    // ---- CFG facts ----------------------------------------------------

    bool reachable(BlockId b) const { return reach.test(b); }

    // ---- dominance ------------------------------------------------------

    bool dominates(BlockId a, BlockId b) const;
    bool postdominates(BlockId a, BlockId b) const;

    /** Immediate dominator (noBlock for the entry). */
    BlockId idom(BlockId b) const;

    /** Immediate postdominator (noBlock if b ends the function). */
    BlockId ipdom(BlockId b) const;

    /** Nearest common dominator of a nonempty set. */
    BlockId nearestCommonDominator(const std::vector<BlockId> &s) const;

    /** Nearest common postdominator; noBlock = function end. */
    BlockId
    nearestCommonPostdominator(const std::vector<BlockId> &s) const;

    // ---- loops ----------------------------------------------------------

    bool isLoopHeader(BlockId b) const;
    bool isBackEdge(BlockId from, BlockId to) const;

    /** Trip count of a loop header (assumedLoopTrips if unknown). */
    std::uint64_t tripCount(BlockId header) const;

    // ---- regions (dominance-based, cf. Section V-A) ---------------------

    /**
     * The code region headed by @p h: blocks dominated by h and
     * postdominated by ipdom(h) (all dominated blocks when h has no
     * ipdom). h itself is included; the exit block is not.
     */
    std::vector<BlockId> regionBlocks(BlockId h) const;

    /** Does the region headed by h contain any Call instruction? */
    bool regionHasCall(BlockId h) const;

    // ---- LET -------------------------------------------------------------

    /** LET of one basic block's straight-line body. */
    Cycles blockLet(BlockId b) const;

    /**
     * Longest execution time from the entry of @p from to the entry
     * of @p to (noBlock = function end), collapsing inner loops via
     * their trip counts.
     */
    Cycles letBetween(BlockId from, BlockId to) const;

    /** LET of the region headed by h (entry of h to its exit). */
    Cycles regionLet(BlockId h) const;

    /** PMO mask of a single block. */
    std::uint64_t blockPmo(BlockId b) const { return pmoMask.at(b); }

  private:
    const Function *func;
    std::vector<std::uint64_t> pmoMask;
    std::map<std::uint32_t, Cycles> calleeLet;

    std::vector<std::vector<BlockId>> predecessors;
    BlockSet reach;
    std::vector<BlockSet> dom;  //!< dom[b] = dominators of b
    std::vector<BlockSet> pdom; //!< pdom[b] = postdominators of b
    std::set<BlockId> loopHeaders;
    std::set<std::pair<BlockId, BlockId>> backEdges;
    std::vector<Cycles> blockCost;

    void computePreds();
    void computeReach();
    void computeDom();
    void computePdom();
    void computeLoops();
    void computeCosts();

    /** Longest path helper; loop headers (except start) collapse. */
    Cycles pathCost(BlockId b, BlockId to,
                    std::map<BlockId, Cycles> &memo) const;

    /** One full execution of the loop headed by h. */
    Cycles loopCost(BlockId h) const;

    /** Longest single-iteration path from h back to a latch. */
    Cycles iterCost(BlockId h) const;
};

} // namespace compiler
} // namespace terp

#endif // TERP_COMPILER_ANALYSIS_HH
