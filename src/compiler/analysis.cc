#include "compiler/analysis.hh"

#include <algorithm>

#include "common/logging.hh"

namespace terp {
namespace compiler {

// ----------------------------------------------------------- BlockSet

BlockSet::BlockSet(std::uint32_t n_, bool ones) : n(n_)
{
    w.assign((n + 63) / 64, ones ? ~0ULL : 0ULL);
    if (ones && n % 64 != 0 && !w.empty())
        w.back() &= (1ULL << (n % 64)) - 1;
}

void
BlockSet::set(std::uint32_t i)
{
    w[i / 64] |= 1ULL << (i % 64);
}

bool
BlockSet::test(std::uint32_t i) const
{
    return (w[i / 64] >> (i % 64)) & 1;
}

void
BlockSet::intersectWith(const BlockSet &o)
{
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] &= o.w[i];
}

std::uint32_t
BlockSet::count() const
{
    std::uint32_t c = 0;
    for (std::uint64_t word : w)
        c += static_cast<std::uint32_t>(__builtin_popcountll(word));
    return c;
}

// -------------------------------------------------------- instr costs

Cycles
instrCost(const Instr &in)
{
    switch (in.op) {
      case Op::Load:
      case Op::Store:
        // Conservative: assume an uncached NVM access (Table II), so
        // LET never underestimates the exposure a region creates.
        return latency::nvm;
      case Op::CondAttach:
      case Op::CondDetach:
        return latency::silentCond;
      case Op::Call:
        return 20; // call overhead; callee LET added by Analysis
      case Op::Div:
      case Op::Rem:
        return 10;
      default:
        return 1;
    }
}

// ------------------------------------------------------------ Analysis

Analysis::Analysis(const Function &f,
                   std::vector<std::uint64_t> block_pmo,
                   const std::map<std::uint32_t, Cycles> &call_let)
    : func(&f), pmoMask(std::move(block_pmo)), calleeLet(call_let),
      reach(f.blockCount())
{
    TERP_ASSERT(pmoMask.size() == f.blockCount(),
                "pmo mask size mismatch");
    computePreds();
    computeReach();
    computeDom();
    computePdom();
    computeLoops();
    computeCosts();
}

void
Analysis::computePreds()
{
    predecessors.assign(func->blockCount(), {});
    for (BlockId b = 0; b < func->blockCount(); ++b)
        for (BlockId s : func->successors(b))
            predecessors[s].push_back(b);
}

void
Analysis::computeReach()
{
    std::vector<BlockId> stack{0};
    reach.set(0);
    while (!stack.empty()) {
        BlockId b = stack.back();
        stack.pop_back();
        for (BlockId s : func->successors(b)) {
            if (!reach.test(s)) {
                reach.set(s);
                stack.push_back(s);
            }
        }
    }
}

void
Analysis::computeDom()
{
    const std::uint32_t n = func->blockCount();
    dom.assign(n, BlockSet(n, true));
    dom[0] = BlockSet(n);
    dom[0].set(0);

    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 1; b < n; ++b) {
            if (!reach.test(b))
                continue;
            BlockSet nd(n, true);
            bool any = false;
            for (BlockId p : predecessors[b]) {
                if (!reach.test(p))
                    continue;
                nd.intersectWith(dom[p]);
                any = true;
            }
            if (!any)
                nd = BlockSet(n);
            nd.set(b);
            if (!(nd == dom[b])) {
                dom[b] = nd;
                changed = true;
            }
        }
    }
}

void
Analysis::computePdom()
{
    const std::uint32_t n = func->blockCount();
    pdom.assign(n, BlockSet(n, true));
    for (BlockId b = 0; b < n; ++b) {
        if (func->successors(b).empty()) {
            pdom[b] = BlockSet(n);
            pdom[b].set(b);
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 0; b < n; ++b) {
            if (!reach.test(b) || func->successors(b).empty())
                continue;
            BlockSet np(n, true);
            for (BlockId s : func->successors(b))
                np.intersectWith(pdom[s]);
            np.set(b);
            if (!(np == pdom[b])) {
                pdom[b] = np;
                changed = true;
            }
        }
    }
}

void
Analysis::computeLoops()
{
    for (BlockId b = 0; b < func->blockCount(); ++b) {
        if (!reach.test(b))
            continue;
        for (BlockId s : func->successors(b)) {
            if (dom[b].test(s)) { // s dominates b: back edge b -> s
                backEdges.insert({b, s});
                loopHeaders.insert(s);
            }
        }
    }
}

void
Analysis::computeCosts()
{
    blockCost.assign(func->blockCount(), 0);
    for (BlockId b = 0; b < func->blockCount(); ++b) {
        Cycles c = 0;
        for (const Instr &in : func->block(b).instrs) {
            c += instrCost(in);
            if (in.op == Op::Call) {
                auto it = calleeLet.find(in.callee);
                if (it != calleeLet.end())
                    c += it->second;
            }
        }
        blockCost[b] = c;
    }
}

bool
Analysis::dominates(BlockId a, BlockId b) const
{
    return dom[b].test(a);
}

bool
Analysis::postdominates(BlockId a, BlockId b) const
{
    return pdom[b].test(a);
}

BlockId
Analysis::idom(BlockId b) const
{
    BlockId best = noBlock;
    std::uint32_t best_sz = 0;
    for (BlockId c = 0; c < func->blockCount(); ++c) {
        if (c == b || !dom[b].test(c))
            continue;
        std::uint32_t sz = dom[c].count();
        if (best == noBlock || sz > best_sz) {
            best = c;
            best_sz = sz;
        }
    }
    return best;
}

BlockId
Analysis::ipdom(BlockId b) const
{
    BlockId best = noBlock;
    std::uint32_t best_sz = 0;
    for (BlockId c = 0; c < func->blockCount(); ++c) {
        if (c == b || !pdom[b].test(c))
            continue;
        std::uint32_t sz = pdom[c].count();
        if (best == noBlock || sz > best_sz) {
            best = c;
            best_sz = sz;
        }
    }
    return best;
}

BlockId
Analysis::nearestCommonDominator(const std::vector<BlockId> &s) const
{
    TERP_ASSERT(!s.empty());
    BlockSet common = dom[s[0]];
    for (std::size_t i = 1; i < s.size(); ++i)
        common.intersectWith(dom[s[i]]);
    BlockId best = noBlock;
    std::uint32_t best_sz = 0;
    for (BlockId c = 0; c < func->blockCount(); ++c) {
        if (!common.test(c))
            continue;
        std::uint32_t sz = dom[c].count();
        if (best == noBlock || sz > best_sz) {
            best = c;
            best_sz = sz;
        }
    }
    return best;
}

BlockId
Analysis::nearestCommonPostdominator(
    const std::vector<BlockId> &s) const
{
    TERP_ASSERT(!s.empty());
    BlockSet common = pdom[s[0]];
    for (std::size_t i = 1; i < s.size(); ++i)
        common.intersectWith(pdom[s[i]]);
    BlockId best = noBlock;
    std::uint32_t best_sz = 0;
    for (BlockId c = 0; c < func->blockCount(); ++c) {
        if (!common.test(c))
            continue;
        std::uint32_t sz = pdom[c].count();
        if (best == noBlock || sz > best_sz) {
            best = c;
            best_sz = sz;
        }
    }
    return best;
}

bool
Analysis::isLoopHeader(BlockId b) const
{
    return loopHeaders.count(b) != 0;
}

bool
Analysis::isBackEdge(BlockId from, BlockId to) const
{
    return backEdges.count({from, to}) != 0;
}

std::uint64_t
Analysis::tripCount(BlockId header) const
{
    auto it = func->loopBound.find(header);
    return it == func->loopBound.end() ? assumedLoopTrips : it->second;
}

std::vector<BlockId>
Analysis::regionBlocks(BlockId h) const
{
    BlockId x = ipdom(h);
    std::vector<BlockId> out;
    for (BlockId b = 0; b < func->blockCount(); ++b) {
        if (!reach.test(b) || b == x)
            continue;
        if (!dom[b].test(h))
            continue;
        if (x != noBlock && !pdom[b].test(x))
            continue;
        out.push_back(b);
    }
    return out;
}

bool
Analysis::regionHasCall(BlockId h) const
{
    for (BlockId b : regionBlocks(h))
        for (const Instr &in : func->block(b).instrs)
            if (in.op == Op::Call)
                return true;
    return false;
}

Cycles
Analysis::blockLet(BlockId b) const
{
    return blockCost[b];
}

Cycles
Analysis::iterCost(BlockId h) const
{
    // Longest path from h through its loop body back to a latch,
    // following forward edges only; nested loop headers collapse.
    std::map<BlockId, Cycles> memo;
    // pathCost ends at back edges, which is exactly a latch-bounded
    // walk when started from the header with target noBlock but
    // constrained to the loop; approximate by walking until a back
    // edge to h is the only continuation.
    struct Walker
    {
        const Analysis &an;
        BlockId h;
        std::map<BlockId, Cycles> memo;
        std::set<BlockId> visiting;

        Cycles
        walk(BlockId b)
        {
            auto it = memo.find(b);
            if (it != memo.end())
                return it->second;
            if (visiting.count(b))
                return 0; // irreducible cycle: cut the path
            visiting.insert(b);

            Cycles c;
            Cycles best;
            if (b != h && an.isLoopHeader(b)) {
                c = an.loopCost(b);
                BlockId nxt = an.ipdom(b);
                best = c;
                if (nxt != noBlock && nxt != h &&
                    an.dominates(h, nxt)) {
                    best = c + walk(nxt);
                }
            } else {
                c = an.blockCost[b];
                best = c;
                for (BlockId s : an.func->successors(b)) {
                    if (s == h)
                        continue; // reached the latch edge
                    if (an.isBackEdge(b, s))
                        continue;
                    if (!an.dominates(h, s))
                        continue; // left the loop
                    best = std::max(best, c + walk(s));
                }
            }
            visiting.erase(b);
            memo[b] = best;
            return best;
        }
    };
    Walker w{*this, h, {}, {}};
    return w.walk(h);
}

Cycles
Analysis::loopCost(BlockId h) const
{
    return tripCount(h) * iterCost(h);
}

Cycles
Analysis::pathCost(BlockId b, BlockId to,
                   std::map<BlockId, Cycles> &memo) const
{
    if (b == to)
        return 0;
    auto it = memo.find(b);
    if (it != memo.end())
        return it->second;
    memo[b] = 0; // cycle guard

    Cycles best;
    if (isLoopHeader(b)) {
        Cycles c = loopCost(b);
        BlockId nxt = ipdom(b);
        best = c;
        if (nxt != noBlock)
            best = c + pathCost(nxt, to, memo);
    } else {
        Cycles c = blockCost[b];
        best = c;
        for (BlockId s : func->successors(b)) {
            if (isBackEdge(b, s))
                continue;
            best = std::max(best, c + pathCost(s, to, memo));
        }
    }
    memo[b] = best;
    return best;
}

Cycles
Analysis::letBetween(BlockId from, BlockId to) const
{
    std::map<BlockId, Cycles> memo;
    return pathCost(from, to, memo);
}

Cycles
Analysis::regionLet(BlockId h) const
{
    return letBetween(h, ipdom(h));
}

} // namespace compiler
} // namespace terp
