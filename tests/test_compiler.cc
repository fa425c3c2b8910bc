/**
 * @file
 * Unit tests for the compiler substrate: IR structure, builder,
 * CFG analysis (dominators, post-dominators, loops, regions) and the
 * LET estimator.
 */

#include <gtest/gtest.h>

#include "compiler/analysis.hh"
#include "compiler/builder.hh"
#include "compiler/ir.hh"
#include "compiler/pmo_analysis.hh"

using namespace terp;
using namespace terp::compiler;

namespace {

/** Analysis over a function with no PMO facts. */
Analysis
analyze(const Function &f)
{
    return Analysis(f, std::vector<std::uint64_t>(f.blockCount(), 0));
}

} // namespace

// ------------------------------------------------------------ builder

TEST(Builder, StraightLineFunction)
{
    Module m;
    FunctionBuilder b(m, "f", 2);
    Reg s = b.add(b.param(0), b.param(1));
    b.ret(s);
    b.finish();
    const Function &f = m.function(0);
    EXPECT_EQ(f.blockCount(), 1u);
    EXPECT_TRUE(f.block(0).terminated());
    EXPECT_EQ(f.successors(0).size(), 0u);
}

TEST(Builder, IfThenElseShape)
{
    Module m;
    FunctionBuilder b(m, "f", 1);
    Reg c = b.cmpLt(b.param(0), b.constant(10));
    b.ifThenElse(
        c, [&]() { b.compute(3); }, [&]() { b.compute(5); });
    b.ret();
    b.finish();
    const Function &f = m.function(0);
    // entry, then, else, join.
    EXPECT_EQ(f.blockCount(), 4u);
    EXPECT_EQ(f.successors(0).size(), 2u);
}

TEST(Builder, ForLoopRecordsTripCount)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.forLoop(17, [&](Reg) { b.compute(2); });
    b.ret();
    b.finish();
    const Function &f = m.function(0);
    ASSERT_EQ(f.loopBound.size(), 1u);
    EXPECT_EQ(f.loopBound.begin()->second, 17u);
}

TEST(Builder, UnknownBoundLoopOmitsMetadata)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.forLoop(9, [&](Reg) { b.compute(1); }, /*known_bound=*/false);
    b.ret();
    b.finish();
    EXPECT_TRUE(m.function(0).loopBound.empty());
}

TEST(Builder, EmitAfterTerminatorPanics)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.ret();
    EXPECT_THROW(b.constant(1), std::logic_error);
}

TEST(Builder, DumpContainsStructure)
{
    Module m;
    FunctionBuilder b(m, "myfunc", 0);
    b.condAttach(3);
    b.store(b.pmoBase(3, 64), b.constant(1));
    b.condDetach(3);
    b.ret();
    b.finish();
    std::string d = m.dump();
    EXPECT_NE(d.find("@myfunc"), std::string::npos);
    EXPECT_NE(d.find("condat"), std::string::npos);
    EXPECT_NE(d.find("pmo3"), std::string::npos);
}

TEST(Ir, ValidateCatchesUnterminatedBlock)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.compute(1); // no terminator
    EXPECT_THROW(b.finish(), std::logic_error);
}

// ----------------------------------------------------------- dominators

TEST(Analysis, DiamondDominators)
{
    Module m;
    FunctionBuilder b(m, "f", 1);
    b.ifThenElse(
        b.param(0), [&]() { b.compute(1); },
        [&]() { b.compute(1); });
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(0));

    BlockId entry = 0, then_b = 1, else_b = 2, join = 3;
    EXPECT_TRUE(an.dominates(entry, join));
    EXPECT_FALSE(an.dominates(then_b, join));
    EXPECT_TRUE(an.postdominates(join, entry));
    EXPECT_FALSE(an.postdominates(then_b, entry));
    EXPECT_EQ(an.idom(join), entry);
    EXPECT_EQ(an.ipdom(entry), join);
    EXPECT_EQ(an.idom(then_b), entry);
    EXPECT_EQ(an.ipdom(then_b), join);
    EXPECT_EQ(an.idom(else_b), entry);
    EXPECT_EQ(an.ipdom(else_b), join);
    EXPECT_EQ(an.idom(entry), noBlock);
}

TEST(Analysis, NearestCommonDominatorOfBranches)
{
    Module m;
    FunctionBuilder b(m, "f", 1);
    b.ifThenElse(
        b.param(0), [&]() { b.compute(1); },
        [&]() { b.compute(1); });
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(0));
    EXPECT_EQ(an.nearestCommonDominator({1, 2}), 0u);
    EXPECT_EQ(an.nearestCommonPostdominator({1, 2}), 3u);
    EXPECT_EQ(an.nearestCommonDominator({1}), 1u);
}

TEST(Analysis, LoopDetection)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.forLoop(10, [&](Reg) { b.compute(2); });
    b.ret();
    b.finish();
    const Function &f = m.function(0);
    Analysis an = analyze(f);

    unsigned headers = 0;
    for (BlockId bb = 0; bb < f.blockCount(); ++bb)
        if (an.isLoopHeader(bb))
            ++headers;
    EXPECT_EQ(headers, 1u);
}

TEST(Analysis, TripCountFallsBackTo1000)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.forLoop(10, [&](Reg) { b.compute(2); }, false);
    b.ret();
    b.finish();
    const Function &f = m.function(0);
    Analysis an = analyze(f);
    for (BlockId bb = 0; bb < f.blockCount(); ++bb) {
        if (an.isLoopHeader(bb)) {
            EXPECT_EQ(an.tripCount(bb), assumedLoopTrips);
        }
    }
}

TEST(Analysis, UnreachableBlocksExcluded)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    BlockId dead = b.newBlock("dead");
    b.ret();
    b.setBlock(dead);
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(0));
    EXPECT_TRUE(an.reachable(0));
    EXPECT_FALSE(an.reachable(dead));
}

// ------------------------------------------------------------------ LET

TEST(Let, StraightLineSumsInstructionCosts)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.compute(10); // 10 x 1-cycle arithmetic
    b.ret();       // 1 cycle
    b.finish();
    Analysis an = analyze(m.function(0));
    EXPECT_EQ(an.blockLet(0), 11u);
    EXPECT_EQ(an.letBetween(0, noBlock), 11u);
}

TEST(Let, MemoryOpsAreConservativelyNvm)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    Reg p = b.dramBase(0);
    b.load(p);
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(0));
    // drambase(1) + load(nvm) + ret(1)
    EXPECT_EQ(an.blockLet(0), 2 + latency::nvm);
}

TEST(Let, BranchTakesLongestPath)
{
    Module m;
    FunctionBuilder b(m, "f", 1);
    b.ifThenElse(
        b.param(0), [&]() { b.compute(5); },
        [&]() { b.compute(50); });
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(0));
    Cycles let = an.letBetween(0, noBlock);
    // Must reflect the 50-instruction arm, not the 5-instruction one.
    EXPECT_GE(let, 50u);
    EXPECT_LT(let, 70u);
}

TEST(Let, KnownLoopMultipliesByTripCount)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.forLoop(10, [&](Reg) { b.compute(20); });
    b.ret();
    b.finish();
    const Function &f = m.function(0);
    Analysis an = analyze(f);
    Cycles let = an.letBetween(0, noBlock);
    EXPECT_GE(let, 10 * 20u);
    EXPECT_LE(let, 10 * 40u + 20);
}

TEST(Let, UnknownLoopAssumes1000Trips)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.forLoop(10, [&](Reg) { b.compute(20); }, false);
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(0));
    EXPECT_GE(an.letBetween(0, noBlock), 1000 * 20u);
}

TEST(Let, NestedLoopsMultiply)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.forLoop(10, [&](Reg) {
        b.forLoop(10, [&](Reg) { b.compute(5); });
    });
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(0));
    Cycles let = an.letBetween(0, noBlock);
    EXPECT_GE(let, 100 * 5u);
}

TEST(Let, CalleeCostsPropagate)
{
    Module m;
    std::uint32_t leaf_idx;
    {
        FunctionBuilder leaf(m, "leaf", 0);
        leaf.compute(500);
        leaf.ret();
        leaf_idx = leaf.finish();
    }
    FunctionBuilder b(m, "caller", 0);
    b.call(leaf_idx);
    b.ret();
    b.finish();

    std::map<std::uint32_t, Cycles> lets;
    {
        Analysis leaf_an(m.function(leaf_idx),
                         std::vector<std::uint64_t>(
                             m.function(leaf_idx).blockCount(), 0));
        lets[leaf_idx] = leaf_an.letBetween(0, noBlock);
    }
    Analysis an(m.function(1),
                std::vector<std::uint64_t>(
                    m.function(1).blockCount(), 0),
                lets);
    EXPECT_GE(an.letBetween(0, noBlock), 500u);
}

// --------------------------------------------------------------- regions

TEST(Regions, LoopFormsARegion)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    b.compute(2);
    b.forLoop(10, [&](Reg) { b.compute(3); });
    b.ret();
    b.finish();
    const Function &f = m.function(0);
    Analysis an = analyze(f);
    for (BlockId bb = 0; bb < f.blockCount(); ++bb) {
        if (!an.isLoopHeader(bb))
            continue;
        auto blocks = an.regionBlocks(bb);
        // Header + body (+latch merged into body block).
        EXPECT_GE(blocks.size(), 2u);
        EXPECT_EQ(an.regionLet(bb), an.letBetween(bb, an.ipdom(bb)));
    }
}

TEST(Regions, RegionHasCallDetection)
{
    Module m;
    std::uint32_t leaf;
    {
        FunctionBuilder lb(m, "leaf", 0);
        lb.ret();
        leaf = lb.finish();
    }
    FunctionBuilder b(m, "f", 0);
    b.call(leaf);
    b.ret();
    b.finish();
    Analysis an = analyze(m.function(1));
    EXPECT_TRUE(an.regionHasCall(0));
}

// ------------------------------------------------------ pointer analysis

TEST(PmoAnalysis, BasePointerAndArithmetic)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    Reg base = b.pmoBase(3, 0);
    Reg off = b.constant(64);
    Reg addr = b.add(base, off);
    b.load(addr);
    b.ret();
    b.finish();
    PmoFacts facts = PmoFacts::analyze(m);
    EXPECT_EQ(facts.regMask(0, base), pmoBit(3));
    EXPECT_EQ(facts.regMask(0, off), 0u);
    EXPECT_EQ(facts.regMask(0, addr), pmoBit(3));
    EXPECT_EQ(facts.blockMask(0, 0), pmoBit(3));
}

TEST(PmoAnalysis, LoadedPointersStayInPool)
{
    // Values loaded from PMO p may point into p (no inter-PMO
    // pointers assumption).
    Module m;
    FunctionBuilder b(m, "f", 0);
    Reg head = b.load(b.pmoBase(4, 0));
    b.load(head); // chase the pointer
    b.ret();
    b.finish();
    PmoFacts facts = PmoFacts::analyze(m);
    EXPECT_EQ(facts.regMask(0, head), pmoBit(4));
}

TEST(PmoAnalysis, DramPointersAreClean)
{
    Module m;
    FunctionBuilder b(m, "f", 0);
    Reg d = b.dramBase(0x100);
    Reg v = b.load(d);
    b.ret();
    b.finish();
    PmoFacts facts = PmoFacts::analyze(m);
    EXPECT_EQ(facts.regMask(0, d), 0u);
    EXPECT_EQ(facts.regMask(0, v), 0u);
    EXPECT_EQ(facts.blockMask(0, 0), 0u);
}

TEST(PmoAnalysis, FlowsThroughCallsAndReturns)
{
    Module m;
    std::uint32_t callee_idx;
    {
        FunctionBuilder cb(m, "callee", 1);
        // Returns its pointer argument advanced by 8.
        cb.ret(cb.add(cb.param(0), cb.constant(8)));
        callee_idx = cb.finish();
    }
    FunctionBuilder b(m, "caller", 0);
    Reg p = b.pmoBase(5, 0);
    Reg q = b.call(callee_idx, {p});
    b.store(q, b.constant(1));
    b.ret();
    b.finish();
    PmoFacts facts = PmoFacts::analyze(m);
    EXPECT_EQ(facts.regMask(1, q), pmoBit(5));
    // The callee's parameter and return also carry the mask.
    EXPECT_EQ(facts.regMask(callee_idx, 0), pmoBit(5));
}

TEST(PmoAnalysis, MultiplePoolsUnion)
{
    Module m;
    FunctionBuilder b(m, "f", 1);
    Reg a = b.pmoBase(1, 0);
    Reg c = b.pmoBase(2, 0);
    // A select-like merge through arithmetic.
    Reg sel = b.add(a, b.mul(c, b.param(0)));
    b.load(sel);
    b.ret();
    b.finish();
    PmoFacts facts = PmoFacts::analyze(m);
    EXPECT_EQ(facts.regMask(0, sel), pmoBit(1) | pmoBit(2));
}
