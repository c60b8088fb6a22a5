/**
 * @file
 * Unit tests for strand formation (Section 4.1), including the
 * Figure 5(a) and 5(b) scenarios.
 */

#include <gtest/gtest.h>

#include "compiler/strand.h"
#include "ir/parser.h"

namespace rfh {
namespace {

StrandAnalysis
analyze(Kernel &k, StrandOptions opts = {})
{
    Cfg cfg(k);
    StrandAnalysis sa(k, cfg, opts);
    sa.markEndOfStrand(k);
    return sa;
}

TEST(Strand, StraightLineNoLongLatencyIsOneStrand)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    StrandAnalysis sa = analyze(k);
    EXPECT_EQ(sa.numStrands(), 1);
    EXPECT_TRUE(k.instr(3).endOfStrand);
    EXPECT_FALSE(k.instr(0).endOfStrand);
}

TEST(Strand, LongLatencyConsumerEndsStrand)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    ld.global R1, [R0]
    iadd R2, R0, #1
    iadd R3, R1, #2
    exit
)");
    StrandAnalysis sa = analyze(k);
    // The consumer of R1 (lin 2) begins a new strand; the independent
    // iadd at lin 1 stays in the first strand.
    ASSERT_EQ(sa.numStrands(), 2);
    EXPECT_EQ(sa.strandOf(0), 0);
    EXPECT_EQ(sa.strandOf(1), 0);
    EXPECT_EQ(sa.strandOf(2), 1);
    EXPECT_EQ(sa.strand(0).endReason, StrandEndReason::LONG_LATENCY);
    EXPECT_TRUE(k.instr(1).endOfStrand);
}

TEST(Strand, OverwriteOfPendingDestAlsoEndsStrand)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    ld.global R1, [R0]
    iadd R1, R0, #1
    exit
)");
    StrandAnalysis sa = analyze(k);
    ASSERT_EQ(sa.numStrands(), 2);
    EXPECT_EQ(sa.strandOf(1), 1);
}

TEST(Strand, BackwardBranchEndsStrand)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    mov R1, #4
loop:
    isub R1, R1, #1
    setgt R2, R1, #0
    @R2 bra loop
out:
    exit
)");
    StrandAnalysis sa = analyze(k);
    // Strands: entry | loop body | exit.
    ASSERT_EQ(sa.numStrands(), 3);
    EXPECT_EQ(sa.strand(0).endReason, StrandEndReason::BACKWARD_TARGET);
    EXPECT_EQ(sa.strand(1).endReason, StrandEndReason::BACKWARD_BRANCH);
    // The backward branch carries the end-of-strand bit.
    EXPECT_TRUE(k.instr(3).endOfStrand);
}

TEST(Strand, DisablingBackwardCutsMergesLoop)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    mov R1, #4
loop:
    isub R1, R1, #1
    setgt R2, R1, #0
    @R2 bra loop
out:
    exit
)");
    // The never-flush model drops the backward-branch cuts.
    StrandOptions opts;
    opts.idealNoFlush = true;
    StrandAnalysis sa = analyze(k, opts);
    EXPECT_EQ(sa.numStrands(), 1);
    // ...and no transfer crosses, the back edge included.
    EXPECT_FALSE(sa.crosses(3, 1));
    EXPECT_TRUE(analyze(k, {}).crosses(3, 1));
}

TEST(Strand, Figure5aShape)
{
    // Figure 5(a): a load feeding a later read inside a loop nest
    // produces strand endpoints at the consumer, at backward branches,
    // and at backward-branch targets.
    Kernel k = parseKernelOrDie(R"(.kernel fig5a
bb1:
    ld.global R1, [R0]
    iadd R2, R1, #0
bb2:
    iadd R3, R2, #1
bb3:
    isub R3, R3, #1
    setgt R4, R3, #0
    @R4 bra bb3
bb4:
    setgt R5, R2, #0
    @R5 bra bb2
bb5:
    exit
)");
    StrandAnalysis sa = analyze(k);
    // Strand 1 ends before the read of R1; bb2 and bb3 are backward
    // targets; the loop-back branches end strands.
    EXPECT_GE(sa.numStrands(), 4);
    EXPECT_EQ(sa.strand(0).endReason, StrandEndReason::LONG_LATENCY);
    // bb3's start must open a strand (backward target).
    int bb3_start = k.blockStart(3);
    EXPECT_EQ(sa.strand(sa.strandOf(bb3_start)).firstLin, bb3_start);
}

TEST(Strand, Figure5bUncertainMergeCut)
{
    // Figure 5(b): a load on only one side of a hammock makes the
    // pending state at the merge uncertain; an endpoint is inserted at
    // the merge block.
    Kernel k = parseKernelOrDie(R"(.kernel fig5b
bb1:
    setlt R2, R0, #4
    @R2 bra bb4
bb3:
    ld.global R1, [R0]
bb4:
    iadd R3, R0, #1
    iadd R4, R1, #1
    exit
)");
    StrandAnalysis sa = analyze(k);
    int bb4_start = k.blockStart(2);
    // bb4 begins a strand due to the uncertain merge.
    EXPECT_EQ(sa.strand(sa.strandOf(bb4_start)).firstLin, bb4_start);
    bool merge_cut = false;
    for (const Strand &s : sa.strands())
        merge_cut |= s.endReason == StrandEndReason::MERGE_UNCERTAIN;
    EXPECT_TRUE(merge_cut);
}

TEST(Strand, Figure5bCutDisabledFallsBackToConsumer)
{
    Kernel k = parseKernelOrDie(R"(.kernel fig5b
bb1:
    setlt R2, R0, #4
    @R2 bra bb4
bb3:
    ld.global R1, [R0]
bb4:
    iadd R3, R0, #1
    iadd R4, R1, #1
    exit
)");
    StrandOptions opts;
    opts.cutAtUncertainMerge = false;
    StrandAnalysis sa = analyze(k, opts);
    // Without the merge rule the cut lands exactly before the consumer
    // of R1.
    int consumer = k.blockStart(2) + 1;
    EXPECT_EQ(sa.strand(sa.strandOf(consumer)).firstLin, consumer);
}

TEST(Strand, ConsistentMergeDoesNotCut)
{
    // Loads on BOTH sides of the hammock writing the same register:
    // the pending state agrees at the merge, so no extra endpoint.
    Kernel k = parseKernelOrDie(R"(.kernel sym
bb1:
    setlt R2, R0, #4
    @R2 bra bbe
bbt:
    ld.global R1, [R0]
    bra bbm
bbe:
    ld.global R1, [R0]
bbm:
    iadd R3, R0, #1
    iadd R4, R1, #1
    exit
)");
    StrandAnalysis sa = analyze(k);
    for (const Strand &s : sa.strands())
        EXPECT_NE(s.endReason, StrandEndReason::MERGE_UNCERTAIN);
    // The cut still happens before the consumer of R1.
    int consumer = k.blockStart(3) + 1;
    EXPECT_EQ(sa.strand(sa.strandOf(consumer)).firstLin, consumer);
}

TEST(Strand, MediumLatencyDoesNotCut)
{
    Kernel k = parseKernelOrDie(R"(.kernel m
entry:
    ld.shared R1, [R0]
    iadd R2, R1, #1
    sin R3, R2
    fadd R4, R3, R3
    exit
)");
    StrandAnalysis sa = analyze(k);
    EXPECT_EQ(sa.numStrands(), 1);
}

TEST(Strand, StrandsAreContiguousAndCoverKernel)
{
    Kernel k = parseKernelOrDie(R"(.kernel cover
entry:
    ld.global R1, [R0]
    iadd R2, R1, #1
loop:
    isub R2, R2, #1
    ld.global R3, [R0]
    iadd R4, R3, #1
    setgt R5, R2, #0
    @R5 bra loop
out:
    st.global [R0], R4
    exit
)");
    StrandAnalysis sa = analyze(k);
    int covered = 0;
    int prev_end = -1;
    for (const Strand &s : sa.strands()) {
        EXPECT_EQ(s.firstLin, prev_end + 1);
        prev_end = s.lastLin;
        covered += s.size();
        for (int lin = s.firstLin; lin <= s.lastLin; lin++)
            EXPECT_EQ(sa.strandOf(lin),
                      sa.strandOf(s.firstLin));
    }
    EXPECT_EQ(covered, k.numInstrs());
    EXPECT_EQ(prev_end, k.numInstrs() - 1);
}

TEST(Strand, EveryStrandEndCarriesTheBit)
{
    Kernel k = parseKernelOrDie(R"(.kernel bits
entry:
    ld.global R1, [R0]
    iadd R2, R1, #1
    st.global [R0], R2
    exit
)");
    StrandAnalysis sa = analyze(k);
    for (const Strand &s : sa.strands())
        EXPECT_TRUE(k.instr(s.lastLin).endOfStrand) << s.lastLin;
}

} // namespace
} // namespace rfh
