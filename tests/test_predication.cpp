/**
 * @file
 * Tests for PTX-style instruction predication (if-conversion): machine
 * semantics, merge-style dataflow, allocator soundness, and executor
 * accounting.
 */

#include <gtest/gtest.h>

#include "compiler/allocator.h"
#include "compiler/instances.h"
#include "ir/liveness.h"
#include "ir/parser.h"
#include "sim/baseline_exec.h"
#include "sim/machine.h"
#include "sim/simt.h"
#include "sim/sw_exec.h"

namespace rfh {
namespace {

TEST(Predication, MachineSkipsDisabledInstructions)
{
    Kernel k = parseKernelOrDie(R"(.kernel p
entry:
    mov R2, #5
    mov R1, #0
    @R1 mov R2, #9
    mov R1, #1
    @R1 mov R3, #7
    exit
)");
    WarpContext w;
    w.reset(0);
    while (!w.done)
        step(k, w);
    EXPECT_EQ(w.regs[2], 5u) << "disabled write must not land";
    EXPECT_EQ(w.regs[3], 7u) << "enabled write must land";
}

TEST(Predication, PredicatedStoreSuppressed)
{
    Kernel k = parseKernelOrDie(R"(.kernel ps
entry:
    mov R1, #0
    mov R2, #77
    @R1 st.global [R0+100], R2
    ld.global R3, [R0+100]
    exit
)");
    WarpContext w;
    w.reset(3);
    while (!w.done)
        step(k, w);
    EXPECT_NE(w.regs[3], 77u);
}

TEST(Predication, DefReadsOldValueInLiveness)
{
    Instruction in = makeALU(Opcode::IADD, 5, SrcOperand::makeReg(1),
                             SrcOperand::makeImm(1));
    in.pred = 2;
    RegSet uses = usedRegs(in);
    EXPECT_TRUE(uses.test(1));
    EXPECT_TRUE(uses.test(2));
    EXPECT_TRUE(uses.test(5)) << "merge semantics: dst is also a use";
}

TEST(Predication, ReachingDefsMergeNotKill)
{
    Kernel k = parseKernelOrDie(R"(.kernel rd
entry:
    mov R2, #5
    setlt R1, R0, #3
    @R1 mov R2, #9
    st.global [R0], R2
    exit
)");
    Cfg cfg(k);
    ReachingDefs rd(k, cfg);
    // The store's read of R2 sees both the unconditional and the
    // predicated definition.
    auto defs = rd.reachingDefs(3, 1);
    ASSERT_EQ(defs.size(), 2u);
    EXPECT_EQ(rd.defInstr(defs[0]), 0);
    EXPECT_EQ(rd.defInstr(defs[1]), 2);
}

TEST(Predication, InstancesGroupPredicatedDefWithPrior)
{
    Kernel k = parseKernelOrDie(R"(.kernel gi
entry:
    mov R2, #5
    setlt R1, R0, #3
    @R1 mov R2, #9
    iadd R3, R2, #1
    st.global [R0], R3
    exit
)");
    Cfg cfg(k);
    StrandAnalysis sa(k, cfg);
    ReachingDefs rd(k, cfg);
    InstanceAnalysis ia(k, cfg, sa, rd);
    // The two defs of R2 form one grouped instance (a one-instruction
    // hammock) whose merge read is servable from a shared entry.
    for (const auto &vi : ia.values()) {
        if (vi.reg == 2) {
            EXPECT_EQ(vi.defLins.size(), 2u);
            EXPECT_EQ(vi.uses.size(), 1u);
        }
    }
}

TEST(Predication, HierarchyExecutionVerifiesClean)
{
    // Divergent predicates across warps; the grouped ORF entry must
    // hold the architecturally-correct merged value either way.
    Kernel k = parseKernelOrDie(R"(.kernel hv
entry:
    mov R2, #5
    setlt R1, R0, #3
    @R1 iadd R2, R0, #9
    iadd R3, R2, #1
    @R1 iadd R3, R3, #2
    st.shared [R0], R3
    st.shared [R0+4], R2
    exit
)");
    for (bool lrf : {false, true}) {
        AllocOptions opts;
        opts.useLRF = lrf;
        opts.splitLRF = lrf;
        Kernel kk = k;
        HierarchyAllocator alloc(EnergyParams{}, opts);
        alloc.run(kk);
        RunConfig cfg;
        cfg.numWarps = 8;
        SwExecResult r = runSwHierarchy(kk, opts, cfg);
        EXPECT_TRUE(r.ok()) << r.error;
    }
}

TEST(Predication, DisabledWritesNotCounted)
{
    // A never-true predicate: the write must not be charged anywhere.
    Kernel k = parseKernelOrDie(R"(.kernel nc
entry:
    mov R1, #0
    @R1 iadd R2, R0, #1
    st.shared [R0], R0
    exit
)");
    RunConfig rc;
    rc.numWarps = 1;
    AccessCounts base = runBaseline(k, rc);
    // Writes: only the mov (the predicated iadd is squashed).
    EXPECT_EQ(base.allWrites(), 1u);
}

TEST(Predication, SimtLanesDivergeOnPredicate)
{
    // Lanes 0..2 take the predicated add; the rest keep the old value.
    Kernel k = parseKernelOrDie(R"(.kernel sd
entry:
    mov R2, #5
    setlt R1, R0, #3
    @R1 iadd R2, R2, #10
    st.global [R0], R2
    exit
)");
    Cfg cfg(k);
    SimtWarp warp(k, cfg, 0, 8);
    while (!warp.done())
        warp.step();
    for (int l = 0; l < 8; l++)
        EXPECT_EQ(warp.laneRegs(l)[2], l < 3 ? 15u : 5u) << l;
    // Predication needs no reconvergence stack activity.
    EXPECT_EQ(warp.divergences(), 0u);
}

TEST(Predication, PredicatedLongLatencyStaysSound)
{
    Kernel k = parseKernelOrDie(R"(.kernel pll
entry:
    setlt R1, R0, #4
    @R1 ld.global R2, [R0]
    iadd R3, R2, #1
    st.shared [R0], R3
    exit
)");
    AllocOptions opts;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    Kernel kk = k;
    alloc.run(kk);
    RunConfig cfg;
    cfg.numWarps = 8;  // some warps load, some do not
    SwExecResult r = runSwHierarchy(kk, opts, cfg);
    EXPECT_TRUE(r.ok()) << r.error;
}

} // namespace
} // namespace rfh
