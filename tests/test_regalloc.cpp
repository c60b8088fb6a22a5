/**
 * @file
 * Tests for the linear-scan register pre-allocator: renaming within
 * the budget, spill insertion, functional equivalence, and interaction
 * with the hierarchy allocator.
 */

#include <gtest/gtest.h>

#include "compiler/allocator.h"
#include "compiler/regalloc.h"
#include "ir/parser.h"
#include "sim/machine.h"
#include "sim/sw_exec.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace rfh {
namespace {

/** Values stored to global memory (kernel outputs) after execution. */
std::vector<std::uint32_t>
globalOutputs(const Kernel &k, std::uint32_t warp_id = 1)
{
    WarpContext w;
    w.reset(warp_id);
    std::uint64_t steps = 0;
    std::vector<std::uint32_t> outs;
    while (!w.done && steps++ < (1u << 20)) {
        const Instruction &in = k.blocks[w.block].instrs[w.idx];
        if (in.op == Opcode::ST_GLOBAL) {
            if (in.srcs[1].isReg)
                outs.push_back(w.regs[in.srcs[1].reg]);
        }
        step(k, w);
    }
    EXPECT_TRUE(w.done);
    return outs;
}

TEST(RegAlloc, RenamesWithinBudget)
{
    Kernel k = parseKernelOrDie(R"(.kernel wide_names
entry:
    iadd R40, R0, #1
    iadd R41, R40, #2
    iadd R42, R41, #3
    st.global [R0], R42
    exit
)");
    RegAllocOptions opts;
    opts.numRegs = 8;
    opts.firstReg = 1;
    RegAllocStats stats = allocateRegisters(k, opts);
    EXPECT_EQ(stats.liveRanges, 3);
    EXPECT_EQ(stats.spilledRanges, 0);
    EXPECT_LE(stats.regsUsed, 8);
    for (int lin = 0; lin < k.numInstrs(); lin++) {
        const Instruction &in = k.instr(lin);
        if (in.dst) {
            EXPECT_LT(*in.dst, opts.firstReg + opts.numRegs);
        }
    }
}

TEST(RegAlloc, ReusesRegistersAcrossDisjointRanges)
{
    Kernel k = parseKernelOrDie(R"(.kernel reuse
entry:
    iadd R10, R0, #1
    st.shared [R0], R10
    iadd R20, R0, #2
    st.shared [R0], R20
    iadd R30, R0, #3
    st.shared [R0], R30
    exit
)");
    RegAllocOptions opts;
    opts.numRegs = 4;
    RegAllocStats stats = allocateRegisters(k, opts);
    EXPECT_EQ(stats.spilledRanges, 0);
    // Three disjoint ranges can share one register.
    EXPECT_EQ(stats.regsUsed, 1);
}

TEST(RegAlloc, SpillsUnderPressure)
{
    // Six simultaneously-live values with a 2-register budget plus
    // scratch must spill.
    Kernel k = parseKernelOrDie(R"(.kernel pressure
entry:
    iadd R10, R0, #1
    iadd R11, R0, #2
    iadd R12, R0, #3
    iadd R13, R0, #4
    iadd R14, R0, #5
    iadd R15, R0, #6
    iadd R20, R10, R11
    iadd R21, R12, R13
    iadd R22, R14, R15
    iadd R23, R20, R21
    iadd R24, R23, R22
    st.global [R0], R24
    exit
)");
    Kernel orig = k;
    RegAllocOptions opts;
    opts.numRegs = 5;
    RegAllocStats stats = allocateRegisters(k, opts);
    EXPECT_GT(stats.spilledRanges, 0);
    EXPECT_GT(stats.spillStores, 0);
    EXPECT_GT(stats.spillLoads, 0);
    ASSERT_EQ(k.validate(), "");
    EXPECT_EQ(globalOutputs(k), globalOutputs(orig));
}

TEST(RegAlloc, PinnedRegistersKeepTheirNames)
{
    Kernel k = parseKernelOrDie(R"(.kernel pin
entry:
    ld.param  R10, [R63]
    iadd      R11, R10, R0
    st.global [R11], R0
    exit
)");
    allocateRegisters(k);
    // R0 (thread id) and R63 (param base) are live-in: untouched.
    EXPECT_EQ(k.instr(0).srcs[0].reg, 63);
    bool r0_used = false;
    for (int lin = 0; lin < k.numInstrs(); lin++)
        for (int s = 0; s < k.instr(lin).numSrcs; s++)
            if (k.instr(lin).srcs[s].isReg &&
                k.instr(lin).srcs[s].reg == 0)
                r0_used = true;
    EXPECT_TRUE(r0_used);
}

TEST(RegAlloc, WideValuesStayPaired)
{
    Kernel k = parseKernelOrDie(R"(.kernel wide
entry:
    imul.wide R20, R0, #8
    iadd R22, R20, R21
    st.global [R0], R22
    exit
)");
    Kernel orig = k;
    RegAllocOptions opts;
    opts.numRegs = 6;
    allocateRegisters(k, opts);
    // The wide pair is pinned: destination unchanged.
    EXPECT_EQ(*k.instr(0).dst, 20);
    EXPECT_TRUE(k.instr(0).wide);
    EXPECT_EQ(globalOutputs(k), globalOutputs(orig));
}

TEST(RegAlloc, EquivalentOnAllWorkloads)
{
    RegAllocOptions opts;
    opts.numRegs = 16;
    for (const Workload &w : allWorkloads()) {
        Kernel k = w.kernel;
        RegAllocStats stats = allocateRegisters(k, opts);
        ASSERT_EQ(k.validate(), "") << w.name;
        EXPECT_EQ(globalOutputs(k, 2), globalOutputs(w.kernel, 2))
            << w.name << " (spills=" << stats.spilledRanges << ")";
    }
}

TEST(RegAlloc, TightBudgetStillRunsThroughHierarchy)
{
    // The full pipeline: regalloc to a tight budget, then hierarchy
    // allocation, then verified execution.
    RegAllocOptions ro;
    ro.numRegs = 10;
    AllocOptions ao;
    ao.useLRF = true;
    ao.splitLRF = true;
    for (std::uint64_t seed : {5u, 55u}) {
        SynthParams p;
        p.seed = seed;
        Kernel k = generateSynthetic("tight", p);
        allocateRegisters(k, ro);
        HierarchyAllocator alloc(EnergyParams{}, ao);
        alloc.run(k);
        RunConfig cfg;
        cfg.numWarps = 2;
        SwExecResult r = runSwHierarchy(k, ao, cfg);
        EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.error;
    }
}

TEST(RegAlloc, FewerRegsUsedThanBudgetWhenPossible)
{
    Kernel k = workloadByName("vectoradd").kernel;
    RegAllocOptions opts;
    opts.numRegs = 30;
    RegAllocStats stats = allocateRegisters(k, opts);
    EXPECT_EQ(stats.spilledRanges, 0);
    EXPECT_LT(stats.regsUsed, 12);
}

} // namespace
} // namespace rfh
