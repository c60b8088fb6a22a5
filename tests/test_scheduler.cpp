/**
 * @file
 * Tests for the lifetime-shortening instruction scheduler: dependence
 * preservation, bit-exact functional equivalence, terminator pinning,
 * memory ordering, and the actual lifetime reduction.
 */

#include <gtest/gtest.h>

#include "compiler/scheduler.h"
#include "ir/parser.h"
#include "sim/machine.h"
#include "sim/pipeline.h"
#include "sim/pipeline_account.h"
#include "sim/trace.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace rfh {
namespace {

/** Run @p k for one warp and return the final register file. */
std::array<std::uint32_t, kMaxRegs>
finalRegs(const Kernel &k, std::uint32_t warp_id = 1)
{
    WarpContext w;
    w.reset(warp_id);
    std::uint64_t steps = 0;
    while (!w.done && steps++ < (1u << 20))
        step(k, w);
    EXPECT_TRUE(w.done);
    return w.regs;
}

/** Pipeline timing of @p k over 8 warps, 4 active, flat accounting. */
PipelineStats
pipelineStats(const Kernel &k)
{
    RunConfig rc;
    rc.numWarps = 8;
    DecodedTrace trace = recordDecodedTrace(k, rc);
    ReplayDecode dec(k);
    AccessCounts counts;
    auto acct = makeFlatAccounting(k, &dec, counts);
    PipelineConfig cfg;
    cfg.activeWarps = 4;
    return runPipeline(trace, dec, *acct, cfg).stats;
}

TEST(Scheduler, ShortensObviousGap)
{
    // R1 is produced early but consumed last; the scheduler can sink
    // its producer toward the consumer (or hoist the consumer), as
    // long as dependences hold.
    Kernel k = parseKernelOrDie(R"(.kernel gap
entry:
    iadd R1, R0, #1
    iadd R2, R0, #2
    iadd R3, R0, #3
    iadd R4, R2, R3
    iadd R5, R1, R4
    st.shared [R0], R5
    exit
)");
    Kernel orig = k;
    ScheduleStats stats = scheduleKernel(k);
    EXPECT_GT(stats.lifetimeReduction, 0);
    EXPECT_EQ(finalRegs(k), finalRegs(orig));
}

TEST(Scheduler, PreservesSemanticsOnAllWorkloads)
{
    for (const Workload &w : allWorkloads()) {
        Kernel k = w.kernel;
        scheduleKernel(k);
        ASSERT_EQ(k.validate(), "") << w.name;
        for (std::uint32_t warp : {0u, 3u}) {
            auto a = finalRegs(w.kernel, warp);
            auto b = finalRegs(k, warp);
            EXPECT_EQ(a, b) << w.name << " warp " << warp;
        }
    }
}

TEST(Scheduler, TerminatorStaysLast)
{
    for (const Workload &w : allWorkloads()) {
        Kernel k = w.kernel;
        scheduleKernel(k);
        for (const auto &bb : k.blocks) {
            for (std::size_t i = 0; i + 1 < bb.instrs.size(); i++) {
                EXPECT_NE(bb.instrs[i].op, Opcode::BRA) << w.name;
                EXPECT_NE(bb.instrs[i].op, Opcode::EXIT) << w.name;
            }
        }
    }
}

TEST(Scheduler, MemoryOperationsKeepTheirOrder)
{
    Kernel k = parseKernelOrDie(R"(.kernel mem
entry:
    iadd R1, R0, #64
    st.shared [R1], R0
    ld.shared R2, [R1]
    st.shared [R1], R2
    ld.shared R3, [R1]
    iadd R4, R2, R3
    st.global [R0], R4
    exit
)");
    Kernel orig = k;
    scheduleKernel(k);
    // Memory ops must appear in original relative order.
    std::vector<Opcode> mem_before, mem_after;
    auto collect = [](const Kernel &kk, std::vector<Opcode> &v) {
        for (int i = 0; i < kk.numInstrs(); i++) {
            Opcode op = kk.instr(i).op;
            if (unitClass(op) == UnitClass::MEM)
                v.push_back(op);
        }
    };
    collect(orig, mem_before);
    collect(k, mem_after);
    EXPECT_EQ(mem_before, mem_after);
    EXPECT_EQ(finalRegs(k), finalRegs(orig));
}

TEST(Scheduler, NoChangeWhenAlreadyOptimal)
{
    Kernel k = parseKernelOrDie(R"(.kernel chain
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    iadd R3, R2, #3
    st.shared [R0], R3
    exit
)");
    ScheduleStats stats = scheduleKernel(k);
    EXPECT_EQ(stats.instructionsMoved, 0);
    EXPECT_EQ(stats.lifetimeReduction, 0);
}

TEST(Scheduler, DeterministicOnSyntheticKernels)
{
    for (std::uint64_t seed : {7u, 77u, 777u}) {
        SynthParams p;
        p.seed = seed;
        Kernel a = generateSynthetic("s", p);
        Kernel b = generateSynthetic("s", p);
        scheduleKernel(a);
        scheduleKernel(b);
        ASSERT_EQ(a.numInstrs(), b.numInstrs());
        for (int i = 0; i < a.numInstrs(); i++)
            EXPECT_EQ(a.instr(i).op, b.instr(i).op) << seed;
    }
}

TEST(Scheduler, EquivalenceOnSyntheticKernels)
{
    for (std::uint64_t seed = 21; seed < 29; seed++) {
        SynthParams p;
        p.seed = seed;
        p.pHammock = (seed % 3) * 0.4;
        Kernel orig = generateSynthetic("s", p);
        Kernel k = orig;
        scheduleKernel(k);
        ASSERT_EQ(k.validate(), "") << seed;
        EXPECT_EQ(finalRegs(k, 2), finalRegs(orig, 2)) << seed;
    }
}

TEST(Scheduler, ScheduledKernelKeepsPipelineInstructionCount)
{
    // Instruction scheduling reorders within blocks but never adds or
    // drops work, so the cycle-level pipeline must issue exactly the
    // same dynamic instruction count for the scheduled kernel.
    for (const Workload &w : allWorkloads()) {
        Kernel k = w.kernel;
        scheduleKernel(k);
        ASSERT_EQ(k.validate(), "") << w.name;
        PipelineStats before = pipelineStats(w.kernel);
        PipelineStats after = pipelineStats(k);
        EXPECT_EQ(after.issued, before.issued) << w.name;
        EXPECT_GT(after.ipc(), 0.0) << w.name;
    }
}

} // namespace
} // namespace rfh
