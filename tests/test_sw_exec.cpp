/**
 * @file
 * Unit tests for the software-hierarchy executor: access accounting,
 * strand invalidation, functional verification, and detection of
 * deliberately corrupted annotations.
 */

#include <gtest/gtest.h>

#include "compiler/allocator.h"
#include "ir/parser.h"
#include "sim/baseline_exec.h"
#include "sim/sw_exec.h"

namespace rfh {
namespace {

struct Compiled
{
    Kernel kernel;
    AllocOptions opts;

    explicit Compiled(std::string_view text, AllocOptions o = {})
        : kernel(parseKernelOrDie(text)), opts(o)
    {
        HierarchyAllocator alloc(EnergyParams{}, opts);
        alloc.run(kernel);
    }

    SwExecResult
    run(int warps = 1) const
    {
        RunConfig cfg;
        cfg.numWarps = warps;
        return runSwHierarchy(kernel, opts, cfg);
    }
};

TEST(SwExec, CleanRunOnStraightLine)
{
    Compiled c(R"(.kernel s
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    SwExecResult r = c.run();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.counts.instructions, 4u);
    // R1 and R2 reads come from the ORF. R0 is read twice, so
    // read-operand allocation deposits it on the first read and serves
    // the store's address read from the ORF.
    EXPECT_EQ(r.counts.totalReads(Level::ORF), 3u);
    EXPECT_EQ(r.counts.totalReads(Level::MRF), 1u);
    // Both values dead after use: no MRF writes at all.
    EXPECT_EQ(r.counts.totalWrites(Level::MRF), 0u);
}

TEST(SwExec, TotalReadsMatchBaseline)
{
    const char *text = R"(.kernel m
entry:
    iadd R1, R0, #1
    ld.global R2, [R0]
    iadd R3, R2, R1
    st.global [R0], R3
    exit
)";
    Compiled c(text);
    SwExecResult r = c.run(4);
    ASSERT_TRUE(r.ok()) << r.error;
    RunConfig rc;
    rc.numWarps = 4;
    AccessCounts base = runBaseline(parseKernelOrDie(text), rc);
    EXPECT_EQ(r.counts.allReads() - r.counts.wbReads, base.allReads());
    EXPECT_EQ(r.counts.instructions, base.instructions);
}

TEST(SwExec, LoopRunsVerified)
{
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = true;
    Compiled c(R"(.kernel loop
entry:
    mov R1, #16
    mov R2, #0
body:
    ld.global R3, [R0]
    iadd R4, R3, #1
    iadd R5, R4, R4
    iadd R2, R2, R5
    isub R1, R1, #1
    setgt R6, R1, #0
    @R6 bra body
out:
    st.global [R0], R2
    exit
)", opts);
    SwExecResult r = c.run(4);
    ASSERT_TRUE(r.ok()) << r.error;
    // One deschedule per iteration (the load consumer).
    EXPECT_EQ(r.counts.deschedules, 4u * 16u);
}

TEST(SwExec, DepositCountsOrfWrite)
{
    Compiled c(R"(.kernel dep
entry:
    iadd R1, R0, #1
    iadd R2, R0, #2
    iadd R3, R0, #3
    st.shared [R1], R2
    st.shared [R3], R0
    exit
)");
    SwExecResult r = c.run();
    ASSERT_TRUE(r.ok()) << r.error;
    // R0's deposit adds an ORF write beyond the value writes.
    EXPECT_GT(r.counts.totalWrites(Level::ORF), 3u);
}

TEST(SwExec, CorruptedOrfEntryDetected)
{
    Compiled c(R"(.kernel bad
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    // Point the read at the wrong ORF entry.
    Instruction &use = c.kernel.instr(1);
    ASSERT_EQ(use.readAnno[0].level, Level::ORF);
    use.readAnno[0].entry =
        static_cast<std::uint8_t>((use.readAnno[0].entry + 1) %
                                  c.opts.orfEntries);
    SwExecResult r = c.run();
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("ORF entry"), std::string::npos);
}

TEST(SwExec, MissingOrfWriteDetected)
{
    Compiled c(R"(.kernel bad2
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    Instruction &def = c.kernel.instr(0);
    ASSERT_TRUE(def.writeAnno.toORF);
    def.writeAnno.toORF = false;
    def.writeAnno.toMRF = true;
    SwExecResult r = c.run();
    EXPECT_FALSE(r.ok());
}

TEST(SwExec, StaleMrfReadDetected)
{
    Compiled c(R"(.kernel bad3
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    // Elide the MRF write but claim the read comes from the MRF.
    Instruction &def = c.kernel.instr(0);
    def.writeAnno.toMRF = false;
    Instruction &use = c.kernel.instr(1);
    use.readAnno[0] = ReadAnnotation{};  // MRF
    SwExecResult r = c.run();
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("stale"), std::string::npos);
}

TEST(SwExec, CrossStrandOrfReadDetected)
{
    Compiled c(R"(.kernel bad4
entry:
    iadd R1, R0, #1
    ld.global R2, [R0]
    iadd R3, R2, R1
    st.shared [R0], R3
    exit
)");
    // Force R1's cross-strand read to claim the ORF.
    Instruction &def = c.kernel.instr(0);
    def.writeAnno.toORF = true;
    def.writeAnno.orfEntry = 0;
    Instruction &use = c.kernel.instr(2);
    use.readAnno[1].level = Level::ORF;
    use.readAnno[1].entry = 0;
    SwExecResult r = c.run();
    EXPECT_FALSE(r.ok()) << "strand boundary must invalidate the ORF";
}

TEST(SwExec, LrfSharedReadDetected)
{
    AllocOptions opts;
    opts.useLRF = true;
    Compiled c(R"(.kernel bad5
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)", opts);
    // Claim the store (shared datapath) reads its data from the LRF.
    Instruction &st = c.kernel.instr(2);
    st.readAnno[1].level = Level::LRF;
    st.readAnno[1].lrfBank = 0;
    SwExecResult r = c.run();
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("shared-datapath LRF"), std::string::npos);
}

TEST(SwExec, LongLatencyUpperAnnotationDetected)
{
    Compiled c(R"(.kernel bad6
entry:
    ld.global R1, [R0]
    iadd R2, R1, #1
    st.shared [R0], R2
    exit
)");
    Instruction &ld = c.kernel.instr(0);
    ld.writeAnno.toORF = true;
    SwExecResult r = c.run();
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("long-latency"), std::string::npos);
}

TEST(SwExec, HammockBothPathsVerified)
{
    // Warps take different hammock sides (data-dependent predicate);
    // the shared ORF entry must verify on every path.
    Compiled c(R"(.kernel ham
entry:
    setlt R2, R0, #4
    @R2 bra right
left:
    iadd R1, R0, #7
    bra merge
right:
    iadd R1, R0, #8
merge:
    iadd R3, R1, #1
    st.shared [R0], R3
    exit
)");
    SwExecResult r = c.run(8);
    ASSERT_TRUE(r.ok()) << r.error;
}

TEST(SwExec, IdealNoFlushKeepsValuesAcrossDeschedule)
{
    AllocOptions opts;
    opts.strandOptions.idealNoFlush = true;
    Compiled c(R"(.kernel ideal
entry:
    iadd R1, R0, #1
    ld.global R2, [R0]
    iadd R3, R2, R1
    st.shared [R0], R3
    exit
)", opts);
    SwExecResult r = c.run();
    ASSERT_TRUE(r.ok()) << r.error;
    // One strand: the load's consumer is no endpoint.
    EXPECT_FALSE(c.kernel.instr(1).endOfStrand);
    // R1's cross-"strand" read can now come from the ORF.
    EXPECT_EQ(c.kernel.instr(2).readAnno[1].level, Level::ORF);
    EXPECT_EQ(r.counts.deschedules, 1u);
}

} // namespace
} // namespace rfh
