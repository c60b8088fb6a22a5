/**
 * @file
 * Tests for decoded-trace recording: every warp's record stream must
 * be a legal execution of the recorded kernel.
 */

#include <gtest/gtest.h>

#include "ir/cfg_analysis.h"
#include "ir/parser.h"
#include "sim/trace.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

/**
 * Check that every warp's @c lin stream in @p t walks @p k legally: it
 * starts at block 0, steps to the next instruction of the same block
 * or along a CFG edge at a block end, and ends at an EXIT or at the
 * warpEndLin cap (whose step is checked like any other).
 *
 * @return empty string if consistent, else the first violation.
 */
std::string
streamError(const Kernel &k, const DecodedTrace &t)
{
    Cfg cfg(k);
    for (int w = 0; w < t.numWarps(); w++) {
        std::string at = "warp " + std::to_string(w) + ": ";
        if (t.warpBegin[w] == t.warpBegin[w + 1])
            return at + "empty stream";
        if (t.lin[t.warpBegin[w]] != k.blockStart(0))
            return at + "does not start at block 0";
        for (std::uint32_t i = t.warpBegin[w]; i < t.warpBegin[w + 1];
             i++) {
            int cur = t.lin[i];
            int next = t.nextLin(w, i);
            InstrRef r = k.ref(cur);
            int blockSize =
                static_cast<int>(k.blocks[r.block].instrs.size());
            std::string step = at + "record " + std::to_string(i) +
                ": " + std::to_string(cur) + " -> " +
                std::to_string(next);
            if (next < 0) {
                if (k.instr(cur).op != Opcode::EXIT)
                    return step + " ends without an exit";
            } else if (r.idx + 1 < blockSize) {
                if (next != cur + 1)
                    return step + " leaves its block mid-way";
            } else {
                bool edge = false;
                for (int s : cfg.succs(r.block))
                    edge |= next == k.blockStart(s);
                if (!edge)
                    return step + " is not a CFG edge";
            }
        }
    }
    return "";
}

/** Records per basic block across all warps of @p t. */
std::vector<std::uint64_t>
recordsPerBlock(const Kernel &k, const DecodedTrace &t)
{
    std::vector<std::uint64_t> out(k.blocks.size(), 0);
    for (std::int32_t lin : t.lin)
        out[k.ref(lin).block]++;
    return out;
}

TEST(Trace, StraightLinePathIsOneBlock)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    iadd R1, R0, #1
    st.global [R0], R1
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 2;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    ASSERT_EQ(t.numWarps(), 2);
    EXPECT_EQ(t.lin, std::vector<std::int32_t>({0, 1, 2, 0, 1, 2}));
    EXPECT_EQ(t.warpEndLin, std::vector<std::int32_t>({-1, -1}));
    EXPECT_EQ(t.instructions(), 6u);
    EXPECT_EQ(streamError(k, t), "");
}

TEST(Trace, LoopRecordsEveryIteration)
{
    Kernel k = parseKernelOrDie(R"(.kernel l
entry:
    mov R1, #4
body:
    isub R1, R1, #1
    setgt R2, R1, #0
    @R2 bra body
out:
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 1;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    // entry, 4x body (3 instructions each), out.
    std::vector<std::uint64_t> perBlock = recordsPerBlock(k, t);
    EXPECT_EQ(perBlock, std::vector<std::uint64_t>({1, 12, 1}));
    EXPECT_EQ(t.takenBranches, 3u);
    EXPECT_EQ(streamError(k, t), "");

    // A capped run ends mid-loop; its next instruction is still legal.
    cfg.maxInstrsPerWarp = 5;
    DecodedTrace capped = recordDecodedTrace(k, cfg);
    EXPECT_EQ(capped.instructions(), 5u);
    EXPECT_EQ(capped.warpEndLin, std::vector<std::int32_t>({2}));
    EXPECT_EQ(streamError(k, capped), "");
}

TEST(Trace, DivergentWarpsTakeDifferentPaths)
{
    Kernel k = parseKernelOrDie(R"(.kernel d
entry:
    setlt R1, R0, #2
    @R1 bra low
high:
    iadd R2, R0, #1
    bra out
low:
    iadd R2, R0, #2
out:
    st.global [R0], R2
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 8;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    // Warps 0 and 1 (tid < 2) take "low"; the rest take "high".
    std::vector<std::uint64_t> perBlock = recordsPerBlock(k, t);
    EXPECT_EQ(perBlock[2], 2u);
    EXPECT_EQ(perBlock[1], 6u * 2u);
    EXPECT_EQ(streamError(k, t), "");
}

TEST(Trace, ValidationCatchesIllegalTransitions)
{
    Kernel k = parseKernelOrDie(R"(.kernel v
entry:
    setlt R1, R0, #2
    @R1 bra skip
mid:
    iadd R1, R0, #1
skip:
    st.global [R0], R1
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 1;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    ASSERT_EQ(t.lin, std::vector<std::int32_t>({0, 1, 3, 4}));
    ASSERT_EQ(streamError(k, t), "");

    // Hand-made illegal streams, one fault each.
    DecodedTrace bad = t;
    bad.lin = {2, 3, 4};  // starts outside block 0
    bad.warpBegin = {0, 3};
    EXPECT_NE(streamError(k, bad), "");
    bad.lin = {0, 3, 4};  // skips the branch mid-block
    EXPECT_NE(streamError(k, bad), "");
    bad.lin = {0, 1, 4};  // jumps from a block end along no edge
    EXPECT_NE(streamError(k, bad), "");
    bad = t;
    bad.lin.pop_back();  // ends on the store, not the exit
    bad.warpBegin = {0, 3};
    EXPECT_NE(streamError(k, bad), "");
}

TEST(Trace, AllWorkloadsProduceValidTraces)
{
    for (const Workload &w : allWorkloads()) {
        RunConfig cfg = w.run;
        cfg.numWarps = 2;
        DecodedTrace t = recordDecodedTrace(w.kernel, cfg);
        EXPECT_EQ(streamError(w.kernel, t), "") << w.name;
        EXPECT_GT(t.instructions(), 0u) << w.name;
    }
}

} // namespace
} // namespace rfh
