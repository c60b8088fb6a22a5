/**
 * @file
 * Unit tests for the hardware register file cache baseline: hit/miss
 * accounting, FIFO eviction, liveness-elided writebacks, deschedule
 * flushes, and the three-level hardware variant (Sections 2.2, 6.2).
 */

#include <gtest/gtest.h>

#include "ir/parser.h"
#include "sim/baseline_exec.h"
#include "sim/hw_cache.h"
#include "sim/pipeline_account.h"

namespace rfh {
namespace {

/** Account @p k under @p cfg, one warp on the functional machine. */
AccessCounts
runHw(const Kernel &k, const HwCacheConfig &cfg)
{
    AccessCounts counts;
    RunConfig one;
    one.numWarps = 1;
    makeHwCacheAccounting(k, cfg, nullptr, nullptr, counts)
        ->execute(k, one);
    return counts;
}

AccessCounts
run(std::string_view text, const HwCacheConfig &cfg = {})
{
    return runHw(parseKernelOrDie(text), cfg);
}

TEST(HwCache, ProducerConsumerHitsCache)
{
    AccessCounts c = run(R"(.kernel pc
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    // R1 and R2 reads hit the RFC; R0 reads miss to the MRF.
    EXPECT_EQ(c.totalReads(Level::ORF), 2u);
    EXPECT_EQ(c.totalReads(Level::MRF), 2u);
    // Both results written to the RFC, dead on eviction -> no MRF
    // writes at all.
    EXPECT_EQ(c.totalWrites(Level::ORF), 2u);
    EXPECT_EQ(c.totalWrites(Level::MRF), 0u);
    EXPECT_EQ(c.wbReads, 0u);
}

TEST(HwCache, BaselineComparison)
{
    const char *text = R"(.kernel cmp
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)";
    Kernel k = parseKernelOrDie(text);
    RunConfig rc;
    rc.numWarps = 1;
    AccessCounts base = runBaseline(k, rc);
    AccessCounts hw = run(text);
    EXPECT_EQ(base.allReads(), hw.allReads());
    EXPECT_EQ(base.instructions, hw.instructions);
}

TEST(HwCache, FifoEvictionWritesBackLiveValue)
{
    // R1 is produced, then enough other values fill the 2-entry RFC to
    // evict it while still live; its eventual read misses to the MRF.
    HwCacheConfig cfg;
    cfg.rfcEntries = 2;
    AccessCounts c = run(R"(.kernel ev
entry:
    iadd R1, R0, #1
    iadd R2, R0, #2
    iadd R3, R2, #3
    iadd R4, R3, #4
    st.shared [R0], R4
    st.shared [R0], R1
    exit
)", cfg);
    // R1 was evicted live: one writeback (RFC read + MRF write).
    EXPECT_EQ(c.wbReads, 1u);
    EXPECT_EQ(c.wbWrites, 1u);
    // Its read at the final store comes from the MRF.
    EXPECT_GE(c.totalReads(Level::MRF), 1u);
}

TEST(HwCache, DeadEvictionElidesWriteback)
{
    HwCacheConfig cfg;
    cfg.rfcEntries = 1;
    AccessCounts c = run(R"(.kernel dead
entry:
    iadd R1, R0, #1
    st.shared [R0], R1
    iadd R2, R0, #2
    st.shared [R0], R2
    exit
)", cfg);
    // R1 is dead when R2 evicts it: static liveness elides the
    // writeback (Section 2.2).
    EXPECT_EQ(c.wbReads, 0u);
    EXPECT_EQ(c.wbWrites, 0u);
}

TEST(HwCache, LongLatencyResultBypassesCache)
{
    AccessCounts c = run(R"(.kernel ll
entry:
    ld.global R1, [R0]
    iadd R2, R1, #1
    exit
)");
    // The load result goes straight to the MRF; the consumer triggers
    // a deschedule and reads it from the MRF.
    EXPECT_EQ(c.totalWrites(Level::MRF), 1u);
    EXPECT_EQ(c.deschedules, 1u);
    // Read breakdown: R0 (miss) + R1 (MRF after flush).
    EXPECT_EQ(c.totalReads(Level::MRF), 2u);
}

TEST(HwCache, DeschedulesFlushLiveValues)
{
    AccessCounts c = run(R"(.kernel flush
entry:
    iadd R1, R0, #1
    ld.global R2, [R0]
    iadd R3, R2, R1
    st.shared [R0], R3
    exit
)");
    // At the consumer of R2 the warp deschedules; R1 is live in the
    // RFC and must be flushed (wbRead + wbWrite), then re-read from
    // the MRF.
    EXPECT_EQ(c.deschedules, 1u);
    EXPECT_EQ(c.wbReads, 1u);
    EXPECT_EQ(c.wbWrites, 1u);
}

TEST(HwCache, OverwriteInPlaceDoesNotEvict)
{
    HwCacheConfig cfg;
    cfg.rfcEntries = 2;
    AccessCounts c = run(R"(.kernel ow
entry:
    iadd R1, R0, #1
    iadd R2, R0, #2
    iadd R1, R1, #3
    st.shared [R0], R1
    st.shared [R0], R2
    exit
)", cfg);
    // Redefining R1 overwrites its entry; R2 stays cached. No
    // writebacks anywhere.
    EXPECT_EQ(c.wbReads, 0u);
    EXPECT_EQ(c.totalReads(Level::ORF), 3u);
}

TEST(HwCache, ThreeLevelLrfCapturesPrivateChain)
{
    HwCacheConfig cfg;
    cfg.useLRF = true;
    AccessCounts c = run(R"(.kernel lrf
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    iadd R3, R2, #3
    st.shared [R0], R3
    exit
)", cfg);
    // R1 and R2 are read from the LRF (each was the last result).
    // R3 is consumed by a store (shared): it bypasses the LRF and is
    // read from the RFC.
    EXPECT_EQ(c.totalReads(Level::LRF), 2u);
    EXPECT_GE(c.totalReads(Level::ORF), 1u);
}

TEST(HwCache, ThreeLevelLrfEvictionSpillsToRfc)
{
    HwCacheConfig cfg;
    cfg.useLRF = true;
    AccessCounts c = run(R"(.kernel spill
entry:
    iadd R1, R0, #1
    iadd R2, R0, #2
    iadd R3, R1, R2
    st.shared [R0], R3
    exit
)", cfg);
    // R1 sits in the LRF; producing R2 evicts it (live) into the RFC.
    EXPECT_GE(c.wbReads, 1u);
    EXPECT_GE(c.totalWrites(Level::ORF), 1u);
    // Demand reads equal the baseline operand count (6); the spill
    // adds writeback reads on top.
    EXPECT_EQ(c.allReads() - c.wbReads, 6u);
}

TEST(HwCache, SharedConsumedValuesSkipLrf)
{
    HwCacheConfig cfg;
    cfg.useLRF = true;
    AccessCounts c = run(R"(.kernel shared
entry:
    iadd R1, R0, #1
    sin R2, R1
    st.shared [R0], R2
    exit
)", cfg);
    // R1 feeds an SFU op: never enters the LRF, so zero LRF traffic
    // (R2 is SFU-produced and also skips it).
    EXPECT_EQ(c.totalReads(Level::LRF), 0u);
    EXPECT_EQ(c.totalWrites(Level::LRF), 0u);
}

TEST(HwCache, FlushOnBackwardBranchVariant)
{
    const char *loop = R"(.kernel loop
entry:
    mov R1, #4
    mov R2, #0
body:
    iadd R2, R2, R1
    isub R1, R1, #1
    setgt R3, R1, #0
    @R3 bra body
out:
    st.global [R0], R2
    exit
)";
    HwCacheConfig keep;
    HwCacheConfig flush = keep;
    flush.flushOnBackwardBranch = true;
    Kernel k = parseKernelOrDie(loop);
    AccessCounts ck = runHw(k, keep);
    AccessCounts cf = runHw(k, flush);
    // Flushing at backward branches forces loop-carried values back to
    // the MRF: more MRF traffic, more writebacks.
    EXPECT_GT(cf.totalReads(Level::MRF), ck.totalReads(Level::MRF));
    EXPECT_GT(cf.wbWrites, ck.wbWrites);
}

TEST(HwCache, WideResultTakesTwoEntries)
{
    HwCacheConfig cfg;
    cfg.rfcEntries = 2;
    AccessCounts c = run(R"(.kernel wide
entry:
    imul.wide R2, R0, #8
    iadd R4, R2, R3
    st.shared [R0], R4
    exit
)", cfg);
    // Both halves cached and both read from the RFC.
    EXPECT_GE(c.totalReads(Level::ORF), 2u);
    EXPECT_GE(c.totalWrites(Level::ORF), 2u);
}

} // namespace
} // namespace rfh
