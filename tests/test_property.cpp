/**
 * @file
 * Property-based tests: randomly generated kernels, swept across
 * hierarchy configurations, must always execute verification-clean
 * through the software hierarchy (bit-exact values, valid entries,
 * level restrictions) and must keep the executors' accounting
 * consistent with the baseline.
 *
 * These parameterised sweeps are the library's main defence against
 * allocator corner cases: every combination exercises strand flushes,
 * hammocks, partial ranges, deposits, and LRF restrictions on fresh
 * random code.
 */

#include <gtest/gtest.h>

#include "compiler/allocator.h"
#include "compiler/regalloc.h"
#include "compiler/scheduler.h"
#include "sim/baseline_exec.h"
#include "sim/hw_cache.h"
#include "sim/pipeline_account.h"
#include "sim/sw_exec.h"
#include "workloads/synthetic.h"

namespace rfh {
namespace {

struct PropertyCase
{
    std::uint64_t seed;
    int orfEntries;
    bool useLRF;
    bool splitLRF;
    bool partialRanges;
    bool readOperands;
};

void
PrintTo(const PropertyCase &c, std::ostream *os)
{
    *os << "seed=" << c.seed << " orf=" << c.orfEntries
        << (c.useLRF ? (c.splitLRF ? " splitLRF" : " LRF") : "")
        << (c.partialRanges ? " partial" : "")
        << (c.readOperands ? " readops" : "");
}

SynthParams
paramsFor(std::uint64_t seed)
{
    SynthParams p;
    p.seed = seed;
    // Vary the structural knobs with the seed to cover more shapes.
    p.strandsPerBody = 1 + static_cast<int>(seed % 3);
    p.opsPerStrand = 4 + static_cast<int>(seed % 11);
    p.loadsPerStrand = 1 + static_cast<int>(seed % 3);
    p.pHammock = (seed % 4) * 0.25;
    p.fracSfu = (seed % 5) * 0.05;
    p.recencyWindow = 2 + static_cast<int>(seed % 5);
    p.loopIters = 4 + static_cast<int>(seed % 8);
    p.useTex = seed % 7 == 0;
    return p;
}

class HierarchyProperty : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(HierarchyProperty, SwExecutionVerifiesClean)
{
    const PropertyCase &c = GetParam();
    Kernel k = generateSynthetic("prop", paramsFor(c.seed));
    ASSERT_EQ(k.validate(), "");

    AllocOptions opts;
    opts.orfEntries = c.orfEntries;
    opts.useLRF = c.useLRF;
    opts.splitLRF = c.splitLRF;
    opts.partialRanges = c.partialRanges;
    opts.readOperands = c.readOperands;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);

    RunConfig cfg;
    cfg.numWarps = 3;
    SwExecResult r = runSwHierarchy(k, opts, cfg);
    EXPECT_TRUE(r.ok()) << r.error;

    // Demand reads must exactly match the baseline (the hierarchy
    // never adds or loses operand reads).
    RunConfig rc;
    rc.numWarps = 3;
    AccessCounts base = runBaseline(k, rc);
    EXPECT_EQ(r.counts.allReads(), base.allReads());
    EXPECT_EQ(r.counts.instructions, base.instructions);
    // Every written value lands somewhere.
    EXPECT_GE(r.counts.allWrites(), base.allWrites());
    // The shared datapath never touches the LRF.
    EXPECT_EQ(r.counts.reads[static_cast<int>(Level::LRF)][
                  static_cast<int>(Datapath::SHARED)], 0u);
    EXPECT_EQ(r.counts.writes[static_cast<int>(Level::LRF)][
                  static_cast<int>(Datapath::SHARED)], 0u);
}

TEST_P(HierarchyProperty, HwCacheAccountingConsistent)
{
    const PropertyCase &c = GetParam();
    Kernel k = generateSynthetic("prop", paramsFor(c.seed));
    HwCacheConfig cfg;
    cfg.rfcEntries = c.orfEntries;
    cfg.useLRF = c.useLRF;
    RunConfig rc;
    rc.numWarps = 2;
    AccessCounts hw;
    makeHwCacheAccounting(k, cfg, nullptr, nullptr, hw)->execute(k, rc);
    AccessCounts base = runBaseline(k, rc);
    // Demand reads equal baseline; writebacks only add traffic.
    EXPECT_EQ(hw.allReads() - hw.wbReads, base.allReads());
    EXPECT_EQ(hw.instructions, base.instructions);
    EXPECT_GE(hw.allWrites(), base.allWrites());
    // Every MRF write is either a demand write (long-latency results)
    // or a writeback.
    EXPECT_GE(hw.totalWrites(Level::MRF), hw.wbWrites);
    // Writeback reads and writes pair up except for LRF->RFC spills,
    // which read the LRF without writing the MRF.
    EXPECT_GE(hw.wbReads, hw.wbWrites);
}

TEST_P(HierarchyProperty, AllocatorIsDeterministic)
{
    const PropertyCase &c = GetParam();
    Kernel k1 = generateSynthetic("prop", paramsFor(c.seed));
    Kernel k2 = generateSynthetic("prop", paramsFor(c.seed));
    AllocOptions opts;
    opts.orfEntries = c.orfEntries;
    opts.useLRF = c.useLRF;
    opts.splitLRF = c.splitLRF;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    AllocStats s1 = alloc.run(k1);
    AllocStats s2 = alloc.run(k2);
    EXPECT_EQ(s1.orfValuesFull, s2.orfValuesFull);
    EXPECT_EQ(s1.lrfValues, s2.lrfValues);
    EXPECT_DOUBLE_EQ(s1.predictedSavingsPJ, s2.predictedSavingsPJ);
    for (int lin = 0; lin < k1.numInstrs(); lin++) {
        EXPECT_TRUE(k1.instr(lin).writeAnno.toORF ==
                    k2.instr(lin).writeAnno.toORF);
        for (int s = 0; s < kMaxSrcs; s++)
            EXPECT_TRUE(k1.instr(lin).readAnno[s] ==
                        k2.instr(lin).readAnno[s]);
    }
}

std::vector<PropertyCase>
makeCases()
{
    std::vector<PropertyCase> cases;
    for (std::uint64_t seed = 1; seed <= 12; seed++) {
        cases.push_back({seed, 3, true, true, true, true});
        cases.push_back({seed, 1, false, false, true, true});
    }
    for (std::uint64_t seed = 13; seed <= 18; seed++) {
        cases.push_back({seed, 2, true, false, false, true});
        cases.push_back({seed, 8, true, true, true, false});
        cases.push_back({seed, 5, false, false, false, false});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomKernels, HierarchyProperty,
                         ::testing::ValuesIn(makeCases()));

TEST_P(HierarchyProperty, FullPipelineVerifiesClean)
{
    // The complete compilation pipeline on random code: reschedule,
    // register-allocate to a tight budget (inserting spills), run the
    // hierarchy allocator, then execute with bit-exact verification.
    const PropertyCase &c = GetParam();
    Kernel k = generateSynthetic("pipe", paramsFor(c.seed));
    scheduleKernel(k);
    RegAllocOptions ro;
    ro.numRegs = 10 + static_cast<int>(c.seed % 12);
    allocateRegisters(k, ro);
    ASSERT_EQ(k.validate(), "");

    AllocOptions opts;
    opts.orfEntries = c.orfEntries;
    opts.useLRF = c.useLRF;
    opts.splitLRF = c.splitLRF;
    opts.partialRanges = c.partialRanges;
    opts.readOperands = c.readOperands;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    RunConfig cfg;
    cfg.numWarps = 2;
    SwExecResult r = runSwHierarchy(k, opts, cfg);
    EXPECT_TRUE(r.ok()) << r.error;
}

// ---- Sweep the allocator across every ORF size on fixed kernels ----

class EntriesSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(EntriesSweep, EveryWorkloadVerifiesClean)
{
    int entries = GetParam();
    AllocOptions opts;
    opts.orfEntries = entries;
    opts.useLRF = true;
    opts.splitLRF = true;
    for (std::uint64_t seed : {101u, 202u, 303u}) {
        Kernel k = generateSynthetic("sweep", paramsFor(seed));
        HierarchyAllocator alloc(EnergyParams{}, opts);
        alloc.run(k);
        RunConfig cfg;
        cfg.numWarps = 2;
        SwExecResult r = runSwHierarchy(k, opts, cfg);
        EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.error;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, EntriesSweep,
                         ::testing::Range(1, kMaxOrfEntries + 1));

} // namespace
} // namespace rfh
