/**
 * @file
 * Tests for the SIMT-divergent verifying executor: per-lane ORF/LRF
 * state must hold under hammock serialisation, per-lane predication,
 * divergent loop trip counts, and warp-level deschedules.
 */

#include <gtest/gtest.h>

#include "compiler/allocator.h"
#include "core/json.h"
#include "ir/parser.h"
#include "sim/sw_exec_simt.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace rfh {
namespace {

SwExecResult
compileAndRunSimt(const Kernel &kernel, int warps = 1, int width = 8,
                  bool lrf = true)
{
    Kernel k = kernel;
    AllocOptions opts;
    opts.useLRF = lrf;
    opts.splitLRF = lrf;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    SimtExecConfig cfg;
    cfg.numWarps = warps;
    cfg.width = width;
    return runSwHierarchySimt(k, opts, cfg);
}

TEST(SwExecSimt, UniformWarpMatchesScalarCounts)
{
    Kernel k = parseKernelOrDie(R"(.kernel u
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 1, 8, false);
    ASSERT_TRUE(r.ok()) << r.error;
    // Warp-level counting: same operand counts as one scalar thread.
    EXPECT_EQ(r.counts.instructions, 4u);
    EXPECT_EQ(r.counts.totalReads(Level::ORF), 3u);
}

TEST(SwExecSimt, DivergentHammockVerifiesPerLane)
{
    // Lanes take different hammock sides; the shared ORF entry of the
    // Figure 10(c) group must hold each lane's own side's value.
    Kernel k = parseKernelOrDie(R"(.kernel ham
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
    SwExecResult r = compileAndRunSimt(k, 2, 8);
    ASSERT_TRUE(r.ok()) << r.error;
}

TEST(SwExecSimt, PerLanePredicationVerifies)
{
    Kernel k = parseKernelOrDie(R"(.kernel pred
entry:
    mov R2, #5
    setlt R1, R0, #3
    @R1 iadd R2, R0, #9
    iadd R3, R2, #1
    st.shared [R0], R3
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 1, 8);
    ASSERT_TRUE(r.ok()) << r.error;
}

TEST(SwExecSimt, DivergentLoopTripCounts)
{
    // Lanes iterate different numbers of times; loop-carried values
    // and per-iteration temporaries must verify on every lane path.
    Kernel k = parseKernelOrDie(R"(.kernel trip
entry:
    and  R1, R0, #3
    iadd R1, R1, #1
    mov  R2, #0
body:
    iadd R4, R2, #3
    iadd R2, R4, R1
    isub R1, R1, #1
    setgt R3, R1, #0
    @R3 bra body
out:
    st.global [R0], R2
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 2, 8);
    ASSERT_TRUE(r.ok()) << r.error;
}

TEST(SwExecSimt, LongLatencyDescheduleInvalidatesAllLanes)
{
    Kernel k = parseKernelOrDie(R"(.kernel ll
entry:
    iadd R1, R0, #1
    ld.global R2, [R0]
    iadd R3, R2, R1
    st.shared [R0], R3
    exit
)");
    SwExecResult r = compileAndRunSimt(k, 1, 8);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.counts.deschedules, 1u);
}

TEST(SwExecSimt, CorruptAnnotationCaughtWithLaneDiagnostic)
{
    Kernel k = parseKernelOrDie(R"(.kernel bad
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
    AllocOptions opts;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    Instruction &use = k.instr(1);
    ASSERT_EQ(use.readAnno[0].level, Level::ORF);
    use.readAnno[0].entry =
        static_cast<std::uint8_t>((use.readAnno[0].entry + 1) % 3);
    SimtExecConfig cfg;
    SwExecResult r = runSwHierarchySimt(k, opts, cfg);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("lane"), std::string::npos);
}

TEST(SwExecSimt, OutOfRangeUpperIndexesAreErrors)
{
    // Every ORF/LRF index an annotation names is range-checked by both
    // value oracles, so an allocator capacity bug is a finding, not an
    // access past the end of the entry vector.
    AllocOptions opts;
    opts.useLRF = true;  // one unsplit bank
    const Kernel clean = [&] {
        Kernel k = parseKernelOrDie(R"(.kernel range
entry:
    iadd R1, R0, #1
    iadd R2, R1, #2
    st.shared [R0], R2
    exit
)");
        HierarchyAllocator(EnergyParams{}, opts).run(k);
        return k;
    }();
    const auto entries = static_cast<std::uint8_t>(opts.orfEntries);
    struct Tamper
    {
        const char *name;
        const char *expect;
        void (*apply)(Kernel &k, std::uint8_t entries);
    };
    const Tamper tampers[] = {
        {"ORF read", "ORF entry out of range",
         [](Kernel &k, std::uint8_t e) {
             k.instr(1).readAnno[0] = ReadAnnotation{};
             k.instr(1).readAnno[0].level = Level::ORF;
             k.instr(1).readAnno[0].entry = e;
         }},
        {"ORF deposit", "ORF entry out of range",
         [](Kernel &k, std::uint8_t e) {
             k.instr(0).readAnno[0] = ReadAnnotation{};
             k.instr(0).readAnno[0].depositToORF = true;
             k.instr(0).readAnno[0].entry = e;
         }},
        {"ORF write", "ORF entry out of range",
         [](Kernel &k, std::uint8_t e) {
             k.instr(0).writeAnno.toORF = true;
             k.instr(0).writeAnno.toLRF = false;
             k.instr(0).writeAnno.orfEntry = e;
         }},
        {"LRF read", "LRF bank out of range",
         [](Kernel &k, std::uint8_t) {
             k.instr(1).readAnno[0] = ReadAnnotation{};
             k.instr(1).readAnno[0].level = Level::LRF;
             k.instr(1).readAnno[0].lrfBank = 1;
         }},
        {"LRF write", "LRF bank out of range",
         [](Kernel &k, std::uint8_t) {
             k.instr(0).writeAnno.toLRF = true;
             k.instr(0).writeAnno.toORF = false;
             k.instr(0).writeAnno.lrfBank = 1;
         }},
    };
    for (const Tamper &t : tampers) {
        SCOPED_TRACE(t.name);
        Kernel k = clean;
        t.apply(k, entries);
        SwExecResult simt = runSwHierarchySimt(k, opts);
        EXPECT_NE(simt.error.find(t.expect), std::string::npos)
            << simt.error;
        SwExecResult scalar = runSwHierarchy(k, opts);
        EXPECT_NE(scalar.error.find(t.expect), std::string::npos)
            << scalar.error;
    }
}

TEST(SwExecSimt, IdealNoFlushMatchesScalarCounts)
{
    // Under the never-flush model (Section 7) the consumer of an
    // outstanding load deschedules the warp and every lane keeps its
    // entries, as in the scalar executor.
    std::vector<Workload> ws = allWorkloads();
    Workload ll;
    ll.name = "ll_ideal";
    ll.kernel = parseKernelOrDie(R"(.kernel ll_ideal
entry:
    iadd R1, R0, #1
    ld.global R2, [R1]
    iadd R3, R2, R1
    st.shared [R1], R3
    exit
)");
    ws.insert(ws.begin(), ll);
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = true;
    opts.strandOptions.idealNoFlush = true;
    SimtExecConfig simt;
    RunConfig run;
    run.numWarps = simt.numWarps;
    run.maxInstrsPerWarp = simt.maxInstrsPerWarp;
    for (const Workload &w : ws) {
        SCOPED_TRACE(w.name);
        Kernel k = w.kernel;
        HierarchyAllocator(EnergyParams{}, opts).run(k);
        SwExecResult scalar = runSwHierarchy(k, opts, run);
        ASSERT_TRUE(scalar.ok()) << scalar.error;
        if (w.name == ll.name) {
            EXPECT_EQ(scalar.counts.deschedules,
                      static_cast<std::uint64_t>(run.numWarps));
        }
        simt.width = 1;
        SwExecResult narrow = runSwHierarchySimt(k, opts, simt);
        ASSERT_TRUE(narrow.ok()) << narrow.error;
        JsonWriter a, b;
        writeJson(a, narrow.counts);
        writeJson(b, scalar.counts);
        EXPECT_EQ(a.str(), b.str());
        simt.width = 8;
        SwExecResult wide = runSwHierarchySimt(k, opts, simt);
        EXPECT_TRUE(wide.ok()) << wide.error;
    }
}

TEST(SwExecSimt, AllWorkloadsVerifyDivergently)
{
    for (const Workload &w : allWorkloads()) {
        SwExecResult r = compileAndRunSimt(w.kernel, 1, 4);
        EXPECT_TRUE(r.ok()) << w.name << ": " << r.error;
    }
}

TEST(SwExecSimt, SyntheticKernelsVerifyDivergently)
{
    for (std::uint64_t seed : {3u, 13u, 23u, 43u}) {
        SynthParams p;
        p.seed = seed;
        p.pHammock = 0.5;
        p.pPredicated = 0.15;
        Kernel k = generateSynthetic("simtprop", p);
        SwExecResult r = compileAndRunSimt(k, 2, 8);
        EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.error;
    }
}

} // namespace
} // namespace rfh
