/**
 * @file
 * Replay-engine equivalence tests.
 *
 * The replay engine walks a pre-decoded dynamic stream doing only
 * hierarchy state updates and access counting; the direct engine
 * interprets the kernel with real values and verifies every access
 * bit-exactly. The two must agree to the byte on every report — these
 * tests pin that down at three granularities: serialized sweep JSON
 * over the full workload registry (golden), per-scheme access counts
 * on random synthetic kernels including predicated and divergent code
 * (property: the accountants under the functional-machine and trace
 * drivers, the software hierarchy's fast path against its verifying
 * executors), the memoization of the recorded stream itself, and the
 * interning of identical warp streams (one shared stream, all
 * distinct streams, a run that first fails at a later warp), and the
 * per-segment replay of the schemes that reset at a deschedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "compiler/allocator.h"
#include "core/experiment.h"
#include "core/json.h"
#include "core/memo.h"
#include "core/scheme.h"
#include "core/sweep.h"
#include "ir/parser.h"
#include "sim/baseline_exec.h"
#include "sim/cc_rfc.h"
#include "sim/hw_cache.h"
#include "sim/pipeline_account.h"
#include "sim/regdem.h"
#include "sim/sw_exec.h"
#include "sim/sw_exec_simt.h"
#include "sim/trace.h"
#include "verify/oracle.h"
#include "workloads/profiles.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace rfh {
namespace {

std::string
countsJson(const AccessCounts &c)
{
    JsonWriter w;
    writeJson(w, c);
    return w.str();
}

const std::vector<Scheme> &
allSchemes()
{
    static const std::vector<Scheme> s = {
        Scheme::BASELINE, Scheme::HW_TWO_LEVEL, Scheme::HW_THREE_LEVEL,
        Scheme::SW_TWO_LEVEL, Scheme::SW_THREE_LEVEL,
    };
    return s;
}

// ---- Golden: full-registry aggregates, byte-identical JSON ----

TEST(Replay, AllWorkloadsJsonIdenticalToDirect)
{
    for (Scheme s : allSchemes()) {
        for (int entries : {1, 3, 8}) {
            ExperimentConfig direct;
            direct.scheme = s;
            direct.entries = entries;
            direct.engine = ExecEngine::DIRECT;
            ExperimentConfig replay = direct;
            replay.engine = ExecEngine::REPLAY;

            RunOutcome d = runAllWorkloads(direct);
            RunOutcome r = runAllWorkloads(replay);
            EXPECT_TRUE(d.ok()) << d.error;
            EXPECT_EQ(outcomeToJson(d), outcomeToJson(r))
                << schemeName(s) << " @" << entries << " entries";
        }
    }
}

TEST(Replay, SweepJsonIdenticalToDirect)
{
    ExperimentConfig direct;
    direct.engine = ExecEngine::DIRECT;
    auto dPts = sweepEntries(allSchemes(), direct);
    // AUTO resolves to REPLAY.
    auto rPts = sweepEntries(allSchemes(), ExperimentConfig{});
    EXPECT_EQ(sweepToJson(dPts), sweepToJson(rPts));
    ASSERT_EQ(dPts.size(), rPts.size());
    for (std::size_t i = 0; i < dPts.size(); i++)
        EXPECT_EQ(outcomeToJson(dPts[i].outcome),
                  outcomeToJson(rPts[i].outcome))
            << schemeName(dPts[i].scheme) << " @" << dPts[i].entries;
}

// ---- Memoization of the recorded stream ----

TEST(Replay, TraceIsRecordedOnceAndShared)
{
    const Workload &w = workloadByName("nbody");
    ExperimentCache cache;
    auto t1 = cache.trace(w.kernel, w.run);
    auto t2 = cache.trace(w.kernel, w.run);
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_GT(t1->instructions(), 0u);
    auto stats = cache.stats();
    EXPECT_EQ(stats.traceMisses, 1u);
    EXPECT_EQ(stats.traceHits, 1u);

    // An annotated copy fingerprints identically (annotations never
    // change the dynamic path), so it hits the same entry.
    Kernel annotated = w.kernel;
    AllocOptions opts;
    opts.useLRF = true;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(annotated);
    auto t3 = cache.trace(annotated, w.run);
    EXPECT_EQ(t1.get(), t3.get());
}

// ---- Batched replay: byte-identity with lone runs ----

TEST(Replay, BatchMatchesLoneRunsAcrossSchemes)
{
    const Workload &wl = workloadByName("nbody");
    std::vector<BatchItem> items;
    for (Scheme s : allSchemes()) {
        for (int entries : {1, 3, 8}) {
            for (bool perf : {false, true}) {
                BatchItem it;
                it.workload = &wl;
                it.cfg.scheme = s;
                it.cfg.entries = entries;  // engine AUTO -> REPLAY
                it.cfg.perf = perf;
                items.push_back(it);
            }
        }
    }
    std::vector<RunOutcome> outs = replayBatch(items);
    ASSERT_EQ(outs.size(), items.size());
    for (std::size_t i = 0; i < items.size(); i++) {
        ExperimentConfig lone = items[i].cfg;
        lone.engine = ExecEngine::REPLAY;
        RunOutcome d = runScheme(wl, lone);
        EXPECT_EQ(outcomeToJson(outs[i]), outcomeToJson(d))
            << schemeName(items[i].cfg.scheme) << " @"
            << items[i].cfg.entries << " perf=" << items[i].cfg.perf;
    }
}

TEST(Replay, BatchMatchesLoneRunsAcrossWarpCounts)
{
    // One kernel at two RunConfigs in one batch: the pre-warm fills
    // each config's baseline and trace, so every item's run hits.
    const Workload &wl = workloadByName("nbody");
    const Workload more = [&] {
        Workload w = wl;
        w.run.numWarps += 3;
        return w;
    }();
    std::vector<BatchItem> items;
    for (Scheme s : allSchemes()) {
        for (bool perf : {false, true}) {
            for (const Workload *w : {&wl, &more}) {
                BatchItem it;
                it.workload = w;
                it.cfg.scheme = s;
                it.cfg.entries = 3;
                it.cfg.perf = perf;
                items.push_back(it);
            }
        }
    }
    ExperimentCache &cache = globalExperimentCache();
    cache.clear();
    const ExperimentCache::Stats before = cache.stats();
    std::vector<RunOutcome> outs = replayBatch(items);
    const ExperimentCache::Stats after = cache.stats();
    EXPECT_EQ(after.baselineMisses - before.baselineMisses, 2u);
    EXPECT_EQ(after.baselineHits - before.baselineHits, items.size());
    ASSERT_EQ(outs.size(), items.size());
    for (std::size_t i = 0; i < items.size(); i++) {
        ExperimentConfig lone = items[i].cfg;
        lone.engine = ExecEngine::REPLAY;
        EXPECT_EQ(outcomeToJson(outs[i]),
                  outcomeToJson(runScheme(*items[i].workload, lone)))
            << schemeName(items[i].cfg.scheme) << " warps="
            << items[i].workload->run.numWarps
            << " perf=" << items[i].cfg.perf;
    }
    // The two configs really differ.
    EXPECT_NE(outcomeToJson(outs[0]), outcomeToJson(outs[1]));
}

TEST(Replay, BatchSizesOneThreeEightMixedWorkloads)
{
    const char *names[] = {"vectoradd", "reduction", "lu"};
    for (int size : {1, 3, 8}) {
        std::vector<BatchItem> items;
        for (int i = 0; i < size; i++) {
            BatchItem it;
            it.workload = &workloadByName(names[i % 3]);
            it.cfg.scheme = allSchemes()[i % allSchemes().size()];
            it.cfg.entries = 1 + i % 4;
            items.push_back(it);
        }
        std::vector<RunOutcome> outs = replayBatch(items);
        ASSERT_EQ(outs.size(), items.size());
        for (int i = 0; i < size; i++) {
            ExperimentConfig lone = items[i].cfg;
            lone.engine = ExecEngine::REPLAY;
            EXPECT_EQ(
                outcomeToJson(outs[i]),
                outcomeToJson(runScheme(*items[i].workload, lone)))
                << "size=" << size << " item=" << i;
        }
    }
}

// ---- No state bleed between consecutive runs ----

TEST(Replay, ArenaReuseKeepsConsecutiveRunsByteIdentical)
{
    // Alternating kernels on one thread: state surviving from one run
    // into the next (the sw fast path's tables, the hardware and
    // compiler-assisted caches' RFC rings) would change the second
    // round's bytes.
    const Workload &a = workloadByName("nbody");
    const Workload &b = workloadByName("reduction");
    for (const char *token : {"sw3", "hw2", "hw3", "ccrfc"}) {
        SCOPED_TRACE(token);
        ExperimentConfig cfg;
        cfg.scheme = SchemeRegistry::instance().findToken(token)->scheme;
        cfg.engine = ExecEngine::REPLAY;
        RunOutcome a1 = runScheme(a, cfg);
        RunOutcome b1 = runScheme(b, cfg);
        RunOutcome a2 = runScheme(a, cfg);
        RunOutcome b2 = runScheme(b, cfg);
        EXPECT_EQ(outcomeToJson(a1), outcomeToJson(a2));
        EXPECT_EQ(outcomeToJson(b1), outcomeToJson(b2));
    }
}

// ---- The decode is structural: annotations never change it ----

TEST(Replay, PristineDecodeEqualsEveryAnnotatedCopysDecode)
{
    const std::vector<Workload> kernels = {
        workloadByName("nbody"),
        workloadByName("reduction"),
        corpusWorkload(*findProfile("wild"), 1, 0),
        corpusWorkload(*findProfile("high-pressure"), 1, 0),
    };
    for (const Workload &w : kernels) {
        const AnalysisBundle bundle(w.kernel);
        const ReplayDecode pristine(w.kernel, &bundle.reachingDefs);
        for (const char *token : {"sw2", "sw3", "hw2", "ccrfc"}) {
            const SchemeInfo &si =
                *SchemeRegistry::instance().findToken(token);
            for (int entries : {1, 3, 8}) {
                SCOPED_TRACE(w.name + " " + token + "@" +
                             std::to_string(entries));
                ExperimentConfig cfg;
                cfg.scheme = si.scheme;
                cfg.entries = entries;
                Kernel annotated = w.kernel;
                si.backend->allocate(annotated, cfg, &bundle);
                const AnalysisBundle own(annotated);
                const ReplayDecode dec(annotated, &own.reachingDefs);
                EXPECT_TRUE(dec.op == pristine.op);
                EXPECT_EQ(dec.touched, pristine.touched);
                EXPECT_EQ(dec.used, pristine.used);
                EXPECT_EQ(dec.defined, pristine.defined);
                EXPECT_EQ(dec.hasSharedConsumerInfo(),
                          pristine.hasSharedConsumerInfo());
            }
        }
    }
}

// ---- Interned streams: one stream, all distinct, failing runs ----

/** Every warp follows one path: the loop count is a constant. */
Kernel
sharedStreamKernel()
{
    return parseKernelOrDie(R"(.kernel shared
entry:
    mov R1, #6
    shl R4, R0, #2
loop:
    ld.global R2, [R4]
    iadd R3, R2, R1
    imul R5, R3, R3
    tex R6, [R4+8]
    fadd R7, R6, R5
    st.global [R4], R7
    isub R1, R1, #1
    setgt R8, R1, #0
    @R8 bra loop
done:
    exit
)");
}

/** Warp w loops w + 1 times: no two warps share a path. */
Kernel
distinctStreamsKernel()
{
    return parseKernelOrDie(R"(.kernel distinct
entry:
    iadd R1, R0, #1
    shl R4, R0, #2
loop:
    ld.global R2, [R4]
    iadd R3, R2, R1
    setlt R9, R1, #3
    @R9 imul R5, R3, R3
    tex R6, [R4+8]
    fadd R7, R6, R5
    st.global [R4], R7
    isub R1, R1, #1
    setgt R8, R1, #0
    @R8 bra loop
done:
    exit
)");
}

TEST(Replay, EverySchemeMatchesDirectOnSharedAndDistinctStreams)
{
    const char *tokens[] = {"baseline", "hw2", "hw3", "sw2",
                            "sw3", "ccrfc", "regdem", "greener"};
    struct Case
    {
        Kernel kernel;
        int streams;
    };
    const int warps = 8;
    const Case cases[] = {{sharedStreamKernel(), 1},
                          {distinctStreamsKernel(), warps}};
    for (const Case &c : cases) {
        Workload w;
        w.name = c.kernel.name;
        w.kernel = c.kernel;
        w.run.numWarps = warps;
        ASSERT_EQ(recordDecodedTrace(w.kernel, w.run).numStreams(),
                  c.streams)
            << w.name;
        for (const char *token : tokens) {
            const SchemeInfo *si =
                SchemeRegistry::instance().findToken(token);
            ASSERT_NE(si, nullptr) << token;
            for (int entries : {1, 3, 6}) {
                ExperimentConfig cfg;
                cfg.scheme = si->scheme;
                cfg.entries = entries;
                cfg.engine = ExecEngine::DIRECT;
                RunOutcome direct = runScheme(w, cfg);
                EXPECT_TRUE(direct.ok()) << direct.error;
                cfg.engine = ExecEngine::REPLAY;
                EXPECT_EQ(outcomeToJson(runScheme(w, cfg)),
                          outcomeToJson(direct))
                    << w.name << " " << token << "@" << entries;
            }
        }
    }
}

TEST(Replay, FailureAtALaterWarpKeepsErrorAndPartialCounts)
{
    // Every warp but warp 2 takes "low", one shared stream; warp 2
    // takes "high", where an out-of-range ORF entry is planted. The
    // value-verifying executor first fails at warp 2, with the
    // partial counts of warps 0 and 1. Replay only counts: the static
    // allocation check owns the verdict, and flags the planted entry.
    Kernel k = parseKernelOrDie(R"(.kernel latefault
entry:
    seteq R1, R0, #2
    @R1 bra high
low:
    iadd R2, R0, #2
    bra out
high:
    iadd R2, R0, #3
out:
    iadd R3, R2, R2
    st.global [R0], R3
    exit
)");
    AllocOptions opts;
    opts.orfEntries = 3;
    opts.useLRF = true;
    opts.splitLRF = true;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    WriteAnnotation &wa = k.instr(4).writeAnno;  // iadd R2 on "high"
    wa.toLRF = false;
    wa.toORF = true;
    wa.toMRF = true;
    wa.orfEntry = static_cast<std::uint8_t>(opts.orfEntries);

    RunConfig run;
    run.numWarps = 8;
    const DecodedTrace trace = recordDecodedTrace(k, run);
    ASSERT_EQ(trace.numStreams(), 2);
    ASSERT_EQ(trace.multiplicity, std::vector<std::uint32_t>({7, 1}));

    // The verifying executor walks every warp in order, as the trace
    // driver did before warps shared streams.
    SwExecResult direct = runSwHierarchy(k, opts, run);
    ASSERT_NE(direct.error.find("ORF entry out of range"),
              std::string::npos)
        << direct.error;
    // Two clean 7-record warps, then warp 2 up to its failing record.
    EXPECT_EQ(direct.counts.instructions, 2u * 7u + 3u);

    const std::vector<std::string> violations =
        checkAllocationInvariants(k, opts, AnalysisBundle(k));
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations.front(),
              "@lin 4: write to ORF entry 3 exceeds capacity 3");
}

// ---- Deschedule segments: hw2, hw3, ccrfc and regdem; flat streams ----

/** 8 kernels per builtin profile plus the checked-in rptx corpus. */
std::vector<Workload>
segmentKernels()
{
    std::vector<Workload> ws;
    for (const ScenarioProfile &p : allProfiles())
        for (int i = 0; i < 8; i++)
            ws.push_back(corpusWorkload(p, 1, i));
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::recursive_directory_iterator(
             std::string(RFH_SOURCE_DIR) + "/tests/corpus"))
        if (e.path().extension() == ".rptx")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path &f : files) {
        std::ifstream in(f);
        std::ostringstream text;
        text << in.rdbuf();
        ParseResult parsed = parseKernel(text.str());
        EXPECT_TRUE(parsed.ok) << f << ": " << parsed.error;
        if (!parsed.ok)
            continue;
        Workload w;
        w.name = parsed.kernel.name;
        w.kernel = parsed.kernel;
        ws.push_back(std::move(w));
    }
    return ws;
}

/**
 * Expect REPLAY, which replays @p token per deschedule segment, to
 * report exactly what DIRECT does on @p w at each of @p entries.
 */
void
expectSegmentReplayMatchesDirect(const Workload &w, const char *token,
                                 std::initializer_list<int> entries,
                                 bool flushOnBackwardBranch = false)
{
    const SchemeInfo *si = SchemeRegistry::instance().findToken(token);
    ASSERT_NE(si, nullptr) << token;
    for (int e : entries) {
        ExperimentConfig cfg;
        cfg.scheme = si->scheme;
        cfg.entries = e;
        cfg.hwFlushOnBackwardBranch = flushOnBackwardBranch;
        cfg.engine = ExecEngine::DIRECT;
        const RunOutcome direct = runScheme(w, cfg);
        EXPECT_TRUE(direct.ok()) << w.name << " " << token << ": "
                                 << direct.error;
        cfg.engine = ExecEngine::REPLAY;
        EXPECT_EQ(outcomeToJson(runScheme(w, cfg)), outcomeToJson(direct))
            << w.name << " " << token << "@" << e;
    }
}

TEST(Replay, SegmentReplayMatchesDirect)
{
    // The flat schemes replay per distinct warp stream; they have no
    // entries axis.
    for (const Workload &w : segmentKernels()) {
        for (const char *token : {"hw2", "hw3", "ccrfc", "regdem"})
            expectSegmentReplayMatchesDirect(w, token, {1, 2, 3, 4, 6, 8});
        for (const char *token : {"baseline", "greener"})
            expectSegmentReplayMatchesDirect(w, token, {3});
    }
}

TEST(Replay, BackwardBranchFlushSegmentsMatchDirect)
{
    // The flush on a taken backward branch keeps the pending set, so
    // the variant deschedules at the same records and replays per
    // segment too (the Section 7 limit study runs it).
    for (const Workload &w : segmentKernels())
        for (const char *token : {"hw2", "hw3"})
            expectSegmentReplayMatchesDirect(w, token, {1, 3, 8},
                                             /*flushOnBackwardBranch=*/true);
}

TEST(Replay, SharedSegmentsAcrossDistinctStreams)
{
    // Warp w runs the loop w + 1 times, and each iteration's load is
    // read at the top of the next: four distinct streams, whose 14
    // segments are three distinct ones.
    Workload w;
    w.name = "shared_segments";
    w.kernel = parseKernelOrDie(R"(.kernel shared_segments
entry:
    iadd R1, R0, #1
    ld.global R3, [R0]
body:
    iadd R4, R3, #1
    isub R1, R1, #1
    ld.global R3, [R0]
    setgt R2, R1, #0
    @R2 bra body
out:
    st.global [R0], R4
    exit
)");
    w.run.numWarps = 4;
    const DecodedTrace trace = recordDecodedTrace(w.kernel, w.run);
    ASSERT_EQ(trace.numStreams(), 4);
    std::uint64_t segments = 0;
    for (const ReplayUnit &u : trace.segments)
        segments += u.weight;
    EXPECT_LT(trace.segments.size(), segments);

    for (const char *token : {"hw2", "hw3", "ccrfc", "regdem"})
        expectSegmentReplayMatchesDirect(w, token, {1, 3});
    for (bool flush : {false, true})
        expectSegmentReplayMatchesDirect(w, "hw3", {1, 3}, flush);

    // Every segment but the last of a warp ends in a deschedule; the
    // hardware cache counts each, register demotion none.
    AccessCounts hw;
    HwCacheConfig hc;
    hc.rfcEntries = 3;
    makeHwCacheAccounting(w.kernel, hc, nullptr, nullptr, hw)
        ->replay(trace);
    EXPECT_EQ(hw.deschedules, segments - 4);
    AccessCounts regdem;
    RegDemConfig rd;
    rd.entries = 1;
    makeRegDemAccounting(w.kernel, rd, nullptr, regdem)->replay(trace);
    EXPECT_EQ(regdem.deschedules, 0u);
    EXPECT_EQ(regdem.instructions, trace.instructions());
}

// ---- Property: per-executor count equality on random kernels ----

SynthParams
paramsFor(std::uint64_t seed)
{
    SynthParams p;
    p.seed = seed;
    p.strandsPerBody = 1 + static_cast<int>(seed % 3);
    p.opsPerStrand = 4 + static_cast<int>(seed % 11);
    p.loadsPerStrand = 1 + static_cast<int>(seed % 3);
    // Force control flow and predication into most cases: hammocks
    // diverge SIMT warps, predicated defs exercise the executed bit.
    p.pHammock = 0.25 + (seed % 4) * 0.25;
    p.pPredicated = 0.10 + (seed % 3) * 0.10;
    p.fracSfu = (seed % 5) * 0.05;
    p.recencyWindow = 2 + static_cast<int>(seed % 5);
    p.loopIters = 4 + static_cast<int>(seed % 8);
    p.useTex = seed % 7 == 0;
    return p;
}

class ReplayProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Drive the accounting @p make builds through both functional drivers
 * — the machine on @p run and the recorded @p trace — and expect
 * identical counts.
 */
template <typename Make>
void
expectDriversAgree(const Kernel &k, const RunConfig &run,
                   const DecodedTrace &trace, Make make,
                   const std::string &what)
{
    AccessCounts direct, replay;
    make(direct)->execute(k, run);
    make(replay)->replay(trace);
    EXPECT_EQ(countsJson(direct), countsJson(replay)) << what;
}

TEST_P(ReplayProperty, SwCountsMatchDirect)
{
    std::uint64_t seed = GetParam();
    Kernel k = generateSynthetic("prop", paramsFor(seed));
    ASSERT_EQ(k.validate(), "");

    AllocOptions opts;
    opts.orfEntries = 1 + static_cast<int>(seed % kMaxOrfEntries);
    opts.useLRF = seed % 2 == 0;
    opts.splitLRF = opts.useLRF && seed % 4 != 2;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);

    RunConfig run;
    DecodedTrace trace = recordDecodedTrace(k, run);
    SwExecResult direct = runSwHierarchy(k, opts, run);
    ASSERT_EQ(direct.error, "") << "seed=" << seed;
    EXPECT_EQ(countsJson(direct.counts),
              countsJson(replaySwHierarchy(k, opts, trace)))
        << "seed=" << seed;
    // The accountant the pipeline drives, with its own decode of the
    // annotated kernel, counts the same under both functional drivers.
    auto make = [&](AccessCounts &c) {
        return makeSwHierarchyAccounting(k, opts, nullptr, nullptr, c);
    };
    AccessCounts traced;
    make(traced)->replay(trace);
    EXPECT_EQ(countsJson(traced), countsJson(direct.counts))
        << "seed=" << seed;
    expectDriversAgree(k, run, trace, make,
                       "sw seed=" + std::to_string(seed));
}

TEST_P(ReplayProperty, BaselineCountsMatchDirect)
{
    std::uint64_t seed = GetParam();
    Kernel k = generateSynthetic("prop", paramsFor(seed));
    ASSERT_EQ(k.validate(), "");

    RunConfig run;
    DecodedTrace trace = recordDecodedTrace(k, run);
    AccessCounts direct = runBaseline(k, run);
    AccessCounts replay;
    makeFlatAccounting(k, nullptr, replay)->replay(trace);
    EXPECT_EQ(countsJson(direct), countsJson(replay)) << "seed=" << seed;
    expectDriversAgree(
        k, run, trace,
        [&](AccessCounts &c) { return makeFlatAccounting(k, nullptr, c); },
        "flat seed=" + std::to_string(seed));
}

TEST_P(ReplayProperty, HwCountsMatchDirect)
{
    std::uint64_t seed = GetParam();
    Kernel k = generateSynthetic("prop", paramsFor(seed));
    ASSERT_EQ(k.validate(), "");

    RunConfig run;
    DecodedTrace trace = recordDecodedTrace(k, run);
    const int entries = 1 + static_cast<int>(seed % kMaxOrfEntries);
    const std::string tag = " seed=" + std::to_string(seed);
    for (bool lrf : {false, true}) {
        HwCacheConfig cfg;
        cfg.rfcEntries = entries;
        cfg.useLRF = lrf;
        cfg.flushOnBackwardBranch = seed % 3 == 0;
        expectDriversAgree(
            k, run, trace,
            [&](AccessCounts &c) {
                return makeHwCacheAccounting(k, cfg, nullptr, nullptr, c);
            },
            "hw lrf=" + std::to_string(lrf) + tag);
    }
    CcRfcConfig cc;
    cc.entries = entries;
    expectDriversAgree(
        k, run, trace,
        [&](AccessCounts &c) {
            return makeCcRfcAccounting(k, cc, nullptr, nullptr, c);
        },
        "ccrfc" + tag);
    RegDemConfig rd;
    rd.entries = entries;
    expectDriversAgree(
        k, run, trace,
        [&](AccessCounts &c) {
            return makeRegDemAccounting(k, rd, nullptr, c);
        },
        "regdem" + tag);
}

TEST_P(ReplayProperty, SimtCountsMatchDirect)
{
    // The per-lane verifying SIMT executor at width 1 must count what
    // the scalar replay engine counts over the scalar trace.
    std::uint64_t seed = GetParam();
    Kernel k = generateSynthetic("prop", paramsFor(seed));
    ASSERT_EQ(k.validate(), "");

    AllocOptions opts;
    opts.orfEntries = 1 + static_cast<int>(seed % kMaxOrfEntries);
    opts.useLRF = seed % 2 == 0;
    opts.splitLRF = opts.useLRF;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);

    SimtExecConfig simt;
    simt.width = 1;
    RunConfig run;
    run.numWarps = simt.numWarps;
    run.maxInstrsPerWarp = simt.maxInstrsPerWarp;
    DecodedTrace trace = recordDecodedTrace(k, run);
    SwExecResult direct = runSwHierarchySimt(k, opts, simt);
    ASSERT_EQ(direct.error, "") << "seed=" << seed;
    EXPECT_EQ(countsJson(direct.counts),
              countsJson(replaySwHierarchy(k, opts, trace)))
        << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

} // namespace
} // namespace rfh
