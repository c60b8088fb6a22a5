/**
 * @file
 * Tests for the parallel, memoizing sweep engine: bestPoint edge
 * cases, baseline aggregation, memoization transparency, error
 * aggregation, and the determinism guarantee (parallel JSON reports
 * byte-identical to the single-thread run).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "compiler/allocator.h"
#include "core/experiment.h"
#include "core/json.h"
#include "core/memo.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "core/sweep.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "sim/baseline_exec.h"
#include "workloads/profiles.h"

namespace rfh {
namespace {

SweepPoint
point(Scheme s, int entries, double energy, double baseline)
{
    SweepPoint p;
    p.scheme = s;
    p.entries = entries;
    p.outcome.energyPJ = energy;
    p.outcome.baselineEnergyPJ = baseline;
    return p;
}

TEST(BestPoint, EmptyVectorYieldsNull)
{
    std::vector<SweepPoint> none;
    EXPECT_EQ(bestPoint(none, Scheme::SW_THREE_LEVEL), nullptr);
}

TEST(BestPoint, AbsentSchemeYieldsNull)
{
    std::vector<SweepPoint> pts = {
        point(Scheme::HW_TWO_LEVEL, 1, 5.0, 10.0),
    };
    EXPECT_EQ(bestPoint(pts, Scheme::SW_THREE_LEVEL), nullptr);
}

TEST(BestPoint, TieKeepsTheEarliestPoint)
{
    // Equal normalised energy at entries 2 and 5: the first point in
    // sweep order (the smaller size) must win, deterministically.
    std::vector<SweepPoint> pts = {
        point(Scheme::SW_TWO_LEVEL, 1, 8.0, 10.0),
        point(Scheme::SW_TWO_LEVEL, 2, 5.0, 10.0),
        point(Scheme::SW_TWO_LEVEL, 5, 5.0, 10.0),
    };
    const SweepPoint *best = bestPoint(pts, Scheme::SW_TWO_LEVEL);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->entries, 2);
}

TEST(BestPoint, ZeroBaselineNormalisesToZeroAndStillResolves)
{
    std::vector<SweepPoint> pts = {
        point(Scheme::SW_TWO_LEVEL, 1, 5.0, 0.0),
        point(Scheme::SW_TWO_LEVEL, 2, 4.0, 0.0),
    };
    const SweepPoint *best = bestPoint(pts, Scheme::SW_TWO_LEVEL);
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(best->entries, 1);  // both normalise to 0; first wins
}

TEST(Sweep, AggregateBaselineCountsMatchesManualSum)
{
    AccessCounts agg = aggregateBaselineCounts();
    AccessCounts manual;
    for (const Workload &w : allWorkloads())
        manual.add(runBaseline(w.kernel, w.run));
    EXPECT_EQ(agg.allReads(), manual.allReads());
    EXPECT_EQ(agg.allWrites(), manual.allWrites());
    EXPECT_EQ(agg.instructions, manual.instructions);
    // Memoized: a second call returns the identical aggregate.
    AccessCounts again = aggregateBaselineCounts();
    EXPECT_EQ(again.allReads(), agg.allReads());
    EXPECT_EQ(again.instructions, agg.instructions);
}

std::string
countsJson(const AccessCounts &c)
{
    JsonWriter w;
    writeJson(w, c);
    return w.str();
}

TEST(Memo, BaselineCacheIsTransparent)
{
    // The memo replays the flat accountant over the recorded trace;
    // runBaseline drives it on the functional machine.
    for (const Workload &w : allWorkloads()) {
        const AccessCounts &cached =
            globalExperimentCache().baseline(w.kernel, w.run);
        EXPECT_EQ(countsJson(cached),
                  countsJson(runBaseline(w.kernel, w.run)))
            << w.name;
        // Same kernel, same run config: the same entry is served.
        EXPECT_EQ(&globalExperimentCache().baseline(w.kernel, w.run),
                  &cached);
    }
}

TEST(Memo, BaselineOnlyBatchRecordsOneTracePerKernel)
{
    // The flat schemes need neither the analyses nor the decode: a
    // batch of them records each kernel's trace once, and the
    // baseline counts and every run replay it.
    const char *names[] = {"vectoradd", "reduction", "lu"};
    std::vector<BatchItem> items;
    for (const char *name : names) {
        for (const char *token : {"baseline", "greener"}) {
            BatchItem it;
            it.workload = &workloadByName(name);
            it.cfg.scheme = SchemeRegistry::instance().findToken(token)
                                ->scheme;
            items.push_back(it);
        }
    }
    ExperimentCache &cache = globalExperimentCache();
    cache.clear();
    const ExperimentCache::Stats a = cache.stats();
    for (const RunOutcome &out : replayBatch(items))
        EXPECT_TRUE(out.ok()) << out.error;
    const ExperimentCache::Stats b = cache.stats();
    EXPECT_EQ(b.traceMisses - a.traceMisses, 3u);
    EXPECT_EQ(b.traceHits - a.traceHits, 6u);
    EXPECT_EQ(b.baselineMisses - a.baselineMisses, 3u);
    EXPECT_EQ(b.analysisHits + b.analysisMisses,
              a.analysisHits + a.analysisMisses);
    EXPECT_EQ(b.decodeHits + b.decodeMisses,
              a.decodeHits + a.decodeMisses);
    EXPECT_EQ(b.planHits + b.planMisses, a.planHits + a.planMisses);
    EXPECT_EQ(cache.entryCount(), 6u);
    cache.clear();
}

TEST(Memo, AnalysesSharedAcrossAnnotatedCopies)
{
    const Workload &w = workloadByName("vectoradd");
    auto a = globalExperimentCache().analyses(w.kernel);
    // An annotated copy has identical structure and must hit the same
    // bundle (annotations are excluded from the fingerprint).
    Kernel copy = w.kernel;
    if (copy.numInstrs() > 0)
        copy.instr(0).writeAnno.toORF = true;
    auto b = globalExperimentCache().analyses(copy);
    EXPECT_EQ(a.get(), b.get());
}

TEST(Memo, FingerprintDistinguishesStructure)
{
    const Kernel base = parseKernelOrDie(R"(.kernel fp
entry:
    iadd R1, R0, #1
    imul.wide R2, R1, R0
    ld.global R4, [R63+4]
    setgt R5, R4, #0
    @R5 bra done
body:
    iadd R6, R1, R4
done:
    exit
)");
    // Linear indices into base.
    const int IADD = 0, WIDE = 1, LOAD = 2, BRA = 4;
    std::vector<std::pair<std::string, Kernel>> variants;
    auto mutate = [&](const char *what, auto edit) {
        Kernel k = base;
        edit(k);
        variants.emplace_back(what, std::move(k));
    };
    mutate("base", [](Kernel &) {});
    mutate("op", [&](Kernel &k) { k.instr(IADD).op = Opcode::ISUB; });
    mutate("dst", [&](Kernel &k) { k.instr(IADD).dst = Reg{7}; });
    // R1 where #1 was: the same number, now a register.
    mutate("reg-vs-imm", [&](Kernel &k) {
        k.instr(IADD).srcs[1] = SrcOperand::makeReg(1);
    });
    mutate("imm", [&](Kernel &k) { k.instr(IADD).srcs[1].imm = 2; });
    mutate("pred", [&](Kernel &k) { k.instr(BRA).pred = Reg{4}; });
    mutate("target", [&](Kernel &k) { k.instr(BRA).branchTarget = 1; });
    mutate("wide", [&](Kernel &k) { k.instr(WIDE).wide = false; });
    mutate("memOffset", [&](Kernel &k) { k.instr(LOAD).memOffset = 8; });
    mutate("name", [](Kernel &k) { k.name = "fq"; });
    // The same instruction sequence, cut into blocks elsewhere.
    mutate("blocks", [](Kernel &k) {
        k.blocks[0].instrs.push_back(k.blocks[1].instrs.front());
        k.blocks[1].instrs.erase(k.blocks[1].instrs.begin());
        k.blocks[1].instrs.push_back(k.blocks[2].instrs.front());
        k.blocks.pop_back();
        k.finalize();
    });
    for (std::size_t a = 0; a < variants.size(); a++)
        for (std::size_t b = a + 1; b < variants.size(); b++)
            EXPECT_NE(kernelFingerprint(variants[a].second),
                      kernelFingerprint(variants[b].second))
                << variants[a].first << " vs " << variants[b].first;

    Kernel annotated = base;
    annotated.instr(IADD).writeAnno.toORF = true;
    annotated.instr(IADD).writeAnno.orfEntry = 2;
    annotated.instr(IADD).readAnno[0].level = Level::LRF;
    annotated.instr(WIDE).endOfStrand = true;
    EXPECT_EQ(kernelFingerprint(base), kernelFingerprint(annotated));
}

TEST(Memo, ConcurrentFirstLookupsComputeOnce)
{
    const Workload &w = workloadByName("reduction");
    ExperimentCache cache;
    constexpr int kThreads = 8;
    struct Seen
    {
        const AccessCounts *baseline = nullptr;
        const void *analyses = nullptr, *trace = nullptr,
                   *decode = nullptr, *plan = nullptr;
    };
    std::vector<Seen> seen(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            ready++;
            while (ready.load() < kThreads) {
            }
            ExperimentCache::Inputs in = cache.inputs(w.kernel, &w.run);
            // Each thread asks in a different order.
            for (int q = 0; q < 5; q++) {
                switch ((q + t) % 5) {
                  case 0: seen[t].baseline = &in.baseline(); break;
                  case 1: seen[t].analyses = in.analyses().get(); break;
                  case 2: seen[t].trace = in.trace().get(); break;
                  case 3: seen[t].decode = in.decode().get(); break;
                  case 4:
                    seen[t].plan = in.allocationPlan({}).get();
                    break;
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 1; t < kThreads; t++) {
        EXPECT_EQ(seen[t].baseline, seen[0].baseline) << t;
        EXPECT_EQ(seen[t].analyses, seen[0].analyses) << t;
        EXPECT_EQ(seen[t].trace, seen[0].trace) << t;
        EXPECT_EQ(seen[t].decode, seen[0].decode) << t;
        EXPECT_EQ(seen[t].plan, seen[0].plan) << t;
    }
    ExperimentCache::Stats s = cache.stats();
    EXPECT_EQ(s.baselineMisses, 1u);
    EXPECT_EQ(s.baselineHits, kThreads - 1u);
    // The decode's and the plan's fills each read the analyses once
    // more.
    EXPECT_EQ(s.analysisMisses, 1u);
    EXPECT_EQ(s.analysisHits, kThreads + 1u);
    // The baseline's fill replays the trace, reading it once more.
    EXPECT_EQ(s.traceMisses, 1u);
    EXPECT_EQ(s.traceHits, std::uint64_t{kThreads});
    EXPECT_EQ(s.decodeMisses, 1u);
    EXPECT_EQ(s.decodeHits, kThreads - 1u);
    EXPECT_EQ(s.planMisses, 1u);
    EXPECT_EQ(s.planHits, kThreads - 1u);
    EXPECT_EQ(cache.entryCount(), 5u);
    cache.clear();
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(Memo, HeldHandleOutlivesClear)
{
    const Workload &w = workloadByName("lu");
    ExperimentCache cache;
    ExperimentCache::Inputs in = cache.inputs(w.kernel, &w.run);
    std::shared_ptr<const AnalysisBundle> a = in.analyses();
    std::shared_ptr<const AllocationPlan> p = in.allocationPlan({});
    cache.clear();
    // The handle still owns its entry: filled inputs are served, and
    // cold ones fill into the detached entry.
    EXPECT_EQ(in.analyses().get(), a.get());
    EXPECT_EQ(in.allocationPlan({}).get(), p.get());
    StrandOptions uncut;
    uncut.cutAtUncertainMerge = false;
    std::shared_ptr<const AllocationPlan> cold = in.allocationPlan(uncut);
    EXPECT_NE(cold.get(), p.get());
    EXPECT_EQ(cold->strands.numStrands(),
              StrandAnalysis(w.kernel, a->cfg, uncut).numStrands());
    EXPECT_EQ(in.trace()->instructions(), in.baseline().instructions);
    EXPECT_NE(cache.inputs(w.kernel, &w.run).key(), in.key());
    // Inputs filled into the dropped entry are not counted.
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(Memo, ReplayBatchStatsDeltasArePinned)
{
    // One hit or miss per input a run uses, plus the pre-warm's own
    // lookups, as (hits, misses) of baseline, analysis, trace, decode
    // and allocation plan. Pinned so the cache's layout cannot change
    // what it counts. Per kernel: the decode's and the plan's fills
    // each read the analyses once; the baseline's fill records the
    // trace, which all four cells replay (baseline included); sw3
    // replays read the decode (its fast path takes the touched/defined
    // sets from it); both sw3 cells share one plan (same
    // StrandOptions).
    const char *names[] = {"vectoradd", "reduction", "lu"};
    const std::pair<Scheme, int> cells[] = {
        {Scheme::SW_THREE_LEVEL, 1}, {Scheme::SW_THREE_LEVEL, 3},
        {Scheme::HW_TWO_LEVEL, 2}, {Scheme::BASELINE, 1}};
    struct Want
    {
        bool perf;
        std::uint64_t v[10];
    };
    const Want wants[] = {
        {false, {12, 3, 15, 3, 12, 3, 9, 3, 6, 3}},
        {true, {12, 3, 15, 3, 12, 3, 12, 3, 6, 3}},
    };
    ExperimentCache &cache = globalExperimentCache();
    for (const Want &want : wants) {
        std::vector<BatchItem> items;
        for (const char *name : names) {
            for (const auto &[scheme, entries] : cells) {
                BatchItem it;
                it.workload = &workloadByName(name);
                it.cfg.scheme = scheme;
                it.cfg.entries = entries;
                it.cfg.perf = want.perf;
                items.push_back(it);
            }
        }
        cache.clear();
        const ExperimentCache::Stats a = cache.stats();
        replayBatch(items);
        const ExperimentCache::Stats b = cache.stats();
        const std::uint64_t got[10] = {
            b.baselineHits - a.baselineHits,
            b.baselineMisses - a.baselineMisses,
            b.analysisHits - a.analysisHits,
            b.analysisMisses - a.analysisMisses,
            b.traceHits - a.traceHits,
            b.traceMisses - a.traceMisses,
            b.decodeHits - a.decodeHits,
            b.decodeMisses - a.decodeMisses,
            b.planHits - a.planHits,
            b.planMisses - a.planMisses};
        for (int i = 0; i < 10; i++)
            EXPECT_EQ(got[i], want.v[i]) << "perf=" << want.perf
                                         << " counter " << i;
    }
    cache.clear();
}

TEST(Memo, AllocationPlanComputedOncePerKernelAndStrandOptions)
{
    const Workload &w = workloadByName("reduction");
    ExperimentCache &cache = globalExperimentCache();
    const Timer &instances =
        globalMetrics().timer("alloc.phase.instances");
    auto cell = [&](Scheme scheme, int entries) {
        BatchItem it;
        it.workload = &w;
        it.cfg.scheme = scheme;
        it.cfg.entries = entries;
        return it;
    };

    // One kernel's 12 sw cells share one plan: the pre-warm computes
    // it, and every run reads it.
    std::vector<BatchItem> items;
    for (Scheme scheme : {Scheme::SW_TWO_LEVEL, Scheme::SW_THREE_LEVEL})
        for (int entries : {1, 2, 3, 4, 6, 8})
            items.push_back(cell(scheme, entries));
    cache.clear();
    const ExperimentCache::Stats a = cache.stats();
    const std::uint64_t built = instances.count();
    for (const RunOutcome &out : replayBatch(items))
        EXPECT_TRUE(out.ok()) << out.error;
    const ExperimentCache::Stats b = cache.stats();
    EXPECT_EQ(b.planMisses - a.planMisses, 1u);
    EXPECT_EQ(b.planHits - a.planHits, 12u);
    EXPECT_EQ(instances.count() - built, 1u);

    // Other strand options get their own slots.
    BatchItem ideal = cell(Scheme::SW_THREE_LEVEL, 3);
    ideal.cfg.strandOptions.idealNoFlush = true;
    ideal.cfg.strandOptions.cutAtUncertainMerge = false;
    BatchItem uncut = cell(Scheme::SW_TWO_LEVEL, 3);
    uncut.cfg.strandOptions.cutAtUncertainMerge = false;
    for (const RunOutcome &out :
         replayBatch({ideal, uncut, cell(Scheme::SW_THREE_LEVEL, 3)}))
        EXPECT_TRUE(out.ok()) << out.error;
    const ExperimentCache::Stats c = cache.stats();
    EXPECT_EQ(c.planMisses - a.planMisses, 3u);
    EXPECT_EQ(instances.count() - built, 3u);

    ExperimentCache::Inputs in = cache.inputs(w.kernel);
    const AllocationPlan *cut = in.allocationPlan({}).get();
    const AllocationPlan *idealPlan =
        in.allocationPlan(ideal.cfg.strandOptions).get();
    const AllocationPlan *uncutPlan =
        in.allocationPlan(uncut.cfg.strandOptions).get();
    EXPECT_NE(cut, idealPlan);
    EXPECT_NE(cut, uncutPlan);
    EXPECT_NE(idealPlan, uncutPlan);
    EXPECT_TRUE(idealPlan->options == ideal.cfg.strandOptions);
    EXPECT_TRUE(uncutPlan->options == uncut.cfg.strandOptions);
    cache.clear();
}

/** Every AllocStats field of @p a and @p b is equal. */
void
expectSameStats(const AllocStats &a, const AllocStats &b,
                const std::string &where)
{
    EXPECT_EQ(a.strands, b.strands) << where;
    EXPECT_EQ(a.valueInstances, b.valueInstances) << where;
    EXPECT_EQ(a.readInstances, b.readInstances) << where;
    EXPECT_EQ(a.lrfValues, b.lrfValues) << where;
    EXPECT_EQ(a.orfValuesFull, b.orfValuesFull) << where;
    EXPECT_EQ(a.orfValuesPartial, b.orfValuesPartial) << where;
    EXPECT_EQ(a.orfReadsFull, b.orfReadsFull) << where;
    EXPECT_EQ(a.orfReadsPartial, b.orfReadsPartial) << where;
    EXPECT_EQ(a.mrfWritesElided, b.mrfWritesElided) << where;
    EXPECT_EQ(a.predictedSavingsPJ, b.predictedSavingsPJ) << where;
    EXPECT_EQ(a.strandSavings, b.strandSavings) << where;
}

TEST(Memo, SharedPlanAllocatesLikeALocalPlan)
{
    std::vector<Kernel> kernels;
    for (const ScenarioProfile &p : allProfiles())
        for (int i = 0; i < 8; i++)
            kernels.push_back(corpusWorkload(p, 1, i).kernel);
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(RFH_SOURCE_DIR) + "/tests/corpus/wide_pair"))
        files.push_back(e.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        std::ifstream f(path);
        std::stringstream text;
        text << f.rdbuf();
        kernels.push_back(parseKernelOrDie(text.str()));
    }

    PrintOptions annotated;
    annotated.annotations = true;
    annotated.strands = true;
    ExperimentCache cache;
    for (const Kernel &k : kernels) {
        ExperimentCache::Inputs in = cache.inputs(k);
        for (int mask = 0; mask < 4; mask++) {
            StrandOptions so;
            so.cutAtUncertainMerge = (mask & 1) != 0;
            so.idealNoFlush = (mask & 2) != 0;
            std::shared_ptr<const AllocationPlan> plan =
                in.allocationPlan(so);
            for (Scheme scheme :
                 {Scheme::SW_TWO_LEVEL, Scheme::SW_THREE_LEVEL}) {
                const SchemeBackend &backend =
                    *SchemeRegistry::instance().find(scheme)->backend;
                for (int entries : {1, 3, 8}) {
                    ExperimentConfig cfg;
                    cfg.scheme = scheme;
                    cfg.entries = entries;
                    cfg.strandOptions = so;
                    Kernel shared = k;
                    Kernel local = k;
                    const AllocStats s = backend.allocate(
                        shared, cfg, in.analyses().get(), plan.get());
                    const AllocStats l =
                        backend.allocate(local, cfg, nullptr, nullptr);
                    const std::string where = k.name + " " +
                        std::string(schemeName(scheme)) + "@" +
                        std::to_string(entries) + " mask " +
                        std::to_string(mask);
                    EXPECT_EQ(printKernel(shared, annotated),
                              printKernel(local, annotated))
                        << where;
                    expectSameStats(s, l, where);
                }
            }
        }
    }
}

TEST(Experiment, ErrorAggregationCollectsEveryFailure)
{
    RunOutcome agg;
    RunOutcome okOne, bad1, bad2;
    bad1.error = "first failure";
    bad2.error = "second failure";
    accumulateOutcome(agg, okOne, "fine");
    accumulateOutcome(agg, bad1, "wl_a");
    accumulateOutcome(agg, okOne, "also_fine");
    accumulateOutcome(agg, bad2, "wl_b");
    EXPECT_FALSE(agg.ok());
    EXPECT_EQ(agg.error, "wl_a: first failure; wl_b: second failure");
}

TEST(Sweep, ParallelReportByteIdenticalToSequential)
{
    std::vector<Scheme> schemes = {Scheme::HW_TWO_LEVEL,
                                   Scheme::SW_THREE_LEVEL};
    ExperimentConfig base;

    ThreadPool sequential(1);
    ThreadPool parallel(4);
    SweepTiming seqTiming, parTiming;
    auto seqPts = sweepEntries(schemes, base, &sequential, &seqTiming);
    auto parPts = sweepEntries(schemes, base, &parallel, &parTiming);

    // The headline guarantee: the serialised report of the parallel
    // run is byte-identical to the single-thread (historical) path.
    EXPECT_EQ(sweepToJson(parPts), sweepToJson(seqPts));

    // And not only the summary series: every aggregated outcome
    // (counts, energies, allocation stats) serialises identically.
    ASSERT_EQ(parPts.size(), seqPts.size());
    for (std::size_t i = 0; i < parPts.size(); i++)
        EXPECT_EQ(outcomeToJson(parPts[i].outcome),
                  outcomeToJson(seqPts[i].outcome))
            << "point " << i;

    EXPECT_EQ(seqTiming.threads, 1);
    EXPECT_EQ(parTiming.threads, 4);
    EXPECT_GT(seqTiming.wallSec, 0.0);
    EXPECT_GT(parTiming.cpuSec, 0.0);
}

TEST(Sweep, RunAllWorkloadsMatchesAcrossPools)
{
    ExperimentConfig cfg;
    cfg.scheme = Scheme::SW_TWO_LEVEL;
    cfg.entries = 2;
    ThreadPool sequential(1);
    ThreadPool parallel(3);
    RunOutcome a = runAllWorkloads(cfg, &sequential);
    RunOutcome b = runAllWorkloads(cfg, &parallel);
    EXPECT_EQ(outcomeToJson(a), outcomeToJson(b));
    EXPECT_DOUBLE_EQ(a.energyPJ, b.energyPJ);
    EXPECT_DOUBLE_EQ(a.baselineEnergyPJ, b.baselineEnergyPJ);
}

TEST(Sweep, TimingJsonSerialises)
{
    std::vector<SweepPoint> pts = {
        point(Scheme::SW_TWO_LEVEL, 3, 5.0, 10.0),
    };
    pts[0].cpuSec = 0.25;
    pts[0].outcome.phases.analyzeSec = 0.1;
    SweepTiming t;
    t.wallSec = 0.5;
    t.cpuSec = 1.0;
    t.threads = 4;
    std::string json = sweepTimingsToJson(pts, t);
    EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
    EXPECT_NE(json.find("\"speedup\":2"), std::string::npos);
    EXPECT_NE(json.find("\"analyzeSec\":0.1"), std::string::npos);
    EXPECT_NE(json.find("\"scheme\":\"SW\""), std::string::npos);
}

} // namespace
} // namespace rfh
