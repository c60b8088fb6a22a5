/**
 * @file
 * google-benchmark microbenchmarks of the toolchain itself: allocator
 * throughput, simulator throughput, and analysis costs. These guard
 * against performance regressions in the library (the figure harnesses
 * re-run every workload many times).
 */

#include <benchmark/benchmark.h>

#include "compiler/allocator.h"
#include "core/memo.h"
#include "core/parallel.h"
#include "core/sweep.h"
#include "ir/cfg_analysis.h"
#include "ir/liveness.h"
#include "ir/reaching_defs.h"
#include "sim/baseline_exec.h"
#include "sim/hw_cache.h"
#include "sim/pipeline.h"
#include "sim/pipeline_account.h"
#include "sim/sw_exec.h"
#include "sim/trace.h"
#include "workloads/registry.h"

namespace {

using namespace rfh;

const Kernel &
bigKernel()
{
    return workloadByName("nbody").kernel;
}

void
BM_CfgAndLiveness(benchmark::State &state)
{
    const Kernel &k = bigKernel();
    for (auto _ : state) {
        Cfg cfg(k);
        Liveness live(k, cfg);
        benchmark::DoNotOptimize(live.liveIn(0));
    }
}
BENCHMARK(BM_CfgAndLiveness);

void
BM_ReachingDefs(benchmark::State &state)
{
    const Kernel &k = bigKernel();
    Cfg cfg(k);
    for (auto _ : state) {
        ReachingDefs rd(k, cfg);
        benchmark::DoNotOptimize(rd.numDefs());
    }
}
BENCHMARK(BM_ReachingDefs);

void
BM_AllocatorThreeLevel(benchmark::State &state)
{
    Kernel k = bigKernel();
    AllocOptions opts;
    opts.orfEntries = static_cast<int>(state.range(0));
    opts.useLRF = true;
    opts.splitLRF = true;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    for (auto _ : state) {
        AllocStats stats = alloc.run(k);
        benchmark::DoNotOptimize(stats.orfValuesFull);
    }
    state.SetItemsProcessed(state.iterations() * k.numInstrs());
}
BENCHMARK(BM_AllocatorThreeLevel)->Arg(1)->Arg(3)->Arg(8);

void
BM_BaselineExec(benchmark::State &state)
{
    const Kernel &k = bigKernel();
    RunConfig run;
    for (auto _ : state) {
        AccessCounts c = runBaseline(k, run);
        benchmark::DoNotOptimize(c.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                c.instructions);
    }
}
BENCHMARK(BM_BaselineExec);

void
BM_HwCacheExec(benchmark::State &state)
{
    const Kernel &k = bigKernel();
    HwCacheConfig cfg;
    cfg.useLRF = true;
    RunConfig run;
    for (auto _ : state) {
        AccessCounts c;
        makeHwCacheAccounting(k, cfg, nullptr, nullptr, c)
            ->execute(k, run);
        benchmark::DoNotOptimize(c.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                c.instructions);
    }
}
BENCHMARK(BM_HwCacheExec);

void
BM_SwExec(benchmark::State &state)
{
    Kernel k = bigKernel();
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = true;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    for (auto _ : state) {
        SwExecResult r = runSwHierarchy(k, opts);
        benchmark::DoNotOptimize(r.counts.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                r.counts.instructions);
    }
}
BENCHMARK(BM_SwExec);

// ---- Execution-engine benchmarks ----
//
// BM_TraceRecord prices the one-time recording of the pre-decoded
// dynamic stream; BM_ExecDirect vs. BM_ExecReplay compare the two
// execute-phase engines on the same annotated kernel. Replay amortises
// one recording over every (scheme, entries) grid cell, so its
// per-cell win is the items/sec ratio of these two benchmarks.

void
BM_TraceRecord(benchmark::State &state)
{
    const Workload &w = workloadByName("nbody");
    for (auto _ : state) {
        DecodedTrace t = recordDecodedTrace(w.kernel, w.run);
        benchmark::DoNotOptimize(t.lin.data());
        state.SetItemsProcessed(state.items_processed() +
                                t.instructions());
    }
}
BENCHMARK(BM_TraceRecord);

void
BM_ExecDirect(benchmark::State &state)
{
    const Workload &w = workloadByName("nbody");
    Kernel k = w.kernel;
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = true;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    for (auto _ : state) {
        SwExecResult r = runSwHierarchy(k, opts, w.run);
        benchmark::DoNotOptimize(r.counts.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                r.counts.instructions);
    }
}
BENCHMARK(BM_ExecDirect);

void
BM_ExecReplay(benchmark::State &state)
{
    const Workload &w = workloadByName("nbody");
    Kernel k = w.kernel;
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = true;
    HierarchyAllocator alloc(EnergyParams{}, opts);
    alloc.run(k);
    DecodedTrace trace = recordDecodedTrace(w.kernel, w.run);
    for (auto _ : state) {
        AccessCounts c = replaySwHierarchy(k, opts, trace);
        benchmark::DoNotOptimize(c.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                c.instructions);
    }
}
BENCHMARK(BM_ExecReplay);

// ---- Cycle-level pipeline benchmarks ----
//
// BM_PipelineCycle prices one simulated cycle of the staged SM
// pipeline (issue / collector+banks / exec / writeback) on a recorded
// trace; items/sec is cycles/sec. The Arg is the two-level active-set
// size — 32 degenerates to flat round-robin, so the pair also shows
// what the swap machinery costs. BM_PipelineOneBank maximises bank
// pressure (every operand pair conflicts), the collector's worst case.

void
BM_PipelineCycle(benchmark::State &state)
{
    const Workload &w = workloadByName("nbody");
    DecodedTrace trace = recordDecodedTrace(w.kernel, w.run);
    ReplayDecode dec(w.kernel);
    PipelineConfig cfg;
    cfg.activeWarps = static_cast<int>(state.range(0));
    for (auto _ : state) {
        AccessCounts counts;
        auto acct = makeFlatAccounting(w.kernel, &dec, counts);
        PipelineResult r = runPipeline(trace, dec, *acct, cfg);
        benchmark::DoNotOptimize(r.stats.cycles);
        state.SetItemsProcessed(state.items_processed() +
                                r.stats.cycles);
    }
}
BENCHMARK(BM_PipelineCycle)->Arg(8)->Arg(32);

void
BM_PipelineOneBank(benchmark::State &state)
{
    const Workload &w = workloadByName("nbody");
    DecodedTrace trace = recordDecodedTrace(w.kernel, w.run);
    ReplayDecode dec(w.kernel);
    PipelineConfig cfg;
    cfg.banks.numBanks = 1;
    for (auto _ : state) {
        AccessCounts counts;
        auto acct = makeFlatAccounting(w.kernel, &dec, counts);
        PipelineResult r = runPipeline(trace, dec, *acct, cfg);
        benchmark::DoNotOptimize(r.stats.bankConflicts);
        state.SetItemsProcessed(state.items_processed() +
                                r.stats.cycles);
    }
}
BENCHMARK(BM_PipelineOneBank);

// ---- Experiment-engine benchmarks ----

const std::vector<Scheme> &
allSchemes()
{
    static const std::vector<Scheme> s = {
        Scheme::BASELINE, Scheme::HW_TWO_LEVEL, Scheme::HW_THREE_LEVEL,
        Scheme::SW_TWO_LEVEL, Scheme::SW_THREE_LEVEL,
    };
    return s;
}

/**
 * Full 5-scheme x 8-entry x 36-workload sweep on one thread vs. the
 * default pool. Caches are warmed up front so both variants measure
 * the grid execution itself; the ratio of these two benchmarks is the
 * engine's parallel speedup on this host.
 */
void
BM_SweepSequential(benchmark::State &state)
{
    sweepEntries(allSchemes(), ExperimentConfig{});  // warm caches
    ThreadPool pool(1);
    for (auto _ : state) {
        auto pts = sweepEntries(allSchemes(), ExperimentConfig{}, &pool);
        benchmark::DoNotOptimize(pts.data());
    }
}
BENCHMARK(BM_SweepSequential)->Unit(benchmark::kMillisecond);

void
BM_SweepParallel(benchmark::State &state)
{
    sweepEntries(allSchemes(), ExperimentConfig{});  // warm caches
    ThreadPool pool;  // defaultThreadCount() / RFH_THREADS
    for (auto _ : state) {
        auto pts = sweepEntries(allSchemes(), ExperimentConfig{}, &pool);
        benchmark::DoNotOptimize(pts.data());
    }
    state.counters["threads"] =
        static_cast<double>(pool.threadCount());
}
BENCHMARK(BM_SweepParallel)->Unit(benchmark::kMillisecond);

/**
 * Memoized baseline lookup (compare against BM_BaselineExec, the cost
 * of computing the same counts from scratch at every sweep point).
 */
void
BM_BaselineCacheHit(benchmark::State &state)
{
    const Workload &w = workloadByName("nbody");
    ExperimentCache &cache = globalExperimentCache();
    cache.baseline(w.kernel, w.run);  // warm
    for (auto _ : state) {
        const AccessCounts &c = cache.baseline(w.kernel, w.run);
        benchmark::DoNotOptimize(c.instructions);
    }
}
BENCHMARK(BM_BaselineCacheHit);

} // namespace

BENCHMARK_MAIN();
