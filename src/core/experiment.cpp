#include "core/experiment.h"

#include <algorithm>
#include <map>

#include "compiler/allocator.h"
#include "core/memo.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "core/trace_events.h"
#include "sim/trace.h"
#include "verify/oracle.h"

namespace rfh {

namespace {

/**
 * Engine metrics, registered once and accumulated with relaxed
 * atomics — runScheme's hot path never takes the registry mutex.
 */
struct EngineMetrics
{
    Counter &runs = globalMetrics().counter("engine.runs");
    Counter &runsDirect = globalMetrics().counter("engine.runs.direct");
    Counter &runsReplay = globalMetrics().counter("engine.runs.replay");
    Counter &dynInstrs =
        globalMetrics().counter("engine.execute.dynInstrs");
    Timer &analyze = globalMetrics().timer("engine.phase.analyze");
    Timer &trace = globalMetrics().timer("engine.phase.trace");
    Timer &allocate = globalMetrics().timer("engine.phase.allocate");
    Timer &execute = globalMetrics().timer("engine.phase.execute");
    Histogram &runInstrs =
        globalMetrics().histogram("engine.run.dynInstrs");
};

/** Cycle-level pipeline observability (sim.pipeline.*). */
struct PipelineMetrics
{
    Counter &runs = globalMetrics().counter("sim.pipeline.runs");
    Counter &cycles = globalMetrics().counter("sim.pipeline.cycles");
    Counter &issued = globalMetrics().counter("sim.pipeline.issued");
    Counter &swaps = globalMetrics().counter("sim.pipeline.swaps");
    Counter &bankConflicts =
        globalMetrics().counter("sim.pipeline.bankConflicts");
    Timer &run = globalMetrics().timer("sim.pipeline.run");
};

/**
 * Which memoized inputs and passes one run needs: runScheme gathers
 * exactly these and replayBatch pre-warms them.
 */
struct RunPlan
{
    ExecEngine engine = ExecEngine::REPLAY; ///< Resolved: never AUTO.
    bool analyses = false; ///< CFG/liveness/reaching-defs bundle.
    bool replay = false;   ///< simulate() walks the decoded trace.
    bool pipeline = false; ///< The cycle-level pipeline runs.
    bool trace = false;    ///< Decoded trace (replay or pipeline).
    bool decode = false;   ///< Pristine-kernel ReplayDecode.
};

RunPlan
planRun(const SchemeCaps &caps, const ExperimentConfig &cfg)
{
    RunPlan p;
    p.engine = resolveEngine(cfg.engine);
    // The allocator and its static check read the bundle too.
    p.analyses = caps.usesAnalyses || caps.usesAllocator;
    p.replay = p.engine == ExecEngine::REPLAY && caps.usesTrace;
    p.pipeline = cfg.perf && caps.pipelined;
    p.trace = p.replay || p.pipeline;
    p.decode = p.pipeline || (p.replay && caps.wantsDecode);
    return p;
}

/**
 * The cycle-level pipeline over ctx.kernel, with the scheme's
 * accounting at issue. The pristine-kernel decode @p dec drives the
 * engine: annotations change neither latencies nor scoreboard sets.
 */
SchemePipelineResult
pipelinePass(const SchemeInfo &si, const SchemeRunContext &ctx,
             const DecodedTrace &trace, const ReplayDecode &dec)
{
    SchemePipelineResult out;
    PipelineBuildContext build;
    build.kernel = ctx.kernel;
    build.cfg = ctx.cfg;
    build.analyses = ctx.analyses;
    build.decode = &dec;
    build.plan = ctx.plan;
    build.counts = &out.counts;
    std::unique_ptr<PipelineAccounting> acct =
        si.backend->makePipelineAccounting(build);
    if (!acct) {
        out.error = "scheme '" + si.token +
            "' advertises pipelined caps but built no accounting";
        return out;
    }

    Stopwatch watch;
    PipelineResult r = runPipeline(trace, dec, *acct, ctx.cfg->pipeline);
    out.stats = r.stats;
    out.error = r.error;

    static PipelineMetrics pm;
    pm.runs.add();
    pm.cycles.add(r.stats.cycles);
    pm.issued.add(r.stats.issued);
    pm.swaps.add(r.stats.swaps);
    pm.bankConflicts.add(r.stats.bankConflicts);
    pm.run.addSec(watch.lap());
    return out;
}

/**
 * Record an already-measured phase as a chrome-trace span: the span
 * ends "now" and lasted @p sec, so no extra clock reads happen when
 * recording is disabled.
 */
void
recordPhaseSpan(const char *phase, const std::string &workload,
                double sec)
{
    TraceEventLog &log = TraceEventLog::global();
    if (!log.enabled() || sec <= 0.0)
        return;
    double endUs = TraceEventLog::nowUs();
    log.add(phase, "phase", endUs - sec * 1e6, sec * 1e6,
            "{\"workload\":\"" + workload + "\"}");
}

} // namespace

std::string_view
schemeName(Scheme s)
{
    const SchemeInfo *si = SchemeRegistry::instance().find(s);
    return si ? std::string_view(si->display) : std::string_view("?");
}

std::string_view
engineName(ExecEngine e)
{
    switch (e) {
      case ExecEngine::AUTO: return "auto";
      case ExecEngine::DIRECT: return "direct";
      case ExecEngine::REPLAY: return "replay";
    }
    return "?";
}

ExecEngine
resolveEngine(ExecEngine e)
{
    return e == ExecEngine::AUTO ? ExecEngine::REPLAY : e;
}

AllocOptions
ExperimentConfig::allocOptions() const
{
    const SchemeInfo *si = SchemeRegistry::instance().find(scheme);
    // Unregistered handle: the scheme-independent defaults.
    return si ? si->backend->allocOptions(*this)
              : SchemeBackend().allocOptions(*this);
}

namespace {

/**
 * runScheme over @p w's cache entry @p in: every input of the run is
 * read through this one handle, so the kernel is hashed once per run.
 */
RunOutcome
runSchemeWith(const Workload &w, const ExperimentConfig &cfg,
              const ExperimentCache::Inputs &in)
{
    RunOutcome out;
    const SchemeInfo *si = SchemeRegistry::instance().find(cfg.scheme);
    if (!si) {
        out.error = "unregistered scheme id " +
            std::to_string(cfg.scheme.id()) + " (valid: " +
            SchemeRegistry::instance().tokenList() + ")";
        return out;
    }
    const SchemeBackend &backend = *si->backend;
    const SchemeCaps &caps = si->caps;
    int price = cfg.orfPriceEntries ? cfg.orfPriceEntries : cfg.entries;
    EnergyModel em(cfg.energy, price, backend.splitLrfEnergy(cfg));

    const RunPlan plan = planRun(caps, cfg);

    Stopwatch watch;

    // Cooperative cancellation: polled between phases so a deadline
    // can stop a request before its most expensive work, without ever
    // interrupting a memoized computation mid-flight.
    auto cancelled = [&] {
        if (!cfg.cancel || !cfg.cancel())
            return false;
        out.error = "cancelled";
        return true;
    };
    if (cancelled())
        return out;

    // ---- Trace: the pre-decoded dynamic stream, recorded once per
    // (kernel, RunConfig) and shared by every replay grid cell and the
    // baseline below, so this phase times the recording ----
    std::shared_ptr<const DecodedTrace> trace;
    if (plan.trace) {
        trace = in.trace();
        out.phases.traceSec = watch.lap();
        recordPhaseSpan("trace", w.name, out.phases.traceSec);
    }
    if (cancelled())
        return out;

    // ---- Analyze: structural analyses + the baseline counts, both
    // memoized (configuration-independent); the baseline replays the
    // trace, recording it when the run has no trace phase ----
    std::shared_ptr<const AnalysisBundle> analyses;
    if (plan.analyses)
        analyses = in.analyses();
    const AccessCounts &base = in.baseline();
    out.baselineEnergyPJ = base.totalEnergyPJ(em);
    out.phases.analyzeSec = watch.lap();
    recordPhaseSpan("analyze", w.name, out.phases.analyzeSec);
    if (cancelled())
        return out;

    // Replay and the pipeline share the memoized pre-decode (SoA op
    // records + shared-consumer flags) across every grid cell.
    std::shared_ptr<const ReplayDecode> dec;
    if (plan.decode)
        dec = in.decode();

    // ---- Allocate: the compiler annotates a private kernel copy ----
    // from the kernel's memoized plan (strands and instances), which
    // every later consumer of the run reads too.
    Kernel annotated;
    const Kernel *kernel = &w.kernel;
    std::shared_ptr<const AllocationPlan> allocPlan;
    if (caps.usesAllocator) {
        const AllocOptions ao = backend.allocOptions(cfg);
        allocPlan = in.allocationPlan(ao.strandOptions);
        annotated = w.kernel;
        out.alloc = backend.allocate(annotated, cfg, analyses.get(),
                                     allocPlan.get());
        kernel = &annotated;
        // The compiler alone decides what each ORF/LRF entry holds, so
        // a wrong binding is a property of the annotated kernel: check
        // it here, before and whatever the engine. Annotations change
        // neither the CFG nor liveness, so the pristine bundle serves.
        std::vector<std::string> violations = checkAllocationInvariants(
            annotated, ao, *analyses, &allocPlan->strands);
        out.phases.allocateSec = watch.lap();
        recordPhaseSpan("allocate", w.name, out.phases.allocateSec);
        if (!violations.empty()) {
            out.error = w.kernel.name + " " + violations.front();
            return out;
        }
        if (cancelled())
            return out;
    }

    // ---- Execute ----
    SchemeRunContext ctx;
    ctx.workload = &w;
    ctx.cfg = &cfg;
    ctx.engine = plan.replay ? ResolvedEngine::REPLAY
                             : ResolvedEngine::DIRECT;
    ctx.kernel = kernel;
    ctx.analyses = analyses.get();
    ctx.trace = plan.replay ? trace.get() : nullptr;
    ctx.decode = plan.replay && caps.wantsDecode ? dec.get() : nullptr;
    ctx.plan = allocPlan.get();
    ctx.baseline = &base;
    SchemeSimResult res;
    SchemePipelineResult timed;
    if (plan.pipeline && plan.engine == ExecEngine::REPLAY) {
        // The pipeline accounts at issue exactly what replay counts,
        // so it is the execute pass. A pipeline stopped by its cycle
        // cap (or a deadlock) has counted only what it issued; simulate
        // then counts the run, and the pipeline's error is reported.
        timed = pipelinePass(*si, ctx, *trace, *dec);
        if (timed.ok())
            res.counts = timed.counts;
        else
            res = backend.simulate(ctx);
    } else {
        // simulate is the execute pass (the value-verifying oracle
        // under DIRECT); perf adds the pipeline after a clean pass.
        res = backend.simulate(ctx);
        if (plan.pipeline && res.error.empty())
            timed = pipelinePass(*si, ctx, *trace, *dec);
    }
    out.counts = res.counts;
    out.error = res.error;
    if (plan.pipeline && out.ok() && !timed.ok())
        out.error = "pipeline: " + timed.error;
    out.hasPerf = plan.pipeline && out.ok();
    if (out.hasPerf)
        out.perf = timed.stats;
    if (caps.usesTrace || plan.pipeline) {
        out.phases.executeSec = watch.lap();
        recordPhaseSpan("execute", w.name, out.phases.executeSec);
    }

    out.phases.dynInstrs = out.counts.instructions;
    out.energyPJ = backend.accountEnergyPJ(ctx, out.counts, em);

    // Observability only: metrics never feed back into the outcome,
    // so results stay byte-identical with any metrics state.
    static EngineMetrics mm;
    mm.runs.add();
    if (caps.usesTrace)
        (plan.engine == ExecEngine::REPLAY ? mm.runsReplay
                                           : mm.runsDirect)
            .add();
    mm.analyze.addSec(out.phases.analyzeSec);
    if (trace)
        mm.trace.addSec(out.phases.traceSec);
    if (out.phases.allocateSec > 0)
        mm.allocate.addSec(out.phases.allocateSec);
    mm.execute.addSec(out.phases.executeSec);
    mm.dynInstrs.add(out.counts.instructions);
    mm.runInstrs.observe(out.counts.instructions);
    return out;
}

} // namespace

RunOutcome
runScheme(const Workload &w, const ExperimentConfig &cfg)
{
    return runSchemeWith(w, cfg,
                         globalExperimentCache().inputs(w.kernel, &w.run));
}

void
accumulateOutcome(RunOutcome &agg, const RunOutcome &one,
                  const std::string &name)
{
    agg.counts.add(one.counts);
    agg.alloc.add(one.alloc);
    agg.energyPJ += one.energyPJ;
    agg.baselineEnergyPJ += one.baselineEnergyPJ;
    agg.phases.add(one.phases);
    if (one.hasPerf) {
        agg.perf.add(one.perf);
        agg.hasPerf = true;
    }
    if (!one.ok()) {
        if (!agg.error.empty())
            agg.error += "; ";
        agg.error += name + ": " + one.error;
    }
}

RunOutcome
runAllWorkloads(const ExperimentConfig &cfg, ThreadPool *pool)
{
    const std::vector<Workload> &ws = allWorkloads();
    ThreadPool &p = pool ? *pool : globalPool();
    std::vector<RunOutcome> outs(ws.size());
    p.parallelFor(static_cast<int>(ws.size()),
                  [&](int i) { outs[i] = runScheme(ws[i], cfg); });
    // Fold in registry order so aggregation (floating-point sums
    // included) is independent of completion order and thread count.
    RunOutcome agg;
    for (std::size_t i = 0; i < ws.size(); i++)
        accumulateOutcome(agg, outs[i], ws[i].name);
    return agg;
}

std::vector<RunOutcome>
replayBatch(const std::vector<BatchItem> &items, ThreadPool *pool)
{
    static Counter &batches =
        globalMetrics().counter("engine.replayBatch.calls");
    static Histogram &sizes =
        globalMetrics().histogram("engine.replayBatch.items");
    batches.add();
    sizes.observe(items.size());

    ThreadPool &p = pool ? *pool : globalPool();
    ExperimentCache &cache = globalExperimentCache();

    // ---- Pre-warm: one slot per distinct (kernel, RunConfig) ----
    // Each distinct workload's kernel is hashed once, and its items'
    // runs read their inputs through that entry. Materialise each
    // entry's planned inputs once, in parallel, so the fan-out below
    // never serialises on a cold input (the memo's call_once would
    // otherwise block every grid cell of a kernel behind the first).
    struct Warm
    {
        const ExperimentCache::Inputs *in = nullptr;
        RunPlan need;
        std::vector<StrandOptions> plans; ///< Distinct, in item order.
    };
    SchemeRegistry &registry = SchemeRegistry::instance();
    std::map<const Workload *, ExperimentCache::Inputs> resolved;
    std::vector<const ExperimentCache::Inputs *> itemInputs(items.size());
    std::vector<Warm> warm;
    std::map<const void *, std::size_t> slot;
    for (std::size_t i = 0; i < items.size(); i++) {
        const Workload *w = items[i].workload;
        const SchemeInfo *si = registry.find(items[i].cfg.scheme);
        if (!w || !si)
            continue;
        auto [r, resolve] = resolved.try_emplace(w);
        if (resolve)
            r->second = cache.inputs(w->kernel, &w->run);
        const ExperimentCache::Inputs *in = itemInputs[i] = &r->second;
        auto [it, fresh] = slot.try_emplace(in->key(), warm.size());
        if (fresh)
            warm.push_back(Warm{in, {}, {}});
        Warm &e = warm[it->second];
        const RunPlan plan = planRun(si->caps, items[i].cfg);
        e.need.analyses |= plan.analyses;
        e.need.decode |= plan.decode;
        if (si->caps.usesAllocator) {
            const StrandOptions so =
                si->backend->allocOptions(items[i].cfg).strandOptions;
            if (std::find(e.plans.begin(), e.plans.end(), so) ==
                e.plans.end())
                e.plans.push_back(so);
        }
    }
    p.parallelFor(static_cast<int>(warm.size()), [&](int i) {
        const Warm &e = warm[i];
        // The baseline replays the trace, recording it first.
        e.in->baseline();
        if (e.need.analyses || e.need.decode)
            e.in->analyses();
        if (e.need.decode)
            e.in->decode();
        for (const StrandOptions &so : e.plans)
            e.in->allocationPlan(so);
    });

    // ---- Fan out ----
    std::vector<RunOutcome> outs(items.size());
    p.parallelFor(static_cast<int>(items.size()), [&](int i) {
        if (!items[i].workload) {
            outs[i].error = "batch item has no workload";
            return;
        }
        outs[i] = itemInputs[i]
            ? runSchemeWith(*items[i].workload, items[i].cfg,
                            *itemInputs[i])
            : runScheme(*items[i].workload, items[i].cfg);
    });
    return outs;
}

} // namespace rfh
