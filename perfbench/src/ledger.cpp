#include "ledger.h"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/json.h"
#include "core/scheme.h"
#include "energy/energy_model.h"
#include "ir/analysis_bundle.h"
#include "ir/parser.h"
#include "service/protocol.h"
#include "sim/baseline_exec.h"
#include "sim/pipeline.h"
#include "sim/trace.h"
#include "workloads.h"
#include "workloads/profiles.h"

namespace perfbench {

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const rfh::SchemeInfo &
schemeInfo(rfh::Scheme s)
{
    const rfh::SchemeInfo *si = rfh::SchemeRegistry::instance().find(s);
    if (!si)
        throw std::runtime_error("unregistered scheme id " +
                                 std::to_string(s.id()));
    return *si;
}

rfh::ExecEngine
resolvedEngine(const rfh::ExperimentConfig &cfg)
{
    // A lone runScheme call resolves AUTO to the direct oracle.
    return cfg.engine == rfh::ExecEngine::AUTO ? rfh::ExecEngine::DIRECT
                                               : cfg.engine;
}

/** Per-kernel inputs the memo caches would hold, shared by every cell. */
struct KernelInputs
{
    rfh::AccessCounts baseline;
    std::unique_ptr<rfh::AnalysisBundle> analyses;
    std::optional<rfh::DecodedTrace> trace;
    std::optional<rfh::ReplayDecode> decode;
};

/** Which per-kernel inputs a set of runs fetches. */
struct Needs
{
    bool analyses = false;
    bool trace = false;
    bool decode = false;
};

/** Mirrors what runScheme and runSchemePipeline fetch for @p cfgs. */
Needs
needsOf(const std::vector<rfh::ExperimentConfig> &cfgs)
{
    Needs n;
    for (const rfh::ExperimentConfig &cfg : cfgs) {
        const rfh::SchemeCaps &caps = schemeInfo(cfg.scheme).caps;
        n.analyses |= caps.usesAnalyses;
        if (resolvedEngine(cfg) == rfh::ExecEngine::REPLAY &&
            caps.usesTrace) {
            n.trace = true;
            n.decode |= caps.wantsDecode;
        }
        if (cfg.perf && caps.pipelined)
            n.trace = n.decode = true;
    }
    n.analyses |= n.decode; // The decode reads the reaching definitions.
    return n;
}

/**
 * The work behind the memo caches, one span per layer call: CFG and
 * liveness, reaching definitions, the baseline execution, the decoded
 * trace and the replay decode.
 */
void
computeInputs(const rfh::Workload &w, const Needs &n, Tracer &tr,
              KernelInputs &in)
{
    if (n.analyses) {
        std::optional<rfh::Cfg> cfg;
        {
            ScopedSpan s(tr, "ir.cfg_liveness");
            cfg.emplace(w.kernel);
            rfh::Liveness live(w.kernel, *cfg);
        }
        {
            ScopedSpan s(tr, "ir.reaching_defs");
            rfh::ReachingDefs rd(w.kernel, *cfg);
        }
        // AnalysisBundle computes all three analyses in its constructor,
        // so the bundle the allocator reads is built outside any span;
        // its cost is part of the tracing overhead.
        in.analyses = std::make_unique<rfh::AnalysisBundle>(w.kernel);
    }
    {
        ScopedSpan s(tr, "sim.baseline");
        in.baseline = rfh::runBaseline(w.kernel, w.run);
    }
    if (n.trace) {
        ScopedSpan s(tr, "sim.trace_record");
        in.trace.emplace(rfh::recordDecodedTrace(w.kernel, w.run));
    }
    if (n.decode) {
        ScopedSpan s(tr, "sim.decode");
        in.decode.emplace(w.kernel, &in.analyses->reachingDefs);
    }
}

/** runSchemePipeline, one span around its runPipeline call. */
rfh::SchemePipelineResult
replicaPipeline(const rfh::Workload &w, const rfh::ExperimentConfig &cfg,
                const KernelInputs &in, Tracer &tr, WorkCounts &wc)
{
    ScopedSpan span(tr, "core.scheme_pipeline");
    rfh::SchemePipelineResult out;
    const rfh::SchemeInfo &si = schemeInfo(cfg.scheme);
    const rfh::AnalysisBundle *analyses =
        si.caps.usesAnalyses ? in.analyses.get() : nullptr;
    // The repeated allocator pass stays in this span's self time: it
    // is the overhead runSchemePipeline adds on top of the pipeline.
    rfh::Kernel annotated;
    const rfh::Kernel *kernel = &w.kernel;
    if (si.caps.usesAllocator) {
        annotated = w.kernel;
        si.backend->allocate(annotated, cfg, analyses);
        kernel = &annotated;
    }
    rfh::PipelineBuildContext ctx;
    ctx.kernel = kernel;
    ctx.cfg = &cfg;
    ctx.analyses = analyses;
    ctx.decode = &*in.decode;
    ctx.counts = &out.counts;
    std::unique_ptr<rfh::PipelineAccounting> acct =
        si.backend->makePipelineAccounting(ctx);
    if (!acct) {
        out.error = "scheme '" + si.token + "' built no pipeline accounting";
        return out;
    }
    rfh::PipelineResult r;
    {
        ScopedSpan s(tr, "sim.pipeline");
        r = rfh::runPipeline(*in.trace, *in.decode, *acct, cfg.pipeline);
    }
    out.stats = r.stats;
    out.error = r.error;
    wc.pipelineCycles += r.stats.cycles;
    return out;
}

/** runScheme with the per-kernel inputs already computed. */
rfh::RunOutcome
replicaRun(const rfh::Workload &w, const rfh::ExperimentConfig &cfg,
           const KernelInputs &in, Tracer &tr, WorkCounts &wc)
{
    ScopedSpan span(tr, "core.run_scheme");
    rfh::RunOutcome out;
    const rfh::SchemeInfo &si = schemeInfo(cfg.scheme);
    const rfh::SchemeBackend &backend = *si.backend;
    const rfh::SchemeCaps &caps = si.caps;
    int price = cfg.orfPriceEntries ? cfg.orfPriceEntries : cfg.entries;
    rfh::EnergyModel em(cfg.energy, price, backend.splitLrfEnergy(cfg));
    out.baselineEnergyPJ = in.baseline.totalEnergyPJ(em);

    const rfh::AnalysisBundle *analyses =
        caps.usesAnalyses ? in.analyses.get() : nullptr;
    const rfh::DecodedTrace *trace =
        resolvedEngine(cfg) == rfh::ExecEngine::REPLAY && caps.usesTrace
            ? &*in.trace
            : nullptr;
    const rfh::ReplayDecode *dec =
        trace && caps.wantsDecode ? &*in.decode : nullptr;

    rfh::Kernel annotated;
    const rfh::Kernel *kernel = &w.kernel;
    if (caps.usesAllocator) {
        annotated = w.kernel;
        ScopedSpan s(tr, "compiler.allocate");
        out.alloc = backend.allocate(annotated, cfg, analyses);
        kernel = &annotated;
    }
    wc.valueInstances +=
        static_cast<std::uint64_t>(out.alloc.valueInstances);

    rfh::SchemeRunContext ctx;
    ctx.workload = &w;
    ctx.cfg = &cfg;
    ctx.engine = trace ? rfh::ResolvedEngine::REPLAY
                       : rfh::ResolvedEngine::DIRECT;
    ctx.kernel = kernel;
    ctx.analyses = analyses;
    ctx.trace = trace;
    ctx.decode = dec;
    ctx.baseline = &in.baseline;
    rfh::SchemeSimResult res;
    {
        // Named by the requested engine: a scheme without a trace path
        // runs the same executor under both.
        ScopedSpan s(tr, resolvedEngine(cfg) == rfh::ExecEngine::REPLAY
                             ? "sim.replay"
                             : "sim.direct");
        res = backend.simulate(ctx);
    }
    out.counts = res.counts;
    out.error = res.error;
    out.phases.dynInstrs = out.counts.instructions;
    out.energyPJ = backend.accountEnergyPJ(ctx, out.counts, em);

    if (cfg.perf && caps.pipelined && out.ok()) {
        rfh::SchemePipelineResult pr = replicaPipeline(w, cfg, in, tr, wc);
        if (pr.ok()) {
            out.perf = pr.stats;
            out.hasPerf = true;
        } else {
            out.error = "pipeline: " + pr.error;
        }
    }
    return out;
}

std::string
errorLine(const std::string &idJson, rfh::ServiceErrorCode code,
          const std::string &message)
{
    rfh::ServiceError err;
    err.code = code;
    err.message = message;
    return rfh::makeErrorLine(idJson, err);
}

/** The service's prepareRun for an inline kernel. */
bool
serviceWorkload(const rfh::ServiceRequest &req, rfh::ParseResult &parsed,
                rfh::Workload &w)
{
    if (!parsed.ok)
        return false;
    w.name = parsed.kernel.name;
    w.suite = "service";
    w.kernel = std::move(parsed.kernel);
    w.run.numWarps = req.warps;
    return true;
}

void
resolveProfiles(const rfh::CorpusConfig &cfg,
                std::vector<rfh::ScenarioProfile> &profiles,
                std::vector<rfh::CorpusCell> &cells)
{
    std::string err;
    if (!rfh::resolveCorpusConfig(cfg, profiles, cells, &err))
        throw std::runtime_error(err);
}

} // namespace

int
Tracer::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(s);
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    spans_.back().startNs = nowNs();
    return id;
}

void
Tracer::end(int id)
{
    std::int64_t t = nowNs();
    spans_[static_cast<std::size_t>(id)].endNs = t;
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::clear()
{
    spans_.clear();
    open_.clear();
}

std::map<std::string, LayerTotal>
layerTotals(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, LayerTotal> out;
    for (std::size_t i = 0; i < spans.size(); i++) {
        LayerTotal &t = out[spans[i].name];
        t.selfSec +=
            static_cast<double>(spans[i].endNs - spans[i].startNs -
                                childNs[i]) *
            1e-9;
        t.calls++;
    }
    return out;
}

double
layerSum(const std::map<std::string, LayerTotal> &totals)
{
    double sum = 0.0;
    for (const auto &[name, t] : totals)
        sum += t.selfSec;
    return sum;
}

std::string
checkNesting(const std::vector<Span> &spans)
{
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        if (s.endNs < s.startNs)
            return std::string("span ") + s.name + " ends before it starts";
        if (s.parent < 0)
            continue;
        if (static_cast<std::size_t>(s.parent) >= i)
            return std::string("span ") + s.name +
                " has a parent recorded after it";
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        if (s.startNs < p.startNs || s.endNs > p.endNs)
            return std::string("span ") + s.name + " escapes its parent " +
                p.name;
    }
    return "";
}

double
rootSpanSec(const std::vector<Span> &spans, std::size_t first,
            std::size_t last)
{
    std::int64_t ns = 0;
    for (std::size_t i = first; i < last && i < spans.size(); i++)
        if (spans[i].parent < 0)
            ns += spans[i].endNs - spans[i].startNs;
    return static_cast<double>(ns) * 1e-9;
}

std::string
tracedCorpus(const rfh::CorpusConfig &cfg, Tracer &tr, WorkCounts &wc)
{
    std::vector<rfh::ScenarioProfile> profiles;
    std::vector<rfh::CorpusCell> cells;
    resolveProfiles(cfg, profiles, cells);
    rfh::CorpusConfig resolved = cfg;
    resolved.cells = cells;
    resolved.profiles.clear();
    for (const rfh::ScenarioProfile &p : profiles)
        resolved.profiles.push_back(p.name);

    // runCorpus hands every cell to replayBatch, which resolves AUTO
    // to the replay engine.
    std::vector<rfh::ExperimentConfig> cellCfgs;
    for (const rfh::CorpusCell &cell : cells) {
        rfh::ExperimentConfig c;
        c.scheme = cell.scheme;
        c.entries = cell.entries;
        c.engine = rfh::ExecEngine::REPLAY;
        c.perf = cfg.perf;
        c.pipeline = cfg.pipeline;
        cellCfgs.push_back(c);
    }
    const Needs needs = needsOf(cellCfgs);

    rfh::CorpusAccumulator acc(resolved, profiles);
    for (std::size_t pi = 0; pi < profiles.size(); pi++) {
        for (int k = 0; k < cfg.kernelsPerProfile; k++) {
            rfh::Workload w;
            {
                ScopedSpan s(tr, "workloads.generate");
                w = rfh::corpusWorkload(profiles[pi], cfg.seed, k);
                if (cfg.warps > 0)
                    w.run.numWarps = cfg.warps;
            }
            wc.staticInstrs += static_cast<std::uint64_t>(w.kernel.numInstrs());
            KernelInputs in;
            computeInputs(w, needs, tr, in);
            wc.dynInstrs += in.baseline.instructions;

            std::vector<rfh::RunOutcome> outs;
            outs.reserve(cellCfgs.size());
            for (const rfh::ExperimentConfig &c : cellCfgs)
                outs.push_back(replicaRun(w, c, in, tr, wc));

            ScopedSpan s(tr, "core.fold");
            int p = static_cast<int>(pi);
            acc.foldKernel(p, outs[0].ok() ? static_cast<double>(
                                                 outs[0].counts.instructions)
                                           : 0.0);
            for (std::size_t ci = 0; ci < outs.size(); ci++) {
                if (outs[ci].ok())
                    acc.fold(p, static_cast<int>(ci),
                             rfh::corpusSampleFromOutcome(outs[ci]));
                else
                    acc.foldError(p, static_cast<int>(ci),
                                  w.name + ": " + outs[ci].error);
            }
        }
    }
    ScopedSpan s(tr, "core.fold");
    return rfh::corpusToJson(acc.take());
}

void
probeCorpusLayers(const rfh::CorpusConfig &cfg, Tracer &tr, WorkCounts &wc)
{
    std::vector<rfh::ScenarioProfile> profiles;
    std::vector<rfh::CorpusCell> cells;
    resolveProfiles(cfg, profiles, cells);
    const bool pipelineProbe = !cfg.perf;
    for (std::size_t pi = 0; pi < profiles.size(); pi++) {
        for (int k = 0; k < cfg.kernelsPerProfile; k++) {
            rfh::Workload w = rfh::corpusWorkload(profiles[pi], cfg.seed, k);
            ServeRequestSpec spec;
            spec.profile = static_cast<int>(pi);
            spec.index = k;
            spec.scheme = rfh::Scheme::SW_THREE_LEVEL;
            spec.entries = 3;
            const std::string line = requestLineFor(w, spec, 0);

            rfh::ParsedRequest pr;
            {
                ScopedSpan s(tr, "service.protocol");
                pr = rfh::parseServiceRequest(line);
            }
            {
                ScopedSpan s(tr, "ir.parse");
                rfh::ParseResult parsed =
                    rfh::parseKernel(pr.request.kernelText);
            }
            rfh::ExperimentConfig direct = pr.request.config();
            direct.engine = rfh::ExecEngine::DIRECT;
            rfh::ExperimentConfig replay = direct;
            replay.engine = rfh::ExecEngine::REPLAY;
            Needs n = needsOf({direct});
            if (pipelineProbe)
                n.analyses = n.trace = n.decode = true;
            KernelInputs in;
            computeInputs(w, n, tr, in);
            rfh::RunOutcome o = replicaRun(w, direct, in, tr, wc);
            std::string json;
            {
                ScopedSpan s(tr, "core.result_json");
                json = rfh::outcomeToJson(o);
            }
            {
                ScopedSpan s(tr, "service.serialize");
                std::string reply =
                    rfh::makeResultLine(pr.request.idJson, json);
            }
            if (pipelineProbe)
                replicaPipeline(w, replay, in, tr, wc);
        }
    }
}

std::string
tracedServeRequest(const std::string &line, Tracer &tr, WorkCounts &wc)
{
    rfh::ParsedRequest pr;
    {
        ScopedSpan s(tr, "service.protocol");
        pr = rfh::parseServiceRequest(line);
    }
    if (!pr.ok)
        return rfh::makeErrorLine(pr.request.idJson, pr.error);
    const rfh::ServiceRequest &req = pr.request;
    rfh::ParseResult parsed;
    {
        ScopedSpan s(tr, "ir.parse");
        parsed = rfh::parseKernel(req.kernelText);
    }
    rfh::Workload w;
    if (!serviceWorkload(req, parsed, w))
        return errorLine(req.idJson, rfh::ServiceErrorCode::BAD_KERNEL,
                         parsed.error);
    wc.staticInstrs += static_cast<std::uint64_t>(w.kernel.numInstrs());

    rfh::ExperimentConfig cfg = req.config();
    KernelInputs in;
    computeInputs(w, needsOf({cfg}), tr, in);
    wc.dynInstrs += in.baseline.instructions;
    rfh::RunOutcome o = replicaRun(w, cfg, in, tr, wc);
    if (!o.ok())
        return errorLine(req.idJson, rfh::ServiceErrorCode::EXEC_ERROR,
                         o.error);
    std::string json;
    {
        ScopedSpan s(tr, "core.result_json");
        json = rfh::outcomeToJson(o);
    }
    ScopedSpan s(tr, "service.serialize");
    return rfh::makeResultLine(req.idJson, json);
}

std::string
serveRequestOracle(const std::string &line)
{
    rfh::ParsedRequest pr = rfh::parseServiceRequest(line);
    if (!pr.ok)
        return rfh::makeErrorLine(pr.request.idJson, pr.error);
    const rfh::ServiceRequest &req = pr.request;
    rfh::ParseResult parsed = rfh::parseKernel(req.kernelText);
    rfh::Workload w;
    if (!serviceWorkload(req, parsed, w))
        return errorLine(req.idJson, rfh::ServiceErrorCode::BAD_KERNEL,
                         parsed.error);
    rfh::ExperimentConfig cfg = req.config();
    cfg.engine = rfh::ExecEngine::DIRECT;
    rfh::RunOutcome o = rfh::runScheme(w, cfg);
    if (!o.ok())
        return errorLine(req.idJson, rfh::ServiceErrorCode::EXEC_ERROR,
                         o.error);
    return rfh::makeResultLine(req.idJson, rfh::outcomeToJson(o));
}

rfh::CorpusConfig
serveFoldConfig(std::uint64_t seed)
{
    rfh::CorpusConfig cfg;
    cfg.seed = seed;
    cfg.kernelsPerProfile = 1;
    cfg.cells = serveMixCells();
    cfg.profiles.clear();
    for (const rfh::ScenarioProfile &p : rfh::allProfiles())
        cfg.profiles.push_back(p.name);
    return cfg;
}

void
probeServeRequest(std::uint64_t seed, std::uint64_t g, Tracer &tr,
                  WorkCounts &wc, rfh::CorpusAccumulator &acc)
{
    const ServeRequestSpec spec = serveRequestSpec(seed, g);
    rfh::Workload w;
    {
        ScopedSpan s(tr, "workloads.generate");
        w = serveWorkload(seed, spec);
    }
    rfh::ExperimentConfig cfg;
    cfg.scheme = spec.scheme;
    cfg.entries = spec.entries;
    cfg.engine = rfh::ExecEngine::REPLAY;
    Needs n = needsOf({cfg});
    n.analyses = n.trace = n.decode = true;
    KernelInputs in;
    computeInputs(w, n, tr, in);
    rfh::RunOutcome o = replicaRun(w, cfg, in, tr, wc);
    if (schemeInfo(cfg.scheme).caps.pipelined)
        replicaPipeline(w, cfg, in, tr, wc);

    const std::vector<rfh::CorpusCell> cells = serveMixCells();
    int ci = 0;
    while (ci < static_cast<int>(cells.size()) &&
           !(cells[ci].scheme == spec.scheme &&
             cells[ci].entries == spec.entries))
        ci++;
    ScopedSpan s(tr, "core.fold");
    if (o.ok())
        acc.fold(spec.profile, ci, rfh::corpusSampleFromOutcome(o));
}

} // namespace perfbench
