#include "core/corpus.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/json.h"
#include "core/memo.h"
#include "core/parallel.h"
#include "energy/energy_params.h"

namespace rfh {

namespace {

/** Entries grid of schemes that sweep the entries axis. */
constexpr int kSweepEntries[] = {1, 2, 3, 4, 6, 8};

/** Fold @p x into an FNV-1a hash (band-seed derivation). */
std::uint64_t
foldHash(std::uint64_t h, std::uint64_t x)
{
    for (int i = 0; i < 8; i++) {
        h ^= (x >> (8 * i)) & 0xffu;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Bootstrap seed of cell (@p pi, @p ci): a pure function of the
 * corpus seed and the cell's structural position, so the band — and
 * with it every byte of the aggregate document — is independent of
 * execution order, thread count, and shard layout.
 */
std::uint64_t
bandSeed(const CorpusConfig &cfg, std::size_t pi, std::size_t ci)
{
    std::uint64_t h = 1469598103934665603ULL;
    h = foldHash(h, cfg.seed);
    h = foldHash(h, pi);
    h = foldHash(h, ci);
    return h;
}

void
writeStat(JsonWriter &w, const char *key, const StreamStat &s)
{
    w.key(key);
    s.writeJson(w);
}

const char *const kLevelKeys[3] = {"MRF", "ORF", "LRF"};

} // namespace

bool
expandCorpusCells(const std::vector<std::string> &schemeTokens,
                  const std::vector<int> &entries,
                  std::vector<CorpusCell> &cells, std::string *err)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    std::vector<const SchemeInfo *> schemes;
    if (schemeTokens.empty()) {
        // Baseline is left out: its energy ratio is 1 by construction.
        for (const SchemeInfo *info : reg.schemes())
            if (info->scheme != Scheme::BASELINE)
                schemes.push_back(info);
    }
    for (const std::string &token : schemeTokens) {
        const SchemeInfo *info = reg.findToken(token);
        if (!info) {
            if (err)
                *err = "unknown scheme '" + token + "' (valid: " +
                    reg.tokenList() + ")";
            return false;
        }
        schemes.push_back(info);
    }
    cells.clear();
    for (const SchemeInfo *info : schemes) {
        if (!entries.empty()) {
            for (int e : entries)
                cells.push_back({info->scheme, e});
        } else if (info->caps.sweepsEntries) {
            for (int e : kSweepEntries)
                cells.push_back({info->scheme, e});
        } else {
            cells.push_back({info->scheme, 3});
        }
    }
    return true;
}

std::vector<CorpusCell>
defaultCorpusCells()
{
    std::vector<CorpusCell> cells;
    expandCorpusCells({}, {}, cells);
    return cells;
}

bool
resolveCorpusConfig(const CorpusConfig &cfg,
                    std::vector<ScenarioProfile> &profiles,
                    std::vector<CorpusCell> &cells, std::string *err)
{
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return false;
    };
    if (cfg.kernelsPerProfile < 1)
        return fail("corpus: kernelsPerProfile must be >= 1");
    if (cfg.chunk < 1)
        return fail("corpus: chunk must be >= 1");
    // Negated so NaN fails too.
    if (!(cfg.confidence > 0.0 && cfg.confidence < 1.0))
        return fail("corpus: confidence must be in (0,1)");
    if (cfg.bootstrapResamples < 1)
        return fail("corpus: bootstrapResamples must be >= 1");
    if (!resolveProfiles(cfg.profiles, profiles, err))
        return false;
    cells = cfg.cells.empty() ? defaultCorpusCells() : cfg.cells;
    if (cells.empty())
        return fail("corpus: no cells to aggregate");
    const SchemeRegistry &reg = SchemeRegistry::instance();
    for (const CorpusCell &c : cells) {
        const SchemeInfo *info = reg.find(c.scheme);
        if (!info)
            return fail("corpus: unregistered scheme id " +
                        std::to_string(int(c.scheme.id())) +
                        " (valid: " + reg.tokenList() + ")");
        if (c.entries < 1 || c.entries > kMaxOrfEntries)
            return fail("corpus: entries " + std::to_string(c.entries) +
                        " out of range (1.." +
                        std::to_string(kMaxOrfEntries) + ") for scheme '" +
                        info->token + "'");
    }
    return true;
}

CorpusSample
corpusSampleFromOutcome(const RunOutcome &o)
{
    CorpusSample s;
    // The one real-valued sample: quantize it through the result-JSON
    // wire format so the aggregate bytes stay stable (core/stats.h).
    s.normalizedEnergy = wireRound(o.normalizedEnergy());
    for (int l = 0; l < 3; l++) {
        Level lv = static_cast<Level>(l);
        s.reads[l] = static_cast<double>(o.counts.totalReads(lv));
        s.writes[l] = static_cast<double>(o.counts.totalWrites(lv));
    }
    s.instructions = static_cast<double>(o.counts.instructions);
    s.valueInstances = static_cast<double>(o.alloc.valueInstances);
    s.lrfValues = static_cast<double>(o.alloc.lrfValues);
    s.orfValues = static_cast<double>(o.alloc.orfValuesFull +
                                      o.alloc.orfValuesPartial);
    s.mrfWritesElided = static_cast<double>(o.alloc.mrfWritesElided);
    s.hasPerf = o.hasPerf;
    s.cycles = static_cast<double>(o.perf.cycles);
    s.issued = static_cast<double>(o.perf.issued);
    return s;
}

CorpusAccumulator::CorpusAccumulator(const CorpusConfig &cfg,
                                     std::vector<ScenarioProfile> profiles)
{
    result_.config = cfg;
    const SchemeRegistry &reg = SchemeRegistry::instance();
    result_.profiles.reserve(profiles.size());
    for (ScenarioProfile &p : profiles) {
        CorpusProfileStats ps;
        ps.profile = std::move(p);
        ps.cells.reserve(cfg.cells.size());
        for (const CorpusCell &c : cfg.cells) {
            CorpusCellStats cs;
            cs.cell = c;
            const SchemeInfo *info = reg.find(c.scheme);
            cs.schemeToken = info ? info->token : "?";
            ps.cells.push_back(std::move(cs));
        }
        result_.profiles.push_back(std::move(ps));
    }
}

void
CorpusAccumulator::fold(int profileIdx, int cellIdx,
                        const CorpusSample &s)
{
    CorpusCellStats &cs =
        result_.profiles[static_cast<std::size_t>(profileIdx)]
            .cells[static_cast<std::size_t>(cellIdx)];
    cs.runs++;
    result_.totalRuns++;
    cs.energyRatio.add(s.normalizedEnergy);
    // Shares are ratios of exact integer counts; the division result
    // is a pure function of those integers, so the folded sample is
    // identical whichever thread produced the counts.
    double allReads = s.reads[0] + s.reads[1] + s.reads[2];
    double allWrites = s.writes[0] + s.writes[1] + s.writes[2];
    for (int l = 0; l < 3; l++) {
        if (allReads > 0)
            cs.readShare[l].add(s.reads[l] / allReads);
        if (allWrites > 0)
            cs.writeShare[l].add(s.writes[l] / allWrites);
    }
    const SchemeInfo *info = SchemeRegistry::instance().find(cs.cell.scheme);
    bool allocator = info && info->caps.usesAllocator;
    if (allocator && s.valueInstances > 0) {
        cs.orfFrac.add(s.orfValues / s.valueInstances);
        cs.lrfFrac.add(s.lrfValues / s.valueInstances);
        cs.elideFrac.add(s.mrfWritesElided / s.valueInstances);
    }
    if (s.hasPerf && s.cycles > 0)
        cs.ipc.add(s.issued / s.cycles);
}

void
CorpusAccumulator::foldError(int profileIdx, int cellIdx,
                             const std::string &message)
{
    CorpusCellStats &cs =
        result_.profiles[static_cast<std::size_t>(profileIdx)]
            .cells[static_cast<std::size_t>(cellIdx)];
    cs.errors++;
    result_.totalErrors++;
    if (cs.firstError.empty())
        cs.firstError = message;
}

void
CorpusAccumulator::foldKernel(int profileIdx, double instructions)
{
    CorpusProfileStats &ps =
        result_.profiles[static_cast<std::size_t>(profileIdx)];
    ps.kernels++;
    ps.dynInstrs.add(instructions);
}

CorpusResult
CorpusAccumulator::take()
{
    return std::move(result_);
}

bool
runCorpus(const CorpusConfig &cfg, CorpusResult &out, ThreadPool *pool,
          std::string *err)
{
    std::vector<ScenarioProfile> profiles;
    std::vector<CorpusCell> cells;
    if (!resolveCorpusConfig(cfg, profiles, cells, err))
        return false;
    CorpusConfig resolved = cfg;
    resolved.cells = cells;
    resolved.profiles.clear();
    for (const ScenarioProfile &p : profiles)
        resolved.profiles.push_back(p.name);

    ThreadPool &exec = pool ? *pool : globalPool();
    auto start = std::chrono::steady_clock::now();
    CorpusAccumulator acc(resolved, profiles);
    int nCells = static_cast<int>(cells.size());
    for (std::size_t pi = 0; pi < profiles.size(); pi++) {
        const ScenarioProfile &p = profiles[pi];
        for (int c0 = 0; c0 < cfg.kernelsPerProfile; c0 += cfg.chunk) {
            int count =
                std::min(cfg.chunk, cfg.kernelsPerProfile - c0);
            // Generate the chunk's kernels into per-index slots, then
            // run every (kernel, cell) pair through one batch so the
            // replay engine amortises per-kernel setup across cells.
            std::vector<Workload> ws(static_cast<std::size_t>(count));
            exec.parallelFor(count, [&](int k) {
                Workload w = corpusWorkload(p, cfg.seed, c0 + k);
                if (cfg.warps > 0)
                    w.run.numWarps = cfg.warps;
                ws[static_cast<std::size_t>(k)] = std::move(w);
            });
            std::vector<BatchItem> items;
            items.reserve(static_cast<std::size_t>(count) *
                          static_cast<std::size_t>(nCells));
            for (int k = 0; k < count; k++) {
                for (const CorpusCell &cell : cells) {
                    BatchItem item;
                    item.workload = &ws[static_cast<std::size_t>(k)];
                    item.cfg.scheme = cell.scheme;
                    item.cfg.entries = cell.entries;
                    item.cfg.perf = cfg.perf;
                    item.cfg.pipeline = cfg.pipeline;
                    items.push_back(std::move(item));
                }
            }
            std::vector<RunOutcome> outcomes = replayBatch(items, &exec);
            for (int k = 0; k < count; k++) {
                const RunOutcome &first =
                    outcomes[static_cast<std::size_t>(k * nCells)];
                acc.foldKernel(
                    static_cast<int>(pi),
                    first.ok()
                        ? static_cast<double>(first.counts.instructions)
                        : 0.0);
                for (int ci = 0; ci < nCells; ci++) {
                    const RunOutcome &o = outcomes[static_cast<std::size_t>(
                        k * nCells + ci)];
                    if (o.ok())
                        acc.fold(static_cast<int>(pi), ci,
                                 corpusSampleFromOutcome(o));
                    else
                        acc.foldError(static_cast<int>(pi), ci,
                                      ws[static_cast<std::size_t>(k)].name +
                                          ": " + o.error);
                }
            }
            globalExperimentCache().clear();
        }
    }
    out = acc.take();
    out.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return true;
}

std::string
corpusToJson(const CorpusResult &r)
{
    const CorpusConfig &cfg = r.config;
    JsonWriter w;
    w.beginObject();
    w.key("version").value("rfh-corpus-v1");
    w.key("config");
    w.beginObject();
    w.key("seed").value(static_cast<std::uint64_t>(cfg.seed));
    w.key("kernelsPerProfile").value(cfg.kernelsPerProfile);
    w.key("chunk").value(cfg.chunk);
    w.key("warps").value(cfg.warps);
    w.key("perf").value(cfg.perf);
    w.key("confidence").value(cfg.confidence);
    w.key("bootstrapResamples").value(cfg.bootstrapResamples);
    w.endObject();
    w.key("profiles");
    w.beginArray();
    for (std::size_t pi = 0; pi < r.profiles.size(); pi++) {
        const CorpusProfileStats &ps = r.profiles[pi];
        w.beginObject();
        w.key("profile").rawValue(profileToJson(ps.profile));
        w.key("kernels").value(static_cast<std::uint64_t>(ps.kernels));
        writeStat(w, "dynInstrs", ps.dynInstrs);
        w.key("cells");
        w.beginArray();
        for (std::size_t ci = 0; ci < ps.cells.size(); ci++) {
            const CorpusCellStats &cs = ps.cells[ci];
            w.beginObject();
            w.key("scheme").value(cs.schemeToken);
            w.key("entries").value(cs.cell.entries);
            w.key("runs").value(static_cast<std::uint64_t>(cs.runs));
            w.key("errors").value(static_cast<std::uint64_t>(cs.errors));
            if (!cs.firstError.empty())
                w.key("firstError").value(cs.firstError);
            w.key("energyRatio");
            cs.energyRatio.writeJson(w, cfg.confidence,
                                     cfg.bootstrapResamples,
                                     bandSeed(cfg, pi, ci));
            w.key("readShare");
            w.beginObject();
            for (int l = 0; l < 3; l++)
                writeStat(w, kLevelKeys[l], cs.readShare[l]);
            w.endObject();
            w.key("writeShare");
            w.beginObject();
            for (int l = 0; l < 3; l++)
                writeStat(w, kLevelKeys[l], cs.writeShare[l]);
            w.endObject();
            if (cs.orfFrac.count() || cs.lrfFrac.count() ||
                cs.elideFrac.count()) {
                w.key("alloc");
                w.beginObject();
                writeStat(w, "orfFrac", cs.orfFrac);
                writeStat(w, "lrfFrac", cs.lrfFrac);
                writeStat(w, "elideFrac", cs.elideFrac);
                w.endObject();
            }
            if (cs.ipc.count())
                writeStat(w, "ipc", cs.ipc);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("totalRuns").value(static_cast<std::uint64_t>(r.totalRuns));
    w.key("totalErrors").value(static_cast<std::uint64_t>(r.totalErrors));
    w.endObject();
    return w.str();
}

std::string
renderCorpusSummary(const CorpusResult &r)
{
    const CorpusConfig &cfg = r.config;
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-14s %-8s %7s %6s  %-23s %7s %7s\n", "profile",
                  "scheme", "entries", "runs", "energy mean [ci]", "p50",
                  "errs");
    out += line;
    for (std::size_t pi = 0; pi < r.profiles.size(); pi++) {
        const CorpusProfileStats &ps = r.profiles[pi];
        // One line per scheme: its lowest-mean-energy cell.
        std::vector<std::string> seen;
        for (std::size_t ci = 0; ci < ps.cells.size(); ci++) {
            const CorpusCellStats &cs = ps.cells[ci];
            if (std::find(seen.begin(), seen.end(), cs.schemeToken) !=
                seen.end())
                continue;
            seen.push_back(cs.schemeToken);
            std::size_t best = ci;
            for (std::size_t cj = ci + 1; cj < ps.cells.size(); cj++) {
                const CorpusCellStats &other = ps.cells[cj];
                if (other.schemeToken != cs.schemeToken)
                    continue;
                if (other.energyRatio.count() &&
                    (!ps.cells[best].energyRatio.count() ||
                     other.energyRatio.mean() <
                         ps.cells[best].energyRatio.mean()))
                    best = cj;
            }
            const CorpusCellStats &b = ps.cells[best];
            StatBand band = b.energyRatio.bootstrapMeanBand(
                cfg.confidence, cfg.bootstrapResamples,
                bandSeed(cfg, pi, best));
            std::snprintf(line, sizeof(line),
                          "%-14s %-8s %7d %6llu  %.4f [%.4f,%.4f] %7.4f "
                          "%7llu\n",
                          ps.profile.name.c_str(), b.schemeToken.c_str(),
                          b.cell.entries,
                          static_cast<unsigned long long>(b.runs),
                          b.energyRatio.mean(), band.lo, band.hi,
                          b.energyRatio.quantile(0.5),
                          static_cast<unsigned long long>(b.errors));
            out += line;
        }
    }
    std::snprintf(line, sizeof(line),
                  "corpus: %llu runs, %llu errors, %.1fs\n",
                  static_cast<unsigned long long>(r.totalRuns),
                  static_cast<unsigned long long>(r.totalErrors),
                  r.wallSec);
    out += line;
    return out;
}

} // namespace rfh
