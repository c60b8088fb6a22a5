/**
 * @file
 * rfhbench: the measuring half of the rfh benchmark (perfbench/run.py
 * builds it and relays its output).
 *
 *   rfhbench run --workload NAME --seed N --seconds S --trace 0|1
 *                --rfhc PATH --work-dir DIR [--git-sha SHA]
 *                [--expected FILE] [--p99-limit-ms MS]
 *   rfhbench ready --threads N
 *
 * `run` measures one workload (see workloads.h) and prints one
 * "metric" line per metric, a "report" line with the run's context,
 * and as its last line the result object
 * {"correct","attempted","failed","metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, measured untraced; with --trace 1
 * they are the per-layer ledger (ledger.h). `ready` is the corpus
 * set-up probe: it starts the engine and reports when it could work.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/corpus.h"
#include "core/json.h"
#include "core/memo.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "ledger.h"
#include "process.h"
#include "serve_load.h"
#include "service/net.h"
#include "workloads.h"
#include "workloads/profiles.h"

namespace perfbench {

namespace {

// ---- Fixed benchmark parameters ----

/** Set-up samples per run (median reported). */
constexpr int kSetupSamples = 7;
/** serve-cold: offered rate of the latency phase (requests/s). */
constexpr double kFixedRate = 1000.0;
/** serve-cold: warm-up before the latency phase (seconds). */
constexpr double kWarmupSec = 0.5;
/** serve-cold: share of --seconds spent at the fixed rate. */
constexpr double kFixedShare = 0.4;
/**
 * serve-cold: rung k of the rate ladder offers kFixedRate *
 * kLadderStep^k for kRungSec. The search climbs every kCoarseStride-th
 * rung up to the first miss, then single rungs up to it.
 */
constexpr double kLadderStep = 1.05;
constexpr int kCoarseStride = 4;
constexpr int kMaxRung = 48;
constexpr double kRungSec = 1.0;
/** Generator health: beyond these the client, not the server, paced. */
constexpr double kMaxLatenessP99Ms = 20.0;
constexpr double kMinAchievedShare = 0.95;
/** serve-cold traced run: requests replayed in-process per repetition. */
constexpr int kTracedRequests = 96;
/** Requests per oracle chunk; the memo caches are cleared between. */
constexpr int kOracleChunk = 256;

struct Options
{
    WorkloadKind kind = WorkloadKind::CORPUS_SWEEP;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string rfhc;
    std::string workDir = ".";
    std::string gitSha = "unknown";
    std::string expected;
    double p99LimitMs = 0.0;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string detail;
};

/** Everything one run reports. */
struct Outcome
{
    std::vector<Metric> gated;  ///< In the result object.
    std::vector<Metric> info;   ///< Printed by name only.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  ///< Non-empty: correct=false.
    int threads = 1;
    int connections = 0;
};

std::string
fmtNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

int
benchThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::vector<std::string>
profileNames()
{
    std::vector<std::string> names;
    for (const rfh::ScenarioProfile &p : rfh::allProfiles())
        names.push_back(p.name);
    return names;
}

std::uint64_t
memoTotal(const rfh::ExperimentCache::Stats &s, bool hits)
{
    return hits ? s.baselineHits + s.analysisHits + s.traceHits +
            s.decodeHits
                : s.baselineMisses + s.analysisMisses + s.traceMisses +
            s.decodeMisses;
}

// ---- Set-up probes ----

/** Seconds from spawning `rfhbench ready` until it reports ready. */
double
corpusSetupSec(int threads, std::vector<std::string> &problems)
{
    ChildProcess child;
    std::string err;
    double t0 = nowSec();
    if (!child.spawn({selfExePath(), "ready", "--threads",
                      std::to_string(threads)},
                     {}, 1, &err) ||
        !child.waitForText("ready\n", 30.0)) {
        problems.push_back("set-up probe failed: " + err);
        return 0.0;
    }
    double sec = nowSec() - t0;
    child.wait(10.0);
    return sec;
}

/** A running `rfhc serve` on a Unix socket. */
struct Server
{
    ChildProcess proc;
    std::vector<int> fds;
    std::string socketPath;

    Server() = default;
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    ~Server() { stop(); }

    /**
     * Start the server and open @p conns connections. @return the
     * set-up time: spawn until the first answered ping, or -1.
     */
    double
    start(const Options &o, int threads, int conns, std::string *err)
    {
        socketPath = o.workDir + "/serve.sock";
        double t0 = nowSec();
        if (!proc.spawn({o.rfhc, "serve", "--socket", socketPath,
                         "--workers", std::to_string(threads), "--queue",
                         "65536", "--batch", "1"},
                        {"RFH_THREADS=" + std::to_string(threads)}, 2, err))
            return -1.0;
        if (!proc.waitForText("listening on", 30.0)) {
            *err = "rfhc serve never listened";
            return -1.0;
        }
        for (int c = 0; c < conns; c++) {
            int fd = rfh::netConnect(socketPath);
            if (fd < 0) {
                *err = "cannot connect to " + socketPath;
                return -1.0;
            }
            fds.push_back(fd);
            if (c == 0) {
                std::string reply;
                if (!roundTrip(fd, "{\"id\":\"ping\",\"op\":\"ping\"}",
                               reply, 10.0) ||
                    reply.find("pong") == std::string::npos) {
                    *err = "no pong from rfhc serve";
                    return -1.0;
                }
                t0 = nowSec() - t0;
            }
        }
        return t0;
    }

    /** Graceful shutdown; kills after a timeout. @return exit status. */
    int
    stop()
    {
        if (proc.pid() <= 0)
            return -1;
        if (!fds.empty()) {
            std::string reply;
            roundTrip(fds[0], "{\"id\":\"bye\",\"op\":\"shutdown\"}", reply,
                      10.0);
        }
        for (int fd : fds)
            rfh::netClose(fd);
        fds.clear();
        return proc.wait(20.0);
    }
};

// ---- Corpus workloads ----

void
runCorpusUntraced(const Options &o, Outcome &out)
{
    const int T = out.threads;
    std::vector<double> setup;
    for (int i = 0; i < kSetupSamples; i++)
        setup.push_back(corpusSetupSec(T, out.problems));

    const std::vector<std::string> names = profileNames();
    std::vector<rfh::CorpusConfig> cfgs;
    for (const std::string &n : names)
        cfgs.push_back(
            corpusConfig(o.kind, o.seed, {n}, kCorpusKernelsPerProfile));

    rfh::ThreadPool pool(T);
    {
        // Warm the pool and allocator before timing.
        rfh::CorpusResult warm;
        rfh::runCorpus(corpusConfig(o.kind, o.seed + 1000, {names[0]}, 8),
                       warm, &pool);
    }

    rfh::Counter &cycles = rfh::globalMetrics().counter("sim.pipeline.cycles");
    const std::uint64_t cycles0 = cycles.value();
    std::vector<std::vector<std::string>> docs;  // [pass][profile]
    std::vector<std::uint64_t> callRuns(names.size(), 0);
    // Per profile, the wall and CPU seconds of each pass's call.
    std::vector<std::vector<double>> callSec(names.size()),
        callCpu(names.size());
    std::uint64_t runs = 0, errors = 0;

    const double t0 = nowSec();
    do {
        docs.emplace_back();
        for (std::size_t i = 0; i < cfgs.size(); i++) {
            double c0 = nowSec(), u0 = selfCpuSec();
            rfh::CorpusResult res;
            std::string err;
            if (!rfh::runCorpus(cfgs[i], res, &pool, &err))
                throw std::runtime_error(err);
            docs.back().push_back(rfh::corpusToJson(res));
            callSec[i].push_back(nowSec() - c0);
            callCpu[i].push_back(selfCpuSec() - u0);
            callRuns[i] = res.totalRuns;
            runs += res.totalRuns;
            errors += res.totalErrors;
        }
    } while (nowSec() - t0 < o.seconds);
    const double wall = nowSec() - t0;
    const double rss = peakRssMb(0);
    const std::uint64_t simCycles = cycles.value() - cycles0;

    // The host's other tenants slow whole seconds of a run at a time,
    // so each profile call is taken at its best pass: the pass wall is
    // the sum of those, and the latency percentiles run across the
    // profiles' best calls.
    double bestPass = 0.0, bestCpu = 0.0;
    std::vector<double> bestCallMs;
    for (std::size_t i = 0; i < names.size(); i++) {
        double s = *std::min_element(callSec[i].begin(), callSec[i].end());
        bestPass += s;
        bestCallMs.push_back(s * 1e3);
        bestCpu += *std::min_element(callCpu[i].begin(), callCpu[i].end());
    }
    std::uint64_t passRuns = 0;
    for (std::uint64_t r : callRuns)
        passRuns += r;

    // ---- Output checks ----
    out.attempted = runs;
    std::uint64_t failed = errors;
    if (errors)
        out.problems.push_back(std::to_string(errors) + " runs failed");
    std::vector<bool> bad(names.size(), false);
    for (std::size_t p = 1; p < docs.size(); p++)
        for (std::size_t i = 0; i < names.size(); i++)
            if (docs[p][i] != docs[0][i])
                bad[i] = true;
    std::string all;
    for (const std::string &d : docs[0])
        all += d + "\n";
    const std::string digest = fnv1aHex(all);
    std::string oracle;
    if (o.seed == kDefaultSeed) {
        oracle = "recorded digest";
        std::ifstream in(o.expected);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        rfh::JsonParseResult pj = rfh::parseJson(text);
        std::string want =
            pj.ok ? pj.value.stringOr(workloadName(o.kind), "") : "";
        if (want.empty())
            out.problems.push_back("no recorded digest for " +
                                   std::string(workloadName(o.kind)) +
                                   " in '" + o.expected + "'");
        else if (want != digest)
            std::fill(bad.begin(), bad.end(), true);
    } else {
        oracle = "1-thread in-process run";
        rfh::ThreadPool one(1);
        for (std::size_t i = 0; i < cfgs.size(); i++) {
            rfh::CorpusResult res;
            rfh::runCorpus(cfgs[i], res, &one);
            if (rfh::corpusToJson(res) != docs[0][i])
                bad[i] = true;
        }
    }
    for (std::size_t i = 0; i < names.size(); i++) {
        if (!bad[i])
            continue;
        failed += callRuns[i] * docs.size();
        out.problems.push_back("profile " + names[i] +
                               ": corpus document differs from the " +
                               oracle);
    }
    out.failed = std::min(failed, runs);

    const std::string passes =
        " (best of " + std::to_string(docs.size()) + " passes)";
    const double rate = static_cast<double>(passRuns) / bestPass;
    out.gated = {
        {"setup_s", median(setup), "s",
         " (median of " + std::to_string(setup.size()) + " starts)"},
        {"wall_s", bestPass, "s", passes},
        {"runs_per_s", rate, "1/s", passes},
        {"cpu_ms_per_run", bestCpu * 1e3 / static_cast<double>(passRuns),
         "ms", passes},
        {"peak_rss_mb", rss, "MB", ""},
        {"p50_ms", median(bestCallMs), "ms",
         " (across the " + std::to_string(names.size()) +
             " profile calls, " + passes.substr(2)},
    };
    out.info = {
        {"p99_ms", quantile(bestCallMs, 0.99), "ms",
         " (across the " + std::to_string(names.size()) +
             " profile calls, " + passes.substr(2)},
        {"failed_frac",
         static_cast<double>(out.failed) / static_cast<double>(runs), "1",
         " (" + std::to_string(out.failed) + "/" + std::to_string(runs) +
             ")"},
        {"corpus_kernels",
         static_cast<double>(kCorpusKernelsPerProfile * names.size()),
         "count", " per pass, digest " + digest + ", checked by " + oracle},
        {"mean_runs_per_s", static_cast<double>(runs) / wall, "1/s",
         " (all passes)"},
    };
    if (o.kind == WorkloadKind::CORPUS_PERF)
        out.info.push_back({"sim_cycles_per_s",
                            static_cast<double>(simCycles) / wall, "1/s",
                            ""});
}

/** Per-layer values of one traced repetition. */
struct Ledger
{
    std::map<std::string, LayerTotal> main;   ///< On the untraced path.
    std::map<std::string, LayerTotal> probe;  ///< Off-path probes.
    WorkCounts counts;
    WorkCounts probeCounts;
    double untracedSec = 0.0;
    double tracedSec = 0.0;
    double runs = 0.0;           ///< (kernel, cell) runs or requests.
    double unattributedMs = 0.0;
};

/** Self time of one span name, on-path when present there. */
LayerTotal
pick(const Ledger &l, const std::string &name)
{
    auto it = l.main.find(name);
    if (it != l.main.end())
        return it->second;
    it = l.probe.find(name);
    return it != l.probe.end() ? it->second : LayerTotal{};
}

double
perCallUs(const Ledger &l, const std::string &name)
{
    LayerTotal t = pick(l, name);
    return t.calls ? t.selfSec * 1e6 / static_cast<double>(t.calls) : 0.0;
}

/**
 * The per-layer metrics: medians over the traced repetitions @p reps,
 * plus counts from the first one and memo counters @p hits/@p misses.
 */
void
ledgerMetrics(const std::vector<Ledger> &reps, std::uint64_t hits,
              std::uint64_t misses, Outcome &out)
{
    auto med = [&](auto fn) {
        std::vector<double> v;
        for (const Ledger &l : reps)
            v.push_back(fn(l));
        return median(v);
    };
    auto us = [&](const char *span) {
        return med([&](const Ledger &l) { return perCallUs(l, span); });
    };
    struct PerCall
    {
        const char *metric;
        const char *span;
    };
    const PerCall perCall[] = {
        {"workloads.generate_us_per_kernel", "workloads.generate"},
        {"ir.parse_us_per_kernel", "ir.parse"},
        {"ir.cfg_liveness_us_per_kernel", "ir.cfg_liveness"},
        {"ir.reaching_defs_us_per_kernel", "ir.reaching_defs"},
        {"sim.baseline_us_per_kernel", "sim.baseline"},
        {"sim.trace_record_us_per_kernel", "sim.trace_record"},
        {"sim.decode_us_per_kernel", "sim.decode"},
        {"compiler.allocate_us_per_run", "compiler.allocate"},
        {"sim.replay_us_per_run", "sim.replay"},
        {"sim.direct_us_per_run", "sim.direct"},
        {"sim.pipeline_us_per_run", "sim.pipeline"},
        {"core.scheme_pipeline_overhead_us_per_run", "core.scheme_pipeline"},
        {"core.run_scheme_self_us_per_run", "core.run_scheme"},
        {"core.result_json_us_per_req", "core.result_json"},
        {"service.protocol_us_per_req", "service.protocol"},
        {"service.serialize_us_per_req", "service.serialize"},
    };
    const Ledger &first = reps.front();
    for (const PerCall &p : perCall) {
        bool onPath = first.main.count(p.span) != 0;
        out.gated.push_back({p.metric, us(p.span), "us",
                             onPath ? "" : " (probe: off the untraced path)"});
    }
    out.gated.push_back(
        {"core.fold_us_per_run", med([](const Ledger &l) {
             LayerTotal t = pick(l, "core.fold");
             return l.runs > 0 ? t.selfSec * 1e6 / l.runs : 0.0;
         }),
         "us", first.main.count("core.fold") ? "" : " (probe)"});
    const std::uint64_t cycles =
        first.counts.pipelineCycles + first.probeCounts.pipelineCycles;
    out.gated.push_back(
        {"sim.pipeline_cycles_per_host_s", med([&](const Ledger &l) {
             LayerTotal t = pick(l, "sim.pipeline");
             return t.selfSec > 0 ? static_cast<double>(cycles) / t.selfSec
                                  : 0.0;
         }),
         "1/s", ""});
    const double lookups = static_cast<double>(hits + misses);
    out.gated.push_back({"core.memo_hit_ratio",
                         lookups > 0 ? static_cast<double>(hits) / lookups
                                     : 0.0,
                         "ratio", ""});
    out.gated.push_back(
        {"core.memo_hits", static_cast<double>(hits), "count", ""});
    out.gated.push_back(
        {"core.memo_misses", static_cast<double>(misses), "count", ""});
    out.gated.push_back(
        {"service.unattributed_ms",
         med([](const Ledger &l) { return l.unattributedMs; }), "ms", ""});
    out.gated.push_back({"ir.static_instrs",
                         static_cast<double>(first.counts.staticInstrs),
                         "count", ""});
    out.gated.push_back({"sim.dyn_instrs",
                         static_cast<double>(first.counts.dynInstrs), "count",
                         ""});
    out.gated.push_back({"compiler.value_instances",
                         static_cast<double>(first.counts.valueInstances),
                         "count", ""});
    out.gated.push_back(
        {"sim.pipeline_cycles", static_cast<double>(cycles), "count", ""});
    out.gated.push_back(
        {"unattributed_frac", med([](const Ledger &l) {
             return 1.0 - layerSum(l.main) / l.untracedSec;
         }),
         "ratio", ""});
    out.gated.push_back(
        {"tracing_overhead_s", med([](const Ledger &l) {
             return l.tracedSec - l.untracedSec;
         }),
         "s", " (traced minus untraced wall)"});

    std::vector<std::string> layers;
    for (const auto &[name, t] : first.main)
        layers.push_back(name);
    std::string joined;
    for (const std::string &n : layers)
        joined += (joined.empty() ? "" : ",") + n;
    out.info.push_back({"traced_repetitions",
                        static_cast<double>(reps.size()), "count",
                        " (on-path spans: " + joined + ")"});
    out.info.push_back({"untraced_wall_s",
                        med([](const Ledger &l) { return l.untracedSec; }),
                        "s", ""});
}

/** Check that a repetition repeated the first one's work exactly. */
void
checkRepetition(const std::vector<Ledger> &reps, const Tracer &tr,
                Outcome &out)
{
    std::string nest = checkNesting(tr.spans());
    if (!nest.empty())
        out.problems.push_back("span nesting: " + nest);
    if (reps.size() > 1 && !(reps.back().counts == reps.front().counts))
        out.problems.push_back("work counts changed between repetitions");
}

void
runCorpusTraced(const Options &o, Outcome &out)
{
    rfh::CorpusConfig cfg =
        corpusConfig(o.kind, o.seed, {"all"}, kTracedKernelsPerProfile);
    rfh::ThreadPool one(1);
    rfh::ExperimentCache &cache = rfh::globalExperimentCache();
    std::vector<Ledger> reps;
    std::uint64_t hits = 0, misses = 0;
    Tracer tr, probe;
    const double t0 = nowSec();
    while (reps.size() < 2 || nowSec() - t0 < o.seconds) {
        Ledger l;
        rfh::ExperimentCache::Stats s0 = cache.stats();
        double u0 = nowSec();
        rfh::CorpusResult res;
        std::string err;
        if (!rfh::runCorpus(cfg, res, &one, &err))
            throw std::runtime_error(err);
        const std::string untraced = rfh::corpusToJson(res);
        l.untracedSec = nowSec() - u0;
        rfh::ExperimentCache::Stats s1 = cache.stats();
        if (reps.empty()) {
            hits = memoTotal(s1, true) - memoTotal(s0, true);
            misses = memoTotal(s1, false) - memoTotal(s0, false);
        }

        tr.clear();
        double v0 = nowSec();
        const std::string traced = tracedCorpus(cfg, tr, l.counts);
        l.tracedSec = nowSec() - v0;
        out.attempted += res.totalRuns;
        if (traced != untraced || res.totalErrors) {
            out.failed += res.totalRuns;
            out.problems.push_back(
                "traced corpus document differs from runCorpus");
        }
        probe.clear();
        probeCorpusLayers(cfg, probe, l.probeCounts);
        l.main = layerTotals(tr.spans());
        l.probe = layerTotals(probe.spans());
        l.runs = static_cast<double>(res.totalRuns);
        const double kernels =
            static_cast<double>(cfg.kernelsPerProfile) *
            static_cast<double>(res.profiles.size());
        l.unattributedMs =
            (l.untracedSec - layerSum(l.main)) * 1e3 / kernels;
        reps.push_back(std::move(l));
        checkRepetition(reps, tr, out);
    }
    out.threads = 1;
    ledgerMetrics(reps, hits, misses, out);
}

// ---- serve-cold ----

/** Request lines [first, first+count), generated on @p pool. */
std::vector<std::string>
requestLines(std::uint64_t seed, std::uint64_t first, std::size_t count,
             rfh::ThreadPool &pool)
{
    std::vector<std::string> lines(count);
    pool.parallelFor(static_cast<int>(count), [&](int i) {
        lines[static_cast<std::size_t>(i)] =
            serveRequestLine(seed, first + static_cast<std::uint64_t>(i));
    });
    return lines;
}

/** Served replies by request id, for the output check. */
struct Replies
{
    std::vector<std::uint64_t> ids;
    std::vector<std::string> lines;
    std::uint64_t sent = 0;
    std::uint64_t unanswered = 0;

    void
    add(const OpenLoopResult &r, std::uint64_t firstId)
    {
        for (std::size_t i = 0; i < r.recv.size(); i++) {
            sent++;
            if (r.recv[i] < 0) {
                unanswered++;
                continue;
            }
            ids.push_back(firstId + i);
            lines.push_back(r.replies[i]);
        }
    }
};

/** Phase of the open loop: send [next, next+rate*sec) at @p rate. */
OpenLoopResult
openLoopPhase(const Options &o, Server &srv, rfh::ThreadPool &pool,
              std::uint64_t &next, double rate, double sec, Replies &replies)
{
    std::size_t n = static_cast<std::size_t>(std::ceil(rate * sec));
    std::vector<std::string> lines = requestLines(o.seed, next, n, pool);
    OpenLoopResult r = runOpenLoop(srv.fds, lines, next, rate, 15.0);
    replies.add(r, next);
    next += n;
    return r;
}

/**
 * A rung meets the limit when every request was answered, the p99
 * latency is within @p limitMs, the latency of its last quarter did
 * not climb (no growing backlog), and the generator kept pace.
 */
bool
rungPasses(const OpenLoopResult &r, double limitMs, std::string &why)
{
    std::vector<double> lat = r.latenciesMs();
    if (lat.size() < r.recv.size()) {
        why = "unanswered requests";
        return false;
    }
    for (const std::string &reply : r.replies) {
        if (reply.find("\"ok\":true") == std::string::npos) {
            why = "error replies: " + reply.substr(0, 200);
            return false;
        }
    }
    if (quantile(lat, 0.99) > limitMs) {
        why = "p99 over the limit";
        return false;
    }
    std::size_t q = lat.size() / 4;
    std::vector<double> head(lat.begin(), lat.begin() + q);
    std::vector<double> tail(lat.end() - q, lat.end());
    if (median(tail) > median(head) + limitMs / 2) {
        why = "growing backlog";
        return false;
    }
    if (r.achievedRate() < kMinAchievedShare * r.offeredRate) {
        why = "generator fell behind";
        return false;
    }
    return true;
}

/**
 * Byte-compare every served reply against the in-process oracle. An
 * error reply counts as failed even when the oracle fails alike.
 */
std::uint64_t
checkReplies(const Options &o, const Replies &replies, rfh::ThreadPool &pool)
{
    std::atomic<std::uint64_t> mismatched{0};
    const std::size_t n = replies.ids.size();
    for (std::size_t c0 = 0; c0 < n; c0 += kOracleChunk) {
        int count = static_cast<int>(
            std::min<std::size_t>(kOracleChunk, n - c0));
        pool.parallelFor(count, [&](int k) {
            std::size_t i = c0 + static_cast<std::size_t>(k);
            const std::string &got = replies.lines[i];
            std::string want = serveRequestOracle(
                serveRequestLine(o.seed, replies.ids[i]));
            if (want != got ||
                got.find("\"ok\":true") == std::string::npos)
                mismatched++;
        });
        rfh::globalExperimentCache().clear();
    }
    return mismatched.load();
}

void
runServeUntraced(const Options &o, Outcome &out)
{
    const int T = out.threads;
    out.connections = T;
    std::vector<double> setup;
    std::string err;
    for (int i = 0; i + 1 < kSetupSamples; i++) {
        Server probe;
        double s = probe.start(o, T, 1, &err);
        if (s < 0)
            throw std::runtime_error(err);
        setup.push_back(s);
    }
    Server srv;
    double s = srv.start(o, T, T, &err);
    if (s < 0)
        throw std::runtime_error(err);
    setup.push_back(s);

    rfh::ThreadPool pool(T);
    Replies replies;
    std::uint64_t next = 0;
    openLoopPhase(o, srv, pool, next, kFixedRate, kWarmupSec, replies);

    // The fixed-rate phase runs as one-second windows (1000 requests,
    // so each window's p99 has ten samples beyond it). The host's other
    // tenants slow whole seconds at a time, so latency is the median
    // over windows and server CPU per request the least-disturbed
    // window.
    const int windows =
        std::max(3, static_cast<int>(std::lround(o.seconds * kFixedShare)));
    std::vector<double> winP50, winP99, winCpu, lateness;
    double wall = 0.0, answered = 0.0, fixedRate = 0.0;
    int passingWindows = 0;
    std::string why;
    for (int w = 0; w < windows; w++) {
        const double cpu0 = processCpuSec(srv.proc.pid());
        OpenLoopResult r =
            openLoopPhase(o, srv, pool, next, kFixedRate, 1.0, replies);
        const double cpu1 = processCpuSec(srv.proc.pid());
        const std::vector<double> lat = r.latenciesMs();
        winP50.push_back(median(lat));
        winP99.push_back(quantile(lat, 0.99));
        winCpu.push_back((cpu1 - cpu0) * 1e3 /
                         static_cast<double>(std::max<std::size_t>(
                             r.answered(), 1)));
        for (double l : r.latenessMs())
            lateness.push_back(l);
        wall += r.endSec - r.startSec;
        answered += static_cast<double>(r.answered());
        fixedRate += r.achievedRate() / windows;
        passingWindows += rungPasses(r, o.p99LimitMs, why) ? 1 : 0;
    }
    // Read before the ladder, whose length varies with the host.
    const double rss = peakRssMb(srv.proc.pid());

    // Rung 0 is the fixed-rate phase itself, met when most of its
    // windows are. A missed rung is tried once more before the search
    // treats it as the limit.
    const bool fixedPasses = 2 * passingWindows > windows;
    std::string missWhy = "ladder top reached";
    double maxRate = 0.0;
    int lo = 0, hi = kMaxRung + 1, rungs = 0;
    auto tryRung = [&](int k) {
        for (int attempt = 0; attempt < 2; attempt++) {
            OpenLoopResult r =
                openLoopPhase(o, srv, pool, next,
                              kFixedRate * std::pow(kLadderStep, k),
                              kRungSec, replies);
            rungs++;
            if (rungPasses(r, o.p99LimitMs, why)) {
                lo = k;
                maxRate = r.achievedRate();
                return true;
            }
        }
        hi = k;
        missWhy = why;
        return false;
    };
    if (fixedPasses) {
        maxRate = fixedRate;
        for (int k = kCoarseStride; k <= kMaxRung && tryRung(k);
             k += kCoarseStride) {
        }
        // Climb one rung at a time from the last coarse pass: near the
        // knee a rung passes only most of the time, and bisecting on
        // such outcomes lands on either side of it.
        for (int k = lo + 1; k < hi && tryRung(k); k++) {
        }
    } else {
        missWhy = "the fixed rate itself: " + why;
    }
    if (srv.stop() != 0)
        out.problems.push_back("rfhc serve did not exit cleanly");

    const double lateP99 = quantile(lateness, 0.99);
    if (lateP99 > kMaxLatenessP99Ms ||
        fixedRate < kMinAchievedShare * kFixedRate)
        out.problems.push_back(
            "invalid run: the generator, not the server, set the pace");

    const std::uint64_t mismatched = checkReplies(o, replies, pool);
    out.attempted = replies.sent;
    out.failed = replies.unanswered + mismatched;
    if (out.failed)
        out.problems.push_back(std::to_string(replies.unanswered) +
                               " unanswered, " + std::to_string(mismatched) +
                               " replies failed or differ from the direct oracle");

    const std::string windowed = " over " + std::to_string(windows) +
        " windows of " + fmtNumber(kFixedRate) + " requests at " +
        fmtNumber(kFixedRate) + "/s)";
    out.gated = {
        {"setup_s", median(setup), "s",
         " (median of " + std::to_string(setup.size()) + " starts)"},
        {"wall_s", wall, "s", " (fixed-rate phase)"},
        {"runs_per_s", answered / wall, "1/s", ""},
        {"cpu_ms_per_run", *std::min_element(winCpu.begin(), winCpu.end()),
         "ms", " (server CPU, least-disturbed window)"},
        {"peak_rss_mb", rss, "MB", " (server, after the fixed-rate phase)"},
        {"p50_ms", median(winP50), "ms", " (median" + windowed},
    };
    out.info = {
        {"p99_ms", median(winP99), "ms", " (median" + windowed},
        {"max_rate_rps", maxRate, "1/s",
         " (rung " + std::to_string(lo) + " of " + std::to_string(rungs) +
             " tried met p99 <= " + fmtNumber(o.p99LimitMs) +
             " ms; next missed: " + missWhy + ")"},
        {"failed_frac",
         static_cast<double>(out.failed) /
             static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
         "1",
         " (" + std::to_string(out.failed) + "/" +
             std::to_string(out.attempted) + ")"},
        {"send_lateness_p50_ms", median(lateness), "ms", ""},
        {"send_lateness_p99_ms", lateP99, "ms", ""},
    };
}

void
runServeTraced(const Options &o, Outcome &out)
{
    const int T = out.threads;
    out.connections = T;
    std::string err;
    Server srv;
    if (srv.start(o, T, T, &err) < 0)
        throw std::runtime_error(err);
    rfh::ThreadPool pool(T);
    Replies replies;
    std::uint64_t next = 0;
    openLoopPhase(o, srv, pool, next, kFixedRate, kWarmupSec, replies);
    const std::uint64_t firstFixed = next;
    OpenLoopResult fixed = openLoopPhase(o, srv, pool, next, kFixedRate,
                                         o.seconds * kFixedShare * 0.5,
                                         replies);
    const double clientP50 = median(fixed.latenciesMs());

    std::uint64_t hits = 0, misses = 0;
    std::string stats;
    if (roundTrip(srv.fds[0], "{\"id\":\"stats\",\"op\":\"stats\"}", stats,
                  10.0)) {
        rfh::JsonParseResult pj = rfh::parseJson(stats);
        const rfh::JsonValue *st = pj.ok ? pj.value.find("stats") : nullptr;
        const rfh::JsonValue *memo = st ? st->find("memo") : nullptr;
        if (memo) {
            for (const char *k : {"baseline", "analysis", "trace"}) {
                hits += static_cast<std::uint64_t>(
                    memo->numberOr(std::string(k) + "_hits", 0));
                misses += static_cast<std::uint64_t>(
                    memo->numberOr(std::string(k) + "_misses", 0));
            }
        }
    }
    if (srv.stop() != 0)
        out.problems.push_back("rfhc serve did not exit cleanly");

    const std::size_t n = std::min<std::size_t>(kTracedRequests,
                                                fixed.recv.size());
    std::vector<std::string> lines =
        requestLines(o.seed, firstFixed, n, pool);
    std::vector<Ledger> reps;
    Tracer tr, probe;
    rfh::ExperimentCache &cache = rfh::globalExperimentCache();
    const double t0 = nowSec();
    while (reps.size() < 2 || nowSec() - t0 < o.seconds * 0.6) {
        Ledger l;
        cache.clear();
        double u0 = nowSec();
        std::vector<std::string> oracle;
        for (const std::string &line : lines)
            oracle.push_back(serveRequestOracle(line));
        l.untracedSec = nowSec() - u0;
        cache.clear();

        tr.clear();
        std::vector<double> perRequest;
        double v0 = nowSec();
        for (std::size_t i = 0; i < n; i++) {
            std::size_t mark = tr.spans().size();
            std::string reply = tracedServeRequest(lines[i], tr, l.counts);
            perRequest.push_back(
                rootSpanSec(tr.spans(), mark, tr.spans().size()));
            out.attempted++;
            if (reply != oracle[i] || reply != fixed.replies[i]) {
                out.failed++;
                out.problems.push_back("request " +
                                       std::to_string(firstFixed + i) +
                                       ": traced, oracle and served "
                                       "replies differ");
            }
        }
        l.tracedSec = nowSec() - v0;

        probe.clear();
        rfh::CorpusAccumulator acc(serveFoldConfig(o.seed),
                                   rfh::allProfiles());
        for (std::size_t i = 0; i < n; i++)
            probeServeRequest(o.seed, firstFixed + i, probe, l.probeCounts,
                              acc);
        {
            ScopedSpan s(probe, "core.fold");
            rfh::corpusToJson(acc.take());
        }
        l.main = layerTotals(tr.spans());
        l.probe = layerTotals(probe.spans());
        l.runs = static_cast<double>(n);
        l.unattributedMs = clientP50 - median(perRequest) * 1e3;
        reps.push_back(std::move(l));
        checkRepetition(reps, tr, out);
    }
    ledgerMetrics(reps, hits, misses, out);
}

// ---- Entry points ----

/** Refuse builds whose timings would mislead. @return the reason. */
std::string
refusedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#elif !defined(__OPTIMIZE__)
    return "unoptimised build";
#else
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
        return "Debug build";
    return "";
#endif
}

void
printResult(const Options &o, const Outcome &out)
{
    for (const std::vector<Metric> *set : {&out.gated, &out.info})
        for (const Metric &m : *set)
            std::printf("metric %-42s %14s %s%s\n", m.name.c_str(),
                        fmtNumber(m.value).c_str(), m.unit.c_str(),
                        m.detail.c_str());
    for (const std::string &p : out.problems)
        std::printf("problem %s\n", p.c_str());

    rfh::JsonWriter report;
    report.beginObject();
    report.key("workload").value(workloadName(o.kind));
    report.key("seed").value(static_cast<std::uint64_t>(o.seed));
    report.key("seconds").rawValue(fmtNumber(o.seconds));
    report.key("trace").value(o.trace);
    report.key("nproc").value(
        static_cast<int>(std::thread::hardware_concurrency()));
    report.key("threads").value(out.threads);
    report.key("connections").value(out.connections);
    report.key("build_type").value(PERFBENCH_BUILD_TYPE);
    report.key("compiler").value(PERFBENCH_COMPILER);
    report.key("git_sha").value(o.gitSha);
    report.endObject();
    std::printf("report %s\n", report.str().c_str());

    rfh::JsonWriter w;
    w.beginObject();
    w.key("correct").value(out.problems.empty());
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : out.gated) {
        double v = std::isfinite(m.value) ? m.value : 0.0;
        w.key(m.name).beginObject();
        w.key("value").rawValue(fmtNumber(v));
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: rfhbench run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --rfhc PATH --work-dir DIR [--git-sha SHA] "
                 "[--expected FILE] [--p99-limit-ms MS]\n"
                 "       rfhbench ready --threads N\n");
    return 2;
}

int
readyMain(int threads)
{
    rfh::ThreadPool pool(threads);
    rfh::SchemeRegistry::instance();
    rfh::defaultCorpusCells();
    pool.parallelFor(threads, [](int) {});
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
    return 0;
}

int
runMain(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 2; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload")
            haveWorkload = parseWorkloadKind(v, o.kind);
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--rfhc")
            o.rfhc = v;
        else if (a == "--work-dir")
            o.workDir = v;
        else if (a == "--git-sha")
            o.gitSha = v;
        else if (a == "--expected")
            o.expected = v;
        else if (a == "--p99-limit-ms")
            o.p99LimitMs = std::atof(v.c_str());
        else
            return usage();
    }
    if (!haveWorkload || o.seconds <= 0)
        return usage();
    if (o.kind == WorkloadKind::SERVE_COLD &&
        (o.rfhc.empty() || o.p99LimitMs <= 0))
        return usage();
    std::string refused = refusedBuild();
    if (!refused.empty()) {
        std::fprintf(stderr, "rfhbench: refusing to measure a %s\n",
                     refused.c_str());
        return 3;
    }

    Outcome out;
    out.threads = benchThreads();
    if (o.kind == WorkloadKind::SERVE_COLD)
        (o.trace ? runServeTraced : runServeUntraced)(o, out);
    else
        (o.trace ? runCorpusTraced : runCorpusUntraced)(o, out);
    printResult(o, out);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    if (argc < 2)
        return perfbench::usage();
    std::string cmd = argv[1];
    try {
        if (cmd == "ready")
            return perfbench::readyMain(
                argc > 3 ? std::max(1, std::atoi(argv[3])) : 1);
        if (cmd == "run")
            return perfbench::runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rfhbench: %s\n", e.what());
        return 1;
    }
    return perfbench::usage();
}
