#include "service/loadgen.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/json.h"
#include "core/manifest.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "core/timing.h"
#include "service/net.h"
#include "service/protocol.h"
#include "workloads/registry.h"

namespace rfh {

namespace {

// Default request mix: small registry kernels and every registered
// scheme, so a modest --requests count still exercises memo-cache
// sharing across clients and every backend's dispatch path. The
// scheme rotation is pulled from the registry so newly registered
// backends join the mix without touching the load generator.
const char *const kMixWorkloads[] = {"vectoradd", "reduction",
                                     "matrixmul", "histogram"};
const int kMixEntries[] = {3, 2, 4, 1};

const std::string &
mixScheme(int i)
{
    static const std::vector<std::string> tokens = [] {
        std::vector<std::string> t;
        for (const SchemeInfo *si :
             SchemeRegistry::instance().schemes())
            t.push_back(si->token);
        return t;
    }();
    return tokens[static_cast<std::size_t>(i) % tokens.size()];
}

/** The deterministic (workload, scheme, entries) of request @p i. */
struct RequestPlan
{
    std::string workload;
    std::string scheme;
    int entries;
};

RequestPlan
planFor(const LoadgenOptions &opts, int i)
{
    RequestPlan p;
    p.workload = !opts.workload.empty()
                     ? opts.workload
                     : kMixWorkloads[i % 4];
    p.scheme = !opts.scheme.empty() ? opts.scheme : mixScheme(i);
    p.entries = opts.entries > 0 ? opts.entries : kMixEntries[i % 4];
    return p;
}

std::string
requestLine(const LoadgenOptions &opts, int i, const RequestPlan &p)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(i);
    w.key("op").value("run");
    w.key("workload").value(p.workload);
    w.key("scheme").value(p.scheme);
    w.key("entries").value(p.entries);
    w.key("warps").value(opts.warps);
    if (opts.deadlineMs > 0)
        w.key("deadline_ms").value(opts.deadlineMs);
    w.endObject();
    return w.str();
}

/**
 * The result the service must return for @p p, computed in this
 * process on the value-verifying DIRECT engine: the server runs
 * REPLAY, so the comparison pairs the two engines end to end.
 */
std::string
expectedResult(const LoadgenOptions &opts, const RequestPlan &p,
               std::string *error)
{
    const Workload *reg = findWorkload(p.workload);
    if (!reg) {
        *error = "unknown workload '" + p.workload + "'";
        return "";
    }
    std::optional<Scheme> s = schemeFromToken(p.scheme);
    if (!s) {
        *error = "unknown scheme '" + p.scheme + "'";
        return "";
    }
    Workload w = *reg;
    w.run.numWarps = opts.warps;
    ExperimentConfig cfg;
    cfg.scheme = *s;
    cfg.entries = p.entries;
    cfg.engine = ExecEngine::DIRECT;
    RunOutcome o = runScheme(w, cfg);
    if (!o.ok()) {
        *error = o.error;
        return "";
    }
    return outcomeToJson(o);
}

/** The raw bytes of the "result" member of a success envelope. */
std::string
extractResult(const std::string &envelope)
{
    const std::string marker = "\"result\":";
    std::size_t pos = envelope.find(marker);
    if (pos == std::string::npos || envelope.empty() ||
        envelope.back() != '}')
        return "";
    pos += marker.size();
    return envelope.substr(pos, envelope.size() - pos - 1);
}

/**
 * Log-spaced latency histogram: quarter-octave buckets over
 * microseconds, covering ~1 us to ~5 hours in 256 buckets with a
 * worst-case quantisation error of ~9%. Per-client histograms merge
 * bucket-wise, so percentiles are computed over the whole request
 * population — merging per-client sorted vectors (or worse, maxima)
 * would weight idle clients and busy clients unequally.
 */
class LatencyHistogram
{
  public:
    void
    add(double ms)
    {
        counts_[bucketOf(ms)]++;
        total_++;
    }

    void
    merge(const LatencyHistogram &other)
    {
        for (int i = 0; i < kBuckets; i++)
            counts_[i] += other.counts_[i];
        total_ += other.total_;
    }

    std::uint64_t
    total() const
    {
        return total_;
    }

    /** Value at quantile @p p in [0,1]: geometric bucket midpoint. */
    double
    percentileMs(double p) const
    {
        if (total_ == 0)
            return 0.0;
        std::uint64_t rank = static_cast<std::uint64_t>(
            std::ceil(p * static_cast<double>(total_)));
        rank = std::max<std::uint64_t>(rank, 1);
        std::uint64_t seen = 0;
        for (int i = 0; i < kBuckets; i++) {
            seen += counts_[i];
            if (seen >= rank)
                return std::exp2((i + 0.5) / kBucketsPerOctave) / 1e3;
        }
        return std::exp2(kBuckets / kBucketsPerOctave) / 1e3;
    }

  private:
    static constexpr int kBucketsPerOctave = 4;
    static constexpr int kBuckets = 256;

    static int
    bucketOf(double ms)
    {
        double us = ms * 1e3;
        if (us <= 1.0)
            return 0;
        int b = static_cast<int>(
            std::floor(std::log2(us) * kBucketsPerOctave));
        return std::min(std::max(b, 0), kBuckets - 1);
    }

    std::uint64_t counts_[kBuckets] = {};
    std::uint64_t total_ = 0;
};

/** Per-client tallies, merged after the join. */
struct ClientResult
{
    LatencyHistogram latency;
    int ok = 0;
    int mismatches = 0;
    int timeouts = 0;
    int errors = 0;       ///< Non-timeout error responses.
    int retries = 0;      ///< Overloaded responses retried.
    int exhausted = 0;    ///< Gave up after maxRetries.
    bool transportFailed = false;
};

void
clientLoop(const LoadgenOptions &opts, int clientIndex,
           const std::map<std::tuple<std::string, std::string, int>,
                          std::string> &expected,
           ClientResult &out)
{
    int fd = netConnect(opts.socketPath);
    if (fd < 0) {
        out.transportFailed = true;
        return;
    }
    std::string buf, response;
    for (int i = clientIndex; i < opts.requests; i += opts.clients) {
        RequestPlan plan = planFor(opts, i);
        std::string line = requestLine(opts, i, plan);
        Stopwatch sw;
        bool answered = false;
        for (int attempt = 0; attempt <= opts.maxRetries; attempt++) {
            if (!netSendLine(fd, line) || !netReadLine(fd, buf, response)) {
                out.transportFailed = true;
                netClose(fd);
                return;
            }
            JsonParseResult parsed = parseJson(response);
            if (!parsed.ok) {
                out.errors++;
                answered = true;
                break;
            }
            if (parsed.value.boolOr("ok", false)) {
                out.latency.add(sw.elapsedSec() * 1e3);
                out.ok++;
                if (opts.verify) {
                    auto it = expected.find(
                        {plan.workload, plan.scheme, plan.entries});
                    if (it == expected.end() ||
                        extractResult(response) != it->second) {
                        out.mismatches++;
                        if (out.mismatches == 1)
                            std::fprintf(
                                stderr,
                                "rfhc loadgen: MISMATCH on request "
                                "%d (%s/%s/%d):\n"
                                "  got      %s\n  expected %s\n",
                                i, plan.workload.c_str(),
                                plan.scheme.c_str(), plan.entries,
                                extractResult(response).c_str(),
                                it == expected.end()
                                    ? "<none>"
                                    : it->second.c_str());
                    }
                }
                answered = true;
                break;
            }
            const JsonValue *err = parsed.value.find("error");
            std::string code =
                err ? err->stringOr("code", "") : "";
            if (code == "overloaded") {
                out.retries++;
                // Exponential backoff: 5, 10, 20, ... ms (capped).
                int sleepMs = std::min(5 << std::min(attempt, 7), 500);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleepMs));
                continue;
            }
            if (code == "deadline_exceeded")
                out.timeouts++;
            else
                out.errors++;
            answered = true;
            break;
        }
        if (!answered)
            out.exhausted++;
    }
    netClose(fd);
}

/** Server memo-cache counters pulled from the `stats` op after the run. */
struct ServerStats
{
    bool ok = false;
    double memoHits = 0, memoMisses = 0;
};

ServerStats
queryStats(const std::string &socketPath)
{
    ServerStats fs;
    int fd = netConnect(socketPath);
    if (fd < 0)
        return fs;
    std::string buf, response;
    bool got = netSendLine(fd, R"({"id":0,"op":"stats"})") &&
               netReadLine(fd, buf, response);
    netClose(fd);
    if (!got)
        return fs;
    JsonParseResult parsed = parseJson(response);
    if (!parsed.ok || !parsed.value.boolOr("ok", false))
        return fs;
    if (const JsonValue *stats = parsed.value.find("stats")) {
        if (const JsonValue *memo = stats->find("memo")) {
            for (const char *map :
                 {"baseline", "analysis", "trace", "decode"}) {
                fs.memoHits +=
                    memo->numberOr(std::string(map) + "_hits", 0.0);
                fs.memoMisses +=
                    memo->numberOr(std::string(map) + "_misses", 0.0);
            }
        }
    }
    fs.ok = true;
    return fs;
}

} // namespace

int
runLoadgen(const LoadgenOptions &opts)
{
    if (opts.clients < 1 || opts.requests < 1) {
        std::fprintf(stderr,
                     "rfhc loadgen: --clients and --requests must be "
                     ">= 1\n");
        return 2;
    }

    // Precompute the expected result of every distinct configuration
    // in the stream (the mix has at most 20) before opening any
    // connection, so verification never races the measurement.
    std::map<std::tuple<std::string, std::string, int>, std::string>
        expected;
    if (opts.verify) {
        for (int i = 0; i < opts.requests; i++) {
            RequestPlan p = planFor(opts, i);
            auto key =
                std::make_tuple(p.workload, p.scheme, p.entries);
            if (expected.count(key))
                continue;
            std::string error;
            std::string result = expectedResult(opts, p, &error);
            if (result.empty()) {
                std::fprintf(
                    stderr,
                    "rfhc loadgen: cannot compute reference for "
                    "%s/%s/%d: %s\n",
                    p.workload.c_str(), p.scheme.c_str(), p.entries,
                    error.c_str());
                return 2;
            }
            expected.emplace(std::move(key), std::move(result));
        }
    }

    std::vector<ClientResult> results(
        static_cast<std::size_t>(opts.clients));
    Stopwatch wall;
    {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(opts.clients));
        for (int c = 0; c < opts.clients; c++)
            threads.emplace_back([&opts, c, &expected, &results] {
                clientLoop(opts, c, expected, results[c]);
            });
        for (std::thread &t : threads)
            t.join();
    }
    double wallSec = wall.elapsedSec();

    ClientResult total;
    bool transportFailed = false;
    for (const ClientResult &r : results) {
        total.ok += r.ok;
        total.mismatches += r.mismatches;
        total.timeouts += r.timeouts;
        total.errors += r.errors;
        total.retries += r.retries;
        total.exhausted += r.exhausted;
        transportFailed |= r.transportFailed;
        total.latency.merge(r.latency);
    }
    double p50 = total.latency.percentileMs(0.50);
    double p99 = total.latency.percentileMs(0.99);
    double throughput = wallSec > 0 ? total.ok / wallSec : 0.0;

    std::printf("rfhc loadgen: %d clients, %d requests, %.2fs wall\n",
                opts.clients, opts.requests, wallSec);
    std::printf("  ok %d, errors %d, timeouts %d, retries %d, "
                "exhausted %d\n",
                total.ok, total.errors, total.timeouts, total.retries,
                total.exhausted);
    std::printf("  throughput %.1f req/s, latency p50 %.2f ms, "
                "p99 %.2f ms\n",
                throughput, p50, p99);
    if (opts.verify)
        std::printf("  verify: %d mismatches across %d results\n",
                    total.mismatches, total.ok);

    ServerStats server = queryStats(opts.socketPath);
    if (server.ok) {
        double memoTotal = server.memoHits + server.memoMisses;
        std::printf(
            "  memo cache: %.0f hits / %.0f misses (hit ratio %.2f)\n",
            server.memoHits, server.memoMisses,
            memoTotal > 0 ? server.memoHits / memoTotal : 0.0);
    } else {
        std::fprintf(stderr,
                     "rfhc loadgen: stats query failed; no cache "
                     "report\n");
    }
    if (transportFailed)
        std::fprintf(stderr,
                     "rfhc loadgen: transport failure (is the server "
                     "running on %s?)\n",
                     opts.socketPath.c_str());

    if (opts.shutdownAfter) {
        int fd = netConnect(opts.socketPath);
        if (fd >= 0) {
            std::string buf, response;
            if (netSendLine(fd, R"({"op":"shutdown"})"))
                netReadLine(fd, buf, response);
            netClose(fd);
        } else {
            std::fprintf(stderr,
                         "rfhc loadgen: could not reconnect to send "
                         "shutdown\n");
            transportFailed = true;
        }
    }

    if (!opts.manifestPath.empty() || !manifestPath().empty()) {
        ManifestInfo m;
        m.tool = "rfhc loadgen";
        m.engine = "service";
        m.config = {
            {"socket", opts.socketPath},
            {"clients", std::to_string(opts.clients)},
            {"requests", std::to_string(opts.requests)},
            {"verify", opts.verify ? "true" : "false"},
        };
        m.timing.wallSec = wallSec;
        m.timing.threads = opts.clients;
        m.benchmarks = {
            {"rfhc.loadgen/throughput", throughput, "req/s", true},
            {"rfhc.loadgen/p50", p50, "ms", false},
            {"rfhc.loadgen/p99", p99, "ms", false},
        };
        if (!opts.manifestPath.empty()) {
            if (!writeManifest(opts.manifestPath, m)) {
                std::fprintf(stderr, "rfhc: cannot write %s\n",
                             opts.manifestPath.c_str());
                return 2;
            }
            std::fprintf(stderr, "rfhc: wrote manifest %s\n",
                         opts.manifestPath.c_str());
        }
        emitRunArtifacts(m);
    }

    bool failed = transportFailed || total.mismatches > 0 ||
                  total.exhausted > 0 || total.errors > 0 ||
                  (total.timeouts > 0 && opts.deadlineMs <= 0);
    return failed ? 1 : 0;
}

} // namespace rfh
