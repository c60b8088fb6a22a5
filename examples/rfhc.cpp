/**
 * @file
 * rfhc — command-line driver for the register file hierarchy compiler.
 *
 * Usage:
 *   rfhc annotate <file.rptx> [options]     print the allocated kernel
 *   rfhc run      <file.rptx> [options]     execute + report accesses
 *   rfhc stats    <file.rptx>               strand / usage statistics
 *   rfhc bench-diff <old.json> <new.json>   compare two snapshots
 *   rfhc compare [options]                  cross-scheme leaderboard
 *   rfhc corpus [options]                   corpus-scale population sweep
 *   rfhc fuzz [options]                     differential fuzz campaign
 *   rfhc serve [options]                    batch compile/sim service
 *   rfhc loadgen [options]                  drive a running service
 *
 * Options (annotate / run / stats):
 *   --entries N        ORF entries per thread (default 3)
 *   --no-lrf           two-level hierarchy (ORF + MRF only)
 *   --unified-lrf      one LRF bank instead of one per operand slot
 *   --no-partial       disable partial-range allocation
 *   --no-readops       disable read-operand allocation
 *   --schedule         run the lifetime-shortening scheduler first
 *   --regalloc N       linear-scan onto N architectural registers
 *   --warps N          warps to execute (run; default 8)
 *   --scheme TOKEN     run any registered scheme by wire token (run;
 *                      default sw3, or sw2 under --no-lrf)
 *   --perf             also run the cycle-level SM pipeline: IPC,
 *                      stall breakdown, swaps, bank conflicts (run)
 *   --sched P          pipeline warp scheduler: flat, two-level (the
 *                      default), or gto (run, with --perf)
 *   --active N         two-level active-set size (run; default 8)
 *   --json             machine-readable outcome (run)
 *   --manifest F       write an rfh-manifest-v1 run manifest to F (run)
 *   --trace-events F   write chrome://tracing phase spans to F (run)
 *
 * Options (bench-diff):
 *   --threshold F      relative regression gate, e.g. 0.10 (default);
 *                      exits 1 when any benchmark regresses past it
 *
 * Options (compare):
 *   --entries N        entries for fixed (non-sweeping) schemes
 *   --perf             add per-scheme IPC / stall columns (one
 *                      pipeline pass per scheme at its best entries)
 *   --sched P          pipeline scheduler for --perf (default
 *                      two-level)
 *   --active N         two-level active-set size for --perf
 *   --json             print the leaderboard JSON instead of the table
 *   --out F            also write the leaderboard JSON to F
 *   --corpus N         also run an N-kernel scenario corpus and add a
 *                      population confidence-band column per row
 *
 * Options (corpus):
 *   --profiles P,...   scenario profiles, or "all" (default all); see
 *                      docs/corpus.md for the builtin populations
 *   --n N              total kernels across the resolved profiles,
 *                      split evenly (default 512)
 *   --schemes S,...    scheme wire tokens to aggregate (default:
 *                      every non-baseline registered scheme)
 *   --entries N,...    entries-per-thread points (default 1,2,3,4,6,8
 *                      for sweeping schemes, 3 for fixed ones)
 *   --seed S           corpus seed: same seed => same kernels and the
 *                      same aggregate bytes (default 1)
 *   --chunk N          kernels per replay batch slice (default 64)
 *   --warps N          override every profile's warp count
 *   --perf             also run the cycle-level pipeline; adds IPC
 *                      population stats per cell
 *   --sched P          pipeline scheduler for --perf
 *   --active N         two-level active-set size for --perf
 *   --resamples N      bootstrap resamples per band (default 200)
 *   --confidence F     band confidence level (default 0.95)
 *   --json             print the rfh-corpus-v1 JSON instead of the
 *                      summary table
 *   --out F            also write the corpus JSON to F
 *
 * Options (fuzz):
 *   --iters N          kernels to generate and check (default 100)
 *   --seed S           campaign seed; same seed => same kernels,
 *                      same manifest scalars (default 1)
 *   --shrink           reduce the first failing kernel before writing
 *                      the .rptx repro artifact
 *   --inject           test-only fault injection: perturb one replay
 *                      leg so the oracle must report a discrepancy
 *   --dump DIR         write every generated kernel to DIR/<name>.rptx
 *   --out F            repro artifact path (default repro.rptx)
 *   --warps N          warps per oracle leg (default 4)
 *   --entries N        ORF/RFC entries per thread (default 3)
 *   --no-hw            skip the hardware-cache differential pairs
 *   --no-simt          skip the SIMT differential checks
 *   --manifest F       write an rfh-manifest-v1 campaign manifest to F
 *
 * Options (serve):
 *   --socket PATH      listen on a Unix domain socket (default: stdio)
 *   --workers N        request workers (default: pool size)
 *   --queue N          admission queue capacity (default 64); full
 *                      queue sheds requests with `overloaded`
 *   --batch N          max requests a worker drains per wakeup into
 *                      one batched replay (default 8; 1 disables)
 *   --cache-max N      memo-cache entries before eviction (default 1024)
 *   --manifest F       write a session manifest on drain
 *   --trace-events F   record per-request chrome://tracing spans
 *
 * Options (loadgen):
 *   --socket PATH      server socket (default rfhc.sock)
 *   --clients N        concurrent connections (default 4)
 *   --requests N       total run requests (default 100)
 *   --workload W       pin one registry workload (default: mix)
 *   --scheme S         pin one scheme token (default: mix)
 *   --entries N        pin ORF entries (default: mix)
 *   --warps N          warps per request (default 8)
 *   --deadline MS      per-request deadline in milliseconds
 *   --retries N        max retries of shed requests (default 8)
 *   --verify           byte-compare every result vs a local DIRECT run
 *   --shutdown         send {"op":"shutdown"} when done
 *   --manifest F       write a loadgen manifest (throughput, p50/p99)
 *
 * The tool lets users drive the full pipeline on their own RPTX
 * kernels without writing any C++, and gates CI on performance
 * snapshots (see docs/observability.md).
 */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "compiler/allocator.h"
#include "compiler/regalloc.h"
#include "compiler/scheduler.h"
#include "core/benchdiff.h"
#include "core/corpus.h"
#include "core/experiment.h"
#include "core/json.h"
#include "core/leaderboard.h"
#include "core/manifest.h"
#include "core/memo.h"
#include "core/metrics.h"
#include "core/timing.h"
#include "core/trace_events.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "sim/baseline_exec.h"
#include "verify/oracle.h"
#include "verify/rptx_fuzz.h"
#include "verify/shrink.h"

using namespace rfh;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: rfhc <annotate|run|stats> <file.rptx> "
                 "[--entries N] [--no-lrf]\n"
                 "            [--unified-lrf] [--no-partial] "
                 "[--no-readops] [--schedule]\n"
                 "            [--regalloc N] [--warps N] "
                 "[--scheme TOKEN] [--json]\n"
                 "            [--perf] [--sched flat|two-level|gto] "
                 "[--active N]\n"
                 "            [--manifest out.json] "
                 "[--trace-events out.json]\n"
                 "       rfhc bench-diff <old.json> <new.json> "
                 "[--threshold F]\n"
                 "       rfhc compare [--entries N] [--perf] "
                 "[--sched P] [--active N]\n"
                 "            [--json] [--out F] [--corpus N]\n"
                 "       rfhc corpus [--profiles P,...] [--n N] "
                 "[--schemes S,...]\n"
                 "            [--entries N,...] [--seed S] [--chunk N] "
                 "[--warps N]\n"
                 "            [--perf] [--sched P] [--active N] "
                 "[--resamples N]\n"
                 "            [--confidence F] [--json] [--out F]\n"
                 "       rfhc fuzz [--iters N] [--seed S] [--shrink] "
                 "[--inject]\n"
                 "            [--dump DIR] [--out repro.rptx] "
                 "[--warps N] [--entries N]\n"
                 "            [--no-hw] [--no-simt] "
                 "[--manifest out.json]\n"
                 "       rfhc serve [--socket PATH] [--workers N] "
                 "[--queue N] [--batch N]\n"
                 "            [--cache-max N] [--manifest out.json] "
                 "[--trace-events out.json]\n"
                 "       rfhc loadgen [--socket PATH] [--clients N] "
                 "[--requests N]\n"
                 "            [--workload W] [--scheme S] [--entries N] "
                 "[--warps N]\n"
                 "            [--deadline MS] [--retries N] [--verify] "
                 "[--shutdown]\n"
                 "            [--manifest out.json]\n");
    return 2;
}

/** Parse all of @p s as a T; false on empty input, junk, or overflow. */
template <class T>
bool
parseWhole(const std::string &s, T &out)
{
    const char *end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && p == end && !s.empty();
}

/**
 * Cursor over one subcommand's arguments. Each value reader consumes
 * the next argument and returns false when it is missing or malformed:
 * trailing junk, overflow, a sign on an unsigned value, and an empty
 * string all reject.
 */
class Flags
{
  public:
    Flags(int argc, char **argv, int first)
        : argc_(argc), argv_(argv), i_(first)
    {
    }

    /** The next flag; false once every argument is consumed. */
    bool
    next(std::string &flag)
    {
        if (i_ >= argc_)
            return false;
        flag = argv_[i_++];
        return true;
    }

    /** A non-empty string. */
    bool
    str(std::string &out)
    {
        if (i_ >= argc_ || !*argv_[i_])
            return false;
        out = argv_[i_++];
        return true;
    }

    /** An integer in [1, @p max]. */
    bool
    positive(int &out, int max = std::numeric_limits<int>::max())
    {
        std::string s;
        return str(s) && parseWhole(s, out) && out >= 1 && out <= max;
    }

    /** An unsigned decimal 64-bit integer. */
    bool
    u64(std::uint64_t &out)
    {
        std::string s;
        return str(s) && parseWhole(s, out);
    }

    /** A finite real number. */
    bool
    real(double &out)
    {
        std::string s;
        return str(s) && parseWhole(s, out) && std::isfinite(out);
    }

  private:
    int argc_;
    char **argv_;
    int i_;
};

/** Load and parse one JSON snapshot; exits via return on failure. */
bool
loadSnapshot(const std::string &path, JsonValue &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "rfhc: cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    JsonParseResult parsed = parseJson(text.str());
    if (!parsed.ok) {
        std::fprintf(stderr, "rfhc: %s: %s\n", path.c_str(),
                     parsed.error.c_str());
        return false;
    }
    out = std::move(parsed.value);
    return true;
}

/**
 * `rfhc bench-diff old.json new.json [--threshold F]`: print a
 * per-benchmark delta table; exit 1 when any benchmark regresses
 * beyond the threshold, 0 otherwise.
 */
int
benchDiffMain(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    std::string old_path = argv[2];
    std::string new_path = argv[3];
    double threshold = 0.10;
    Flags f(argc, argv, 4);
    for (std::string a; f.next(a);) {
        if (a == "--threshold") {
            if (!f.real(threshold) || threshold < 0)
                return usage();
        } else {
            return usage();
        }
    }

    JsonValue old_doc, new_doc;
    if (!loadSnapshot(old_path, old_doc) ||
        !loadSnapshot(new_path, new_doc))
        return 1;
    std::string err;
    std::vector<BenchEntry> olds = benchEntriesFromJson(old_doc, &err);
    if (olds.empty()) {
        std::fprintf(stderr, "rfhc: %s: %s\n", old_path.c_str(),
                     err.c_str());
        return 1;
    }
    std::vector<BenchEntry> news = benchEntriesFromJson(new_doc, &err);
    if (news.empty()) {
        std::fprintf(stderr, "rfhc: %s: %s\n", new_path.c_str(),
                     err.c_str());
        return 1;
    }

    BenchDiff diff = diffBenchmarks(olds, news, threshold);
    std::printf("%s", renderBenchDiff(diff, threshold).c_str());
    return diff.hasRegression() ? 1 : 0;
}

/**
 * `rfhc compare`: run every registered scheme over the full workload
 * suite and print the ranked cross-scheme leaderboard (sweeping the
 * entries axis for schemes that have one). The JSON document backs
 * the leaderboard section of EXPERIMENTS.md.
 */
int
compareMain(int argc, char **argv)
{
    ExperimentConfig base;
    bool json = false;
    int corpusKernels = 0;
    std::string out_path;
    Flags f(argc, argv, 2);
    for (std::string a; f.next(a);) {
        if (a == "--entries") {
            if (!f.positive(base.entries, kMaxOrfEntries))
                return usage();
        } else if (a == "--json") {
            json = true;
        } else if (a == "--perf") {
            base.perf = true;
        } else if (a == "--sched") {
            std::string tok;
            if (!f.str(tok) || !parseSchedPolicy(tok, base.pipeline.policy))
                return usage();
        } else if (a == "--active") {
            if (!f.positive(base.pipeline.activeWarps))
                return usage();
        } else if (a == "--corpus") {
            if (!f.positive(corpusKernels))
                return usage();
        } else if (a == "--out") {
            if (!f.str(out_path))
                return usage();
        } else {
            return usage();
        }
    }

    Leaderboard lb = runLeaderboard(base);
    if (corpusKernels > 0) {
        CorpusConfig ccfg;
        std::size_t nProfiles = allProfiles().size();
        ccfg.kernelsPerProfile = static_cast<int>(
            (static_cast<std::size_t>(corpusKernels) + nProfiles - 1) /
            nProfiles);
        CorpusResult corpus;
        std::string err;
        if (!runCorpus(ccfg, corpus, nullptr, &err)) {
            std::fprintf(stderr, "rfhc compare: %s\n", err.c_str());
            return 2;
        }
        attachCorpusBands(lb, corpus);
    }
    std::string doc = leaderboardToJson(lb);
    if (json)
        std::printf("%s\n", doc.c_str());
    else
        std::printf("%s", renderLeaderboard(lb).c_str());
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "rfhc: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        out << doc << "\n";
        std::fprintf(stderr, "rfhc: wrote leaderboard %s\n",
                     out_path.c_str());
    }
    std::fprintf(stderr,
                 "rfhc compare: %d schemes in %.1fs (%.1fx speedup)\n",
                 static_cast<int>(lb.rows.size()), lb.timing.wallSec,
                 lb.timing.speedup());
    return 0;
}

/** Split @p s at commas into non-empty pieces. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/**
 * `rfhc corpus`: stream a population of generated kernels from the
 * named scenario profiles through the replay engine and print
 * streaming population statistics per (profile, scheme, entries)
 * cell. The rfh-corpus-v1 JSON document is byte-identical across runs
 * and thread counts.
 */
int
corpusMain(int argc, char **argv)
{
    CorpusConfig cfg;
    int totalKernels = 512;
    std::vector<std::string> schemeTokens;
    std::vector<int> entriesList;
    bool json = false;
    std::string out_path;
    Flags f(argc, argv, 2);
    for (std::string a; f.next(a);) {
        if (a == "--profiles") {
            std::string list;
            if (!f.str(list))
                return usage();
            cfg.profiles = splitList(list);
            if (cfg.profiles.empty())
                return usage();
        } else if (a == "--n") {
            if (!f.positive(totalKernels))
                return usage();
        } else if (a == "--schemes") {
            std::string list;
            if (!f.str(list))
                return usage();
            schemeTokens = splitList(list);
            if (schemeTokens.empty())
                return usage();
        } else if (a == "--entries") {
            std::string list;
            if (!f.str(list))
                return usage();
            for (const std::string &piece : splitList(list)) {
                int e = 0;
                if (!parseWhole(piece, e) || e < 1 || e > kMaxOrfEntries)
                    return usage();
                entriesList.push_back(e);
            }
            if (entriesList.empty())
                return usage();
        } else if (a == "--seed") {
            if (!f.u64(cfg.seed))
                return usage();
        } else if (a == "--chunk") {
            if (!f.positive(cfg.chunk))
                return usage();
        } else if (a == "--warps") {
            if (!f.positive(cfg.warps))
                return usage();
        } else if (a == "--perf") {
            cfg.perf = true;
        } else if (a == "--sched") {
            std::string tok;
            if (!f.str(tok) || !parseSchedPolicy(tok, cfg.pipeline.policy))
                return usage();
        } else if (a == "--active") {
            if (!f.positive(cfg.pipeline.activeWarps))
                return usage();
        } else if (a == "--resamples") {
            if (!f.positive(cfg.bootstrapResamples))
                return usage();
        } else if (a == "--confidence") {
            // Range-checked by runCorpus (resolveCorpusConfig).
            if (!f.real(cfg.confidence))
                return usage();
        } else if (a == "--json") {
            json = true;
        } else if (a == "--out") {
            if (!f.str(out_path))
                return usage();
        } else {
            return usage();
        }
    }

    // --n budgets the whole corpus; split it evenly across profiles.
    std::vector<ScenarioProfile> resolved;
    std::string err;
    if (!resolveProfiles(cfg.profiles, resolved, &err)) {
        std::fprintf(stderr, "rfhc corpus: %s\n", err.c_str());
        return 2;
    }
    cfg.kernelsPerProfile = static_cast<int>(
        (static_cast<std::size_t>(totalKernels) + resolved.size() - 1) /
        resolved.size());

    if (!expandCorpusCells(schemeTokens, entriesList, cfg.cells, &err)) {
        std::fprintf(stderr, "rfhc corpus: %s\n", err.c_str());
        return 2;
    }

    CorpusResult res;
    if (!runCorpus(cfg, res, nullptr, &err)) {
        std::fprintf(stderr, "rfhc corpus: %s\n", err.c_str());
        return 2;
    }
    std::string doc = corpusToJson(res);
    if (json)
        std::printf("%s\n", doc.c_str());
    else
        std::printf("%s", renderCorpusSummary(res).c_str());
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "rfhc: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        out << doc << "\n";
        std::fprintf(stderr, "rfhc: wrote corpus %s\n",
                     out_path.c_str());
    }
    std::fprintf(stderr,
                 "rfhc corpus: %llu runs over %llu kernels "
                 "(%llu errors) in %.1fs\n",
                 static_cast<unsigned long long>(res.totalRuns),
                 static_cast<unsigned long long>([&] {
                     std::uint64_t k = 0;
                     for (const CorpusProfileStats &ps : res.profiles)
                         k += ps.kernels;
                     return k;
                 }()),
                 static_cast<unsigned long long>(res.totalErrors),
                 res.wallSec);
    return res.totalErrors > 0 ? 1 : 0;
}

/**
 * `rfhc fuzz`: a differential fuzz campaign. Generates seeded kernels
 * with the grammar fuzzer, runs every must-match scheme x engine pair
 * plus the allocation-invariant checker over each (src/verify/), and
 * exits 1 on the first finding, after optionally shrinking the
 * failing kernel to a minimal .rptx repro artifact.
 */
int
fuzzMain(int argc, char **argv)
{
    std::uint64_t seed = 1;
    int iters = 100;
    bool do_shrink = false;
    bool inject = false;
    std::string dump_dir;
    std::string out_path = "repro.rptx";
    std::string manifest_path;
    OracleOptions oo;
    oo.run.numWarps = 4;
    oo.run.maxInstrsPerWarp = 1u << 16;

    Flags f(argc, argv, 2);
    for (std::string a; f.next(a);) {
        if (a == "--iters") {
            if (!f.positive(iters))
                return usage();
        } else if (a == "--seed") {
            if (!f.u64(seed))
                return usage();
        } else if (a == "--shrink") {
            do_shrink = true;
        } else if (a == "--inject") {
            inject = true;
        } else if (a == "--dump") {
            if (!f.str(dump_dir))
                return usage();
        } else if (a == "--out") {
            if (!f.str(out_path))
                return usage();
        } else if (a == "--warps") {
            if (!f.positive(oo.run.numWarps))
                return usage();
        } else if (a == "--entries") {
            if (!f.positive(oo.entries, kMaxOrfEntries))
                return usage();
        } else if (a == "--no-hw") {
            oo.checkHwSchemes = false;
        } else if (a == "--no-simt") {
            oo.checkSimt = false;
        } else if (a == "--manifest") {
            if (!f.str(manifest_path))
                return usage();
        } else {
            return usage();
        }
    }
    if (inject)
        oo.perturb = OraclePerturb::EXTRA_MRF_READ;
    if (!dump_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dump_dir, ec);
        if (ec) {
            std::fprintf(stderr, "rfhc: cannot create %s: %s\n",
                         dump_dir.c_str(), ec.message().c_str());
            return 1;
        }
    }

    Counter &kernels = globalMetrics().counter("fuzz.kernels");
    Counter &instrs = globalMetrics().counter("fuzz.instrs");
    Counter &pairs = globalMetrics().counter("fuzz.pairs");
    Counter &sites = globalMetrics().counter("fuzz.invariantSites");
    Counter &discrepancies =
        globalMetrics().counter("fuzz.discrepancies");
    Counter &violations =
        globalMetrics().counter("fuzz.invariantViolations");
    Counter &execErrors = globalMetrics().counter("fuzz.execErrors");

    auto writeFuzzManifest = [&](int ran, int findingCount,
                                 double wallSec) {
        if (manifest_path.empty())
            return true;
        ManifestInfo m;
        m.tool = "rfhc fuzz";
        m.engine = "direct+replay";
        m.config = {
            {"seed", std::to_string(seed)},
            {"iters", std::to_string(iters)},
            {"warps", std::to_string(oo.run.numWarps)},
            {"entries", std::to_string(oo.entries)},
            {"hwSchemes", oo.checkHwSchemes ? "true" : "false"},
            {"simt", oo.checkSimt ? "true" : "false"},
            {"inject", inject ? "true" : "false"},
        };
        m.timing.wallSec = wallSec;
        m.timing.threads = 1;
        // Benchmarks carry only seed-deterministic scalars, so two
        // campaigns with the same seed produce byte-identical entries
        // (wall time lives in the timing section only).
        m.benchmarks = {
            {"rfhc.fuzz/kernels", static_cast<double>(ran), "kernels",
             true},
            {"rfhc.fuzz/instrs", static_cast<double>(instrs.value()),
             "instrs", true},
            {"rfhc.fuzz/pairs", static_cast<double>(pairs.value()),
             "pairs", true},
            {"rfhc.fuzz/invariantSites",
             static_cast<double>(sites.value()), "sites", true},
            {"rfhc.fuzz/findings", static_cast<double>(findingCount),
             "findings", false},
        };
        if (!writeManifest(manifest_path, m)) {
            std::fprintf(stderr, "rfhc: cannot write %s\n",
                         manifest_path.c_str());
            return false;
        }
        std::fprintf(stderr, "rfhc: wrote manifest %s\n",
                     manifest_path.c_str());
        return true;
    };

    Stopwatch wall;
    for (int iter = 0; iter < iters; iter++) {
        FuzzParams fp = fuzzCase(seed, static_cast<std::uint64_t>(iter));
        std::string name = "fuzz_" + std::to_string(seed) + "_" +
            std::to_string(iter);
        Kernel k = generateFuzzKernel(name, fp);
        std::string invalid = k.validate();
        if (!invalid.empty()) {
            std::fprintf(stderr,
                         "rfhc: fuzzer produced an invalid kernel "
                         "(%s): %s\n", name.c_str(), invalid.c_str());
            return 1;
        }
        if (!dump_dir.empty())
            writeReproArtifact(k, dump_dir + "/" + name + ".rptx");

        OracleReport rep = runOracle(k, oo);
        if (rep.truncated) {
            // Generated kernels are termination-guaranteed; hitting
            // the cap means the generator itself is broken.
            std::fprintf(stderr,
                         "rfhc: fuzz kernel %s hit the instruction "
                         "cap (generator termination bug)\n",
                         name.c_str());
            return 1;
        }
        kernels.add();
        instrs.add(static_cast<std::uint64_t>(k.numInstrs()));
        pairs.add(static_cast<std::uint64_t>(rep.pairsChecked));
        sites.add(static_cast<std::uint64_t>(rep.invariantSites));
        for (const OracleFinding &f : rep.findings) {
            switch (f.kind) {
              case FindingKind::DISCREPANCY: discrepancies.add(); break;
              case FindingKind::INVARIANT: violations.add(); break;
              case FindingKind::EXEC_ERROR: execErrors.add(); break;
            }
        }
        // Each kernel memoizes its baseline/analyses/trace; drop them
        // so a long campaign runs in bounded memory.
        globalExperimentCache().clear();

        if (!rep.ok()) {
            std::printf("rfhc fuzz: FAILURE on kernel %s (iter %d)\n%s\n",
                        name.c_str(), iter, rep.summary().c_str());
            Kernel repro = k;
            if (do_shrink) {
                FailurePredicate still_fails =
                    [&](const Kernel &cand) {
                        globalExperimentCache().clear();
                        return !runOracle(cand, oo).ok();
                    };
                ShrinkResult sr = shrinkKernel(k, still_fails);
                globalExperimentCache().clear();
                repro = sr.kernel;
                std::printf("rfhc fuzz: shrunk %d -> %d instructions "
                            "(%d candidates, %d rounds)\n",
                            sr.originalInstrs, sr.finalInstrs,
                            sr.candidatesTried, sr.rounds);
            }
            if (writeReproArtifact(repro, out_path))
                std::printf("rfhc fuzz: wrote repro %s\n",
                            out_path.c_str());
            else
                std::fprintf(stderr, "rfhc: cannot write %s\n",
                             out_path.c_str());
            writeFuzzManifest(iter + 1,
                              static_cast<int>(rep.findings.size()),
                              wall.elapsedSec());
            return 1;
        }
        if ((iter + 1) % 100 == 0)
            std::fprintf(stderr,
                         "rfhc fuzz: %d/%d kernels clean (%.1fs)\n",
                         iter + 1, iters, wall.elapsedSec());
    }

    // Seed-deterministic summary on stdout (timing goes to stderr).
    std::printf("rfhc fuzz: %d kernels, %llu instructions, %llu "
                "pairs, %llu invariant sites, 0 findings\n",
                iters,
                static_cast<unsigned long long>(instrs.value()),
                static_cast<unsigned long long>(pairs.value()),
                static_cast<unsigned long long>(sites.value()));
    std::fprintf(stderr, "rfhc fuzz: clean in %.1fs\n",
                 wall.elapsedSec());
    if (!writeFuzzManifest(iters, 0, wall.elapsedSec()))
        return 1;
    return 0;
}

/**
 * `rfhc serve`: the persistent batch compile/sim service. Accepts
 * NDJSON requests on stdio or a Unix socket until a shutdown request,
 * EOF, or SIGINT/SIGTERM, then drains gracefully (see docs/service.md).
 */
int
serveMain(int argc, char **argv)
{
    ServeOptions so;
    Flags f(argc, argv, 2);
    for (std::string a; f.next(a);) {
        if (a == "--socket") {
            if (!f.str(so.socketPath))
                return usage();
        } else if (a == "--workers") {
            if (!f.positive(so.service.workers))
                return usage();
        } else if (a == "--queue") {
            if (!f.positive(so.service.queueCapacity))
                return usage();
        } else if (a == "--batch") {
            if (!f.positive(so.service.batchMax))
                return usage();
        } else if (a == "--cache-max") {
            int n = 0;
            if (!f.positive(n))
                return usage();
            so.service.cacheMaxEntries =
                static_cast<std::size_t>(n);
        } else if (a == "--manifest") {
            if (!f.str(so.manifestPath))
                return usage();
        } else if (a == "--trace-events") {
            if (!f.str(so.traceEventsPath))
                return usage();
        } else {
            return usage();
        }
    }
    return runServe(so);
}

/** `rfhc loadgen`: drive a running service (see docs/service.md). */
int
loadgenMain(int argc, char **argv)
{
    LoadgenOptions lo;
    Flags f(argc, argv, 2);
    for (std::string a; f.next(a);) {
        if (a == "--socket") {
            if (!f.str(lo.socketPath))
                return usage();
        } else if (a == "--clients") {
            if (!f.positive(lo.clients))
                return usage();
        } else if (a == "--requests") {
            if (!f.positive(lo.requests))
                return usage();
        } else if (a == "--workload") {
            if (!f.str(lo.workload))
                return usage();
        } else if (a == "--scheme") {
            if (!f.str(lo.scheme))
                return usage();
        } else if (a == "--entries") {
            if (!f.positive(lo.entries, kMaxOrfEntries))
                return usage();
        } else if (a == "--warps") {
            if (!f.positive(lo.warps))
                return usage();
        } else if (a == "--deadline") {
            if (!f.real(lo.deadlineMs) || lo.deadlineMs <= 0)
                return usage();
        } else if (a == "--retries") {
            if (!f.positive(lo.maxRetries))
                return usage();
        } else if (a == "--verify") {
            lo.verify = true;
        } else if (a == "--shutdown") {
            lo.shutdownAfter = true;
        } else if (a == "--manifest") {
            if (!f.str(lo.manifestPath))
                return usage();
        } else {
            return usage();
        }
    }
    return runLoadgen(lo);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "compare")
        return compareMain(argc, argv);
    if (cmd == "corpus")
        return corpusMain(argc, argv);
    if (cmd == "fuzz")
        return fuzzMain(argc, argv);
    if (cmd == "serve")
        return serveMain(argc, argv);
    if (cmd == "loadgen")
        return loadgenMain(argc, argv);
    if (argc < 3)
        return usage();
    if (cmd == "bench-diff")
        return benchDiffMain(argc, argv);
    std::string path = argv[2];

    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = true;
    bool do_schedule = false;
    bool json = false;
    bool perf = false;
    PipelineConfig pcfg;
    int regalloc_budget = 0;
    int warps = 8;
    std::string manifest_path;
    std::string trace_events_path;
    std::string scheme_token;
    Flags f(argc, argv, 3);
    for (std::string a; f.next(a);) {
        if (a == "--entries") {
            if (!f.positive(opts.orfEntries, kMaxOrfEntries))
                return usage();
        } else if (a == "--no-lrf") {
            opts.useLRF = opts.splitLRF = false;
        } else if (a == "--unified-lrf") {
            opts.splitLRF = false;
        } else if (a == "--no-partial") {
            opts.partialRanges = false;
        } else if (a == "--no-readops") {
            opts.readOperands = false;
        } else if (a == "--schedule") {
            do_schedule = true;
        } else if (a == "--json") {
            json = true;
        } else if (a == "--manifest") {
            if (!f.str(manifest_path))
                return usage();
        } else if (a == "--trace-events") {
            if (!f.str(trace_events_path))
                return usage();
        } else if (a == "--regalloc") {
            if (!f.positive(regalloc_budget))
                return usage();
        } else if (a == "--warps") {
            if (!f.positive(warps))
                return usage();
        } else if (a == "--perf") {
            perf = true;
        } else if (a == "--sched") {
            std::string tok;
            if (!f.str(tok) || !parseSchedPolicy(tok, pcfg.policy))
                return usage();
        } else if (a == "--active") {
            if (!f.positive(pcfg.activeWarps))
                return usage();
        } else if (a == "--scheme") {
            if (!f.str(scheme_token))
                return usage();
        } else {
            return usage();
        }
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "rfhc: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    ParseResult parsed = parseKernel(text.str());
    if (!parsed.ok) {
        std::fprintf(stderr, "rfhc: %s: %s\n", path.c_str(),
                     parsed.error.c_str());
        return 1;
    }
    Kernel kernel = std::move(parsed.kernel);

    if (do_schedule) {
        ScheduleStats ss = scheduleKernel(kernel);
        std::fprintf(stderr,
                     "rfhc: scheduler moved %d instructions "
                     "(lifetime -%ld)\n",
                     ss.instructionsMoved, ss.lifetimeReduction);
    }
    if (regalloc_budget > 0) {
        RegAllocOptions ro;
        ro.numRegs = regalloc_budget;
        RegAllocStats rs = allocateRegisters(kernel, ro);
        std::fprintf(stderr,
                     "rfhc: regalloc used %d regs, spilled %d ranges "
                     "(%d loads, %d stores)\n",
                     rs.regsUsed, rs.spilledRanges, rs.spillLoads,
                     rs.spillStores);
    }

    if (cmd == "stats") {
        Cfg cfg(kernel);
        StrandAnalysis sa(kernel, cfg, opts.strandOptions);
        RunConfig rc;
        rc.numWarps = warps;
        UsageStats us = collectUsageStats(kernel, rc);
        std::printf("kernel %s: %d blocks, %d instructions, %d "
                    "registers\n",
                    kernel.name.c_str(),
                    static_cast<int>(kernel.blocks.size()),
                    kernel.numInstrs(), kernel.numRegs());
        std::printf("strands: %d\n", sa.numStrands());
        for (int s = 0; s < sa.numStrands(); s++) {
            const Strand &st = sa.strand(s);
            const char *why = "";
            switch (st.endReason) {
              case StrandEndReason::LONG_LATENCY:
                why = "long-latency dependence"; break;
              case StrandEndReason::BACKWARD_BRANCH:
                why = "backward branch"; break;
              case StrandEndReason::BACKWARD_TARGET:
                why = "backward-branch target"; break;
              case StrandEndReason::MERGE_UNCERTAIN:
                why = "uncertain merge"; break;
              case StrandEndReason::KERNEL_END:
                why = "kernel end"; break;
            }
            std::printf("  strand %d: lin [%d, %d]  ends: %s\n", s,
                        st.firstLin, st.lastLin, why);
        }
        std::printf("dynamic values: %llu (read0 %.1f%%, read1 %.1f%%, "
                    "read2 %.1f%%, more %.1f%%)\n",
                    static_cast<unsigned long long>(us.totalValues),
                    100 * us.fracRead(0), 100 * us.fracRead(1),
                    100 * us.fracRead(2), 100 * us.fracRead(3));
        return 0;
    }

    if (cmd == "annotate") {
        HierarchyAllocator alloc(EnergyParams{}, opts);
        AllocStats stats = alloc.run(kernel);
        PrintOptions po;
        po.annotations = true;
        po.strands = true;
        std::printf("%s", printKernel(kernel, po).c_str());
        std::fprintf(stderr,
                     "rfhc: %d strands; %d ORF values (%d partial), "
                     "%d LRF values, %d read operands, %d MRF writes "
                     "elided\n",
                     stats.strands, stats.orfValuesFull,
                     stats.orfValuesPartial, stats.lrfValues,
                     stats.orfReadsFull + stats.orfReadsPartial,
                     stats.mrfWritesElided);
        return 0;
    }

    if (cmd == "run") {
        if (!trace_events_path.empty())
            TraceEventLog::global().enable();

        Workload w;
        w.name = kernel.name;
        w.suite = "cli";
        w.kernel = std::move(kernel);
        w.run.numWarps = warps;

        ExperimentConfig cfg;
        cfg.scheme = opts.useLRF ? Scheme::SW_THREE_LEVEL
                                 : Scheme::SW_TWO_LEVEL;
        if (!scheme_token.empty()) {
            const SchemeInfo *si =
                SchemeRegistry::instance().findToken(scheme_token);
            if (!si) {
                std::fprintf(
                    stderr, "rfhc: unknown scheme '%s' (valid: %s)\n",
                    scheme_token.c_str(),
                    SchemeRegistry::instance().tokenList().c_str());
                return 1;
            }
            cfg.scheme = si->scheme;
        }
        cfg.entries = opts.orfEntries;
        cfg.splitLRF = opts.splitLRF;
        cfg.partialRanges = opts.partialRanges;
        cfg.readOperands = opts.readOperands;
        cfg.strandOptions = opts.strandOptions;
        cfg.perf = perf;
        cfg.pipeline = pcfg;

        Stopwatch wall;
        RunOutcome o = runScheme(w, cfg);
        if (!o.ok()) {
            std::fprintf(stderr, "rfhc: verification failed: %s\n",
                         o.error.c_str());
            return 1;
        }

        ManifestInfo m;
        m.tool = "rfhc run";
        m.engine = std::string(engineName(resolveEngine(cfg.engine)));
        m.config = {
            {"file", path},
            {"kernel", w.name},
            {"scheme", std::string(schemeName(cfg.scheme))},
            {"entries", std::to_string(cfg.entries)},
            {"warps", std::to_string(warps)},
            {"splitLRF", cfg.splitLRF ? "true" : "false"},
            {"partialRanges", cfg.partialRanges ? "true" : "false"},
            {"readOperands", cfg.readOperands ? "true" : "false"},
        };
        m.timing.wallSec = wall.elapsedSec();
        m.timing.cpuSec = o.phases.totalSec();
        m.timing.threads = 1;
        m.phases = o.phases;
        m.benchmarks = {
            {"rfhc.run/wallSec", m.timing.wallSec, "sec", false},
            {"rfhc.run/instrPerSec", o.phases.instrPerSec(), "instr/s",
             true},
        };
        if (!manifest_path.empty()) {
            if (!writeManifest(manifest_path, m)) {
                std::fprintf(stderr, "rfhc: cannot write %s\n",
                             manifest_path.c_str());
                return 1;
            }
            std::fprintf(stderr, "rfhc: wrote manifest %s\n",
                         manifest_path.c_str());
        }
        if (!trace_events_path.empty()) {
            if (!TraceEventLog::global().writeTo(trace_events_path)) {
                std::fprintf(stderr, "rfhc: cannot write %s\n",
                             trace_events_path.c_str());
                return 1;
            }
            std::fprintf(stderr, "rfhc: wrote trace events %s\n",
                         trace_events_path.c_str());
        }
        emitRunArtifacts(m);

        if (json) {
            std::printf("%s\n", outcomeToJson(o).c_str());
            return 0;
        }
        const AccessCounts &c = o.counts;
        std::printf("instructions: %llu   deschedules: %llu\n",
                    static_cast<unsigned long long>(c.instructions),
                    static_cast<unsigned long long>(c.deschedules));
        std::printf("reads:  MRF %llu  ORF %llu  LRF %llu\n",
                    static_cast<unsigned long long>(
                        c.totalReads(Level::MRF)),
                    static_cast<unsigned long long>(
                        c.totalReads(Level::ORF)),
                    static_cast<unsigned long long>(
                        c.totalReads(Level::LRF)));
        std::printf("writes: MRF %llu  ORF %llu  LRF %llu\n",
                    static_cast<unsigned long long>(
                        c.totalWrites(Level::MRF)),
                    static_cast<unsigned long long>(
                        c.totalWrites(Level::ORF)),
                    static_cast<unsigned long long>(
                        c.totalWrites(Level::LRF)));
        double e = o.energyPJ;
        double be = o.baselineEnergyPJ;
        std::printf("energy: %.1f pJ (flat register file: %.1f pJ, "
                    "saved %.1f%%)\n", e, be, 100.0 * (1 - e / be));
        if (o.hasPerf) {
            const PipelineStats &p = o.perf;
            std::printf(
                "perf:   %llu cycles  IPC %.3f  (%s, %d active; "
                "%llu swaps, %llu bank conflicts)\n",
                static_cast<unsigned long long>(p.cycles), p.ipc(),
                std::string(schedPolicyName(cfg.pipeline.policy))
                    .c_str(),
                cfg.pipeline.activeWarps,
                static_cast<unsigned long long>(p.swaps),
                static_cast<unsigned long long>(p.bankConflicts));
            double cyc = p.cycles ? static_cast<double>(p.cycles)
                                  : 1.0;
            std::printf(
                "stalls: scoreboard %.1f%%  collector %.1f%%  "
                "exec-busy %.1f%%  swap %.1f%%  drain %.1f%%\n",
                100.0 * p.stalls.scoreboard / cyc,
                100.0 * p.stalls.collector / cyc,
                100.0 * p.stalls.execBusy / cyc,
                100.0 * p.stalls.swap / cyc,
                100.0 * p.stalls.drain / cyc);
        }
        return 0;
    }

    return usage();
}
