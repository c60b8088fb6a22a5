/**
 * @file
 * Tests for the differential fuzzing oracle, the allocator-invariant
 * checker, and the shrinking reducer.
 *
 * The corpus under tests/corpus/ is a committed set of fuzz-generated
 * kernels (one per generator family); the oracle must report zero
 * findings on each. The tamper tests flip single annotation bits on
 * an allocated kernel and require the static checker to object — the
 * checker is only trustworthy if it fails loudly on known-bad input.
 * The shrink tests plant a counter perturbation and require the
 * reducer to cut the witness to a handful of instructions.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "compiler/allocator.h"
#include "core/experiment.h"
#include "core/json.h"
#include "core/memo.h"
#include "energy/energy_params.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "verify/oracle.h"
#include "verify/rptx_fuzz.h"
#include "verify/shrink.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

/** Oracle configuration kept small so the suite stays fast. */
OracleOptions
testOracleOptions()
{
    OracleOptions oo;
    oo.run.numWarps = 2;
    oo.run.maxInstrsPerWarp = 1u << 16;
    oo.simtWidth = 4;
    return oo;
}

/** The kernels of tests/corpus/@p subdir (not its subdirectories). */
std::vector<std::pair<std::string, Kernel>>
loadCorpus(const std::string &subdir = "")
{
    std::vector<std::pair<std::string, Kernel>> corpus;
    auto dir = std::filesystem::path(RFH_SOURCE_DIR) / "tests" /
        "corpus" / subdir;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".rptx")
            continue;
        std::ifstream in(e.path());
        std::ostringstream ss;
        ss << in.rdbuf();
        ParseResult r = parseKernel(ss.str());
        EXPECT_TRUE(r.ok) << e.path() << ": " << r.error;
        if (r.ok)
            corpus.emplace_back(e.path().filename().string(),
                                std::move(r.kernel));
    }
    return corpus;
}

TEST(VerifyOracle, CorpusIsClean)
{
    auto corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 10u);
    OracleOptions oo = testOracleOptions();
    for (auto &[name, k] : corpus) {
        OracleReport rep = runOracle(k, oo);
        EXPECT_FALSE(rep.truncated) << name;
        EXPECT_TRUE(rep.ok()) << name << ": " << rep.summary();
        EXPECT_GT(rep.pairsChecked, 0) << name;
        EXPECT_GT(rep.invariantSites, 0) << name;
    }
}

/**
 * The acceptance bar of the cycle-level pipeline: for every corpus
 * kernel, every pipelined scheme, and warp counts {1, 4, 8, 32}, the
 * pipeline's issue-time accounting must equal the functional replay
 * path — dynamic instruction count and every per-level access total.
 * Compressed latencies keep the sweep fast; counts are
 * timing-invariant, which is the property under test.
 */
TEST(VerifyOracle, PipelineConservesCountsAcrossWarpCounts)
{
    auto corpus = loadCorpus();
    ASSERT_GE(corpus.size(), 10u);
    PipelineConfig pcfg;
    pcfg.aluLatency = 2;
    pcfg.sfuLatency = 3;
    pcfg.sharedMemLatency = 3;
    pcfg.texLatency = 6;
    pcfg.dramLatency = 6;
    int pairs = 0;
    for (auto &[name, k] : corpus) {
        for (int warps : {1, 4, 8, 32}) {
            Workload w;
            w.name = k.name;
            w.suite = "corpus";
            w.kernel = k;
            w.run.numWarps = warps;
            w.run.maxInstrsPerWarp = 1u << 16;
            for (const SchemeInfo *si :
                 SchemeRegistry::instance().schemes()) {
                if (!si->caps.pipelined)
                    continue;
                ExperimentConfig cfg;
                cfg.scheme = si->scheme;
                cfg.engine = ExecEngine::REPLAY;
                RunOutcome functional = runScheme(w, cfg);
                ASSERT_TRUE(functional.ok())
                    << name << "/" << si->token << " @" << warps
                    << ": " << functional.error;
                cfg.perf = true;
                cfg.pipeline = pcfg;
                RunOutcome timed = runScheme(w, cfg);
                ASSERT_TRUE(timed.ok())
                    << name << "/" << si->token << " @" << warps
                    << ": " << timed.error;
                ASSERT_TRUE(timed.hasPerf)
                    << name << "/" << si->token << " @" << warps;
                EXPECT_EQ(timed.perf.issued,
                          functional.counts.instructions)
                    << name << "/" << si->token << " @" << warps;
                EXPECT_EQ(
                    describeCountsDiff(timed.counts, functional.counts),
                    "")
                    << name << "/" << si->token << " @" << warps;
                pairs++;
            }
        }
    }
    // Every corpus kernel contributed all scheme x warp-count pairs.
    EXPECT_GE(pairs, static_cast<int>(corpus.size()) * 4 * 2);
}

TEST(VerifyOracle, ReportIsDeterministic)
{
    Kernel k = generateFuzzKernel("det", fuzzCase(11, 2));
    OracleOptions oo = testOracleOptions();
    OracleReport a = runOracle(k, oo);
    OracleReport b = runOracle(k, oo);
    EXPECT_EQ(a.pairsChecked, b.pairsChecked);
    EXPECT_EQ(a.invariantSites, b.invariantSites);
    EXPECT_EQ(a.findings.size(), b.findings.size());
    EXPECT_EQ(a.summary(), b.summary());
}

TEST(VerifyOracle, InjectedCounterPerturbationIsCaught)
{
    Kernel k = generateFuzzKernel("inj", fuzzCase(1, 0));
    OracleOptions oo = testOracleOptions();
    ASSERT_TRUE(runOracle(k, oo).ok());
    for (OraclePerturb p : {OraclePerturb::EXTRA_MRF_READ,
                            OraclePerturb::DROP_ORF_WRITE}) {
        OracleOptions bad = oo;
        bad.perturb = p;
        OracleReport rep = runOracle(k, bad);
        EXPECT_FALSE(rep.ok())
            << "perturbation " << static_cast<int>(p) << " slipped by";
    }
}

TEST(VerifyOracle, InfiniteLoopIsTruncatedNotJudged)
{
    KernelBuilder b("spin");
    int head = b.block("head");
    b.add(makeALU(Opcode::IADD, 1, SrcOperand::makeReg(1),
                  SrcOperand::makeImm(1)));
    b.add(makeBranch(head));
    b.block("unreachable");
    b.add(makeExit());
    Kernel k = b.take();
    ASSERT_EQ(k.validate(), "");
    OracleOptions oo = testOracleOptions();
    oo.run.maxInstrsPerWarp = 1024;
    OracleReport rep = runOracle(k, oo);
    EXPECT_TRUE(rep.truncated);
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.pairsChecked, 0);
}

TEST(VerifyOracle, LongTerminatingLoopGetsAVerdict)
{
    // 12,002 instructions per warp: under the per-warp cap, though the
    // eight warps together run past it. Only a warp that hits the cap
    // truncates the run.
    Kernel k = parseKernelOrDie(R"(.kernel long_loop
entry:
    mov R2, #3000
loop:
    iadd R1, R1, #1
    isub R2, R2, #1
    setgt R3, R2, #0
    @R3 bra loop
done:
    exit
)");
    OracleOptions oo = testOracleOptions();
    oo.run.numWarps = 8;
    ASSERT_GT(12002u * oo.run.numWarps, oo.run.maxInstrsPerWarp);
    OracleReport rep = runOracle(k, oo);
    EXPECT_FALSE(rep.truncated);
    EXPECT_GT(rep.pairsChecked, 0);
    EXPECT_TRUE(rep.ok()) << (rep.findings.empty()
                                  ? ""
                                  : rep.findings.front().detail);
}

// ---- Static invariant checker: known-bad annotations must fail ----

/** Allocate @p k and return the annotated copy. */
Kernel
allocated(const Kernel &k, const AllocOptions &opts)
{
    Kernel copy = k;
    EnergyParams params;
    HierarchyAllocator alloc(params, opts);
    alloc.run(copy);
    return copy;
}

std::vector<std::string>
violationsOf(const Kernel &annotated_k, const AllocOptions &opts)
{
    auto bundle = globalExperimentCache().analyses(annotated_k);
    return checkAllocationInvariants(annotated_k, opts, *bundle);
}

/** @return true if any violation message mentions @p needle. */
bool
anyMentions(const std::vector<std::string> &violations,
            const std::string &needle)
{
    for (const auto &v : violations)
        if (v.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(VerifyInvariants, CleanAllocationPasses)
{
    Kernel k = generateFuzzKernel("clean", fuzzCase(2, 1));
    for (bool lrf : {false, true}) {
        AllocOptions opts;
        opts.useLRF = lrf;
        opts.splitLRF = lrf;
        Kernel ann = allocated(k, opts);
        auto v = violationsOf(ann, opts);
        EXPECT_TRUE(v.empty())
            << (lrf ? "sw3" : "sw2") << ": " << v.front();
    }
}

TEST(VerifyInvariants, TamperedOrfEntryExceedsCapacity)
{
    Kernel k = generateFuzzKernel("tamper", fuzzCase(2, 1));
    AllocOptions opts;
    Kernel ann = allocated(k, opts);
    bool tampered = false;
    for (int lin = 0; lin < ann.numInstrs() && !tampered; lin++) {
        Instruction &in = ann.instr(lin);
        for (int s = 0; s < in.numSrcs; s++) {
            if (!in.srcs[s].isReg ||
                in.readAnno[s].level != Level::ORF)
                continue;
            in.readAnno[s].entry =
                static_cast<std::uint8_t>(opts.orfEntries);
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered) << "no ORF read to tamper with";
    auto v = violationsOf(ann, opts);
    ASSERT_FALSE(v.empty());
    EXPECT_TRUE(anyMentions(v, "exceeds capacity")) << v.front();
}

TEST(VerifyInvariants, TamperedEndOfStrandBitIsFlagged)
{
    Kernel k = generateFuzzKernel("tamper2", fuzzCase(2, 1));
    AllocOptions opts;
    Kernel ann = allocated(k, opts);
    // Flip the first end-of-strand bit off.
    bool tampered = false;
    for (int lin = 0; lin < ann.numInstrs(); lin++) {
        if (ann.instr(lin).endOfStrand) {
            ann.instr(lin).endOfStrand = false;
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered);
    auto v = violationsOf(ann, opts);
    ASSERT_FALSE(v.empty());
    EXPECT_TRUE(anyMentions(v, "end-of-strand")) << v.front();
}

TEST(VerifyInvariants, TamperedDoubleUpperWriteIsFlagged)
{
    Kernel k = generateFuzzKernel("tamper3", fuzzCase(2, 1));
    AllocOptions opts;
    opts.useLRF = true;
    opts.splitLRF = true;
    Kernel ann = allocated(k, opts);
    bool tampered = false;
    for (int lin = 0; lin < ann.numInstrs(); lin++) {
        Instruction &in = ann.instr(lin);
        if (in.dst && in.writeAnno.toORF) {
            in.writeAnno.toLRF = true;
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered) << "no ORF write to tamper with";
    auto v = violationsOf(ann, opts);
    ASSERT_FALSE(v.empty());
    EXPECT_TRUE(anyMentions(v, "ORF and LRF")) << v.front();
}

/**
 * Regression: a later *predicated* redefinition must not make an
 * elided MRF write a violation. Liveness marks the predicated def's
 * destination as a use (merge semantics), but a predicated-off
 * instruction performs no read — only a real reaching-defs use site
 * outside the strand requires the MRF copy. Found by fuzzing
 * (seed 42); the oracle must stay quiet on this shape.
 */
TEST(VerifyInvariants, PredicatedRedefinitionDoesNotForceMrfWrite)
{
    ParseResult r = parseKernel(
        ".kernel pred_redef\n"
        "entry:\n"
        "    tex R16, [R57]\n"
        "    setlt R14, #1, #1\n"
        "    @R60 fmin R14, #1, R16\n"
        "    exit\n");
    ASSERT_TRUE(r.ok) << r.error;
    OracleReport rep = runOracle(r.kernel, testOracleOptions());
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ---- Shrinking reducer ----

TEST(VerifyShrink, ReducesInjectedFailureToTinyRepro)
{
    Kernel k = generateFuzzKernel("shrinkme", fuzzCase(1, 3));
    ASSERT_GT(k.numInstrs(), 20);
    OracleOptions oo = testOracleOptions();
    oo.perturb = OraclePerturb::EXTRA_MRF_READ;
    ASSERT_FALSE(runOracle(k, oo).ok());

    auto fails = [&](const Kernel &cand) {
        return !runOracle(cand, oo).ok();
    };
    ShrinkResult res = shrinkKernel(k, fails);
    EXPECT_LE(res.finalInstrs, 10)
        << "shrunk kernel:\n" << printKernel(res.kernel);
    EXPECT_LT(res.finalInstrs, res.originalInstrs);
    EXPECT_EQ(res.kernel.validate(), "");
    EXPECT_TRUE(fails(res.kernel)) << "shrunk kernel stopped failing";
}

TEST(VerifyShrink, ArtifactRoundTrips)
{
    Kernel k = generateFuzzKernel("artifact", fuzzCase(3, 4));
    auto path = std::filesystem::temp_directory_path() /
        "rfh_test_repro.rptx";
    ASSERT_TRUE(writeReproArtifact(k, path.string()));
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    ParseResult r = parseKernel(ss.str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(printKernel(r.kernel), printKernel(k));
    std::filesystem::remove(path);
}

// ---- Corpus drift ----

/**
 * The committed corpus is the seed-7 output of the grammar fuzzer
 * (`rfhc fuzz --seed 7 --iters 12 --dump tests/corpus`). Re-generate
 * it and require byte identity with the checked-in files: a change to
 * the generator, the IR printer, or the RNG stream silently
 * invalidates every corpus-derived baseline, and this is the test
 * that makes such a change loud. To update legitimately, re-run the
 * dump command above and commit the new files (see docs/testing.md).
 */
TEST(VerifyCorpus, RegeneratedSeed7CorpusIsByteIdentical)
{
    auto dir = std::filesystem::path(RFH_SOURCE_DIR) / "tests" /
        "corpus";
    int found = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".rptx")
            found++;
    EXPECT_EQ(found, 12) << "corpus file set changed";

    for (int i = 0; i < 12; i++) {
        std::string name = "fuzz_7_" + std::to_string(i);
        Kernel k = generateFuzzKernel(
            name, fuzzCase(7, static_cast<std::uint64_t>(i)));
        std::ifstream in(dir / (name + ".rptx"));
        ASSERT_TRUE(in.good()) << name << ".rptx missing";
        std::ostringstream committed;
        committed << in.rdbuf();
        // writeReproArtifact writes exactly printKernel(k), so this
        // comparison covers the same bytes `rfhc fuzz --dump` emits.
        EXPECT_EQ(committed.str(), printKernel(k))
            << name << ".rptx drifted from the generator";
    }
}

/**
 * Regression kernels of the overlapping wide-pair bug: two wide defs
 * with different bases (R9:R10 and R10:R11) both reaching one read
 * were merged into one value with one base register, so the ORF slot
 * pair held R10 at the wrong offset for one of them. The four
 * generated kernels are the corpus kernels it broke (profile, seed,
 * index in the name; 8 warps as in their profiles).
 */
TEST(VerifyCorpus, WidePairRegressionsBindCorrectly)
{
    auto corpus = loadCorpus("wide_pair");
    ASSERT_EQ(corpus.size(), 5u);
    for (auto &[name, k] : corpus) {
        Workload w;
        w.name = name;
        w.kernel = k;
        w.run.numWarps = 8;
        for (Scheme s : {Scheme::SW_TWO_LEVEL, Scheme::SW_THREE_LEVEL}) {
            for (int entries : {1, 2, 3, 4, 6, 8}) {
                ExperimentConfig cfg;
                cfg.scheme = s;
                cfg.entries = entries;
                cfg.engine = ExecEngine::DIRECT;
                RunOutcome direct = runScheme(w, cfg);
                EXPECT_TRUE(direct.ok())
                    << name << " " << schemeName(s) << "@" << entries
                    << ": " << direct.error;
                cfg.engine = ExecEngine::REPLAY;
                EXPECT_EQ(outcomeToJson(runScheme(w, cfg)),
                          outcomeToJson(direct))
                    << name << " " << schemeName(s) << "@" << entries;
            }
        }
        OracleReport rep = runOracle(k, testOracleOptions());
        EXPECT_TRUE(rep.ok()) << name << ": " << rep.summary();
    }
}

/** The 8-instruction repro, at the cell that first showed the bug. */
TEST(VerifyCorpus, WidePairReproVerifiesAtSw3ThreeEntries)
{
    auto corpus = loadCorpus("wide_pair");
    const Kernel *repro = nullptr;
    for (auto &[name, k] : corpus)
        if (name == "wide_pair_repro.rptx")
            repro = &k;
    ASSERT_NE(repro, nullptr);
    Workload w;
    w.name = "wide_pair_repro";
    w.kernel = *repro;
    ExperimentConfig cfg;
    cfg.scheme = Scheme::SW_THREE_LEVEL;
    cfg.entries = 3;
    cfg.engine = ExecEngine::DIRECT;
    RunOutcome out = runScheme(w, cfg);
    // Before the fix: "@lin 2: ORF entry 0 does not hold R10".
    EXPECT_EQ(out.error, "");
    EXPECT_TRUE(out.ok());
}

/** The reducer never invents an invalid kernel, whatever the oracle. */
TEST(VerifyShrink, CandidatesStayValidUnderAlwaysFail)
{
    Kernel k = generateFuzzKernel("valid", fuzzCase(4, 5));
    int checked = 0;
    auto fails = [&](const Kernel &cand) {
        EXPECT_EQ(cand.validate(), "");
        checked++;
        return true;  // greedily accept every structural reduction
    };
    ShrinkResult res = shrinkKernel(k, fails);
    EXPECT_GT(checked, 0);
    // Accepting everything must shrink to a single instruction.
    EXPECT_LE(res.finalInstrs, 2);
}

} // namespace
} // namespace rfh
