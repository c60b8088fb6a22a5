/**
 * @file
 * Tests for the cycle-level SM pipeline (sim/pipeline.h): determinism,
 * scheduler-policy properties, bank conflicts, collector backpressure,
 * the stall-accounting identity, the cycle cap, a golden digest of
 * every PipelineStats field over a fixed corpus matrix, and the
 * Table 2 / Section 6 scheduler claims (PerfSim.*). The golden IPC
 * bands live in test_golden.cpp; the pipeline-vs-functional count
 * equality is oracle-enforced in test_verify.cpp and the fuzz
 * campaign.
 *
 * SwFailingRun.* pins the failure contract of the software hierarchy:
 * for each structural annotation fault, replay and the pipeline stop
 * with the direct executor's exact error (replay also with its partial
 * counts), the static allocation check flags the fault, and runScheme
 * answers with that check's verdict on every engine before executing.
 * OneVerdict.* plants the pre-fix wide-pair binding and pins one error
 * from every engine, batch size and service path. A test-only
 * "testfault" backend injects the faults through runScheme; with no
 * fault active it is a clean sw3 clone. A second test-only clone, "testcount",
 * counts allocate and simulate calls to pin how many passes one
 * runScheme makes. Registry-wide tests in this binary simply see two
 * more clean schemes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <utility>

#include "core/experiment.h"
#include "core/json.h"
#include "core/memo.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "ir/analysis_bundle.h"
#include "ir/parser.h"
#include "service/protocol.h"
#include "service/server.h"
#include "sim/pipeline.h"
#include "sim/pipeline_account.h"
#include "sim/sw_exec.h"
#include "sim/trace.h"
#include "verify/oracle.h"
#include "workloads/profiles.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

Kernel
aluLoop()
{
    return parseKernelOrDie(R"(.kernel alu
entry:
    mov R1, #64
    mov R2, #0
body:
    iadd R2, R2, R1
    xor R3, R2, R1
    iadd R2, R2, R3
    isub R1, R1, #1
    setgt R4, R1, #0
    @R4 bra body
out:
    st.global [R0], R2
    exit
)");
}

Kernel
memLoop()
{
    return parseKernelOrDie(R"(.kernel mem
entry:
    mov R1, #32
    mov R2, #0
body:
    ld.global R3, [R0]
    iadd R2, R2, R3
    iadd R0, R0, #4
    isub R1, R1, #1
    setgt R4, R1, #0
    @R4 bra body
out:
    st.global [R0], R2
    exit
)");
}

/** Same-register sources land in the same MRF bank every cycle. */
Kernel
conflictLoop()
{
    return parseKernelOrDie(R"(.kernel conflict
entry:
    mov R1, #48
    mov R2, #7
body:
    iadd R3, R2, R2
    iadd R4, R2, R2
    isub R1, R1, #1
    setgt R5, R1, #0
    @R5 bra body
out:
    exit
)");
}

/** Run @p k's recorded stream through the pipeline, flat accounting. */
PipelineResult
runFlat(const Kernel &k, int warps, const PipelineConfig &cfg,
        AccessCounts *countsOut = nullptr)
{
    RunConfig rc;
    rc.numWarps = warps;
    DecodedTrace trace = recordDecodedTrace(k, rc);
    ReplayDecode dec(k);
    AccessCounts counts;
    auto acct = makeFlatAccounting(k, &dec, counts);
    PipelineResult r = runPipeline(trace, dec, *acct, cfg);
    if (countsOut)
        *countsOut = counts;
    return r;
}

bool
statsEqual(const PipelineStats &a, const PipelineStats &b)
{
    return a.cycles == b.cycles && a.issued == b.issued &&
        a.swaps == b.swaps && a.bankConflicts == b.bankConflicts &&
        a.stalls.scoreboard == b.stalls.scoreboard &&
        a.stalls.collector == b.stalls.collector &&
        a.stalls.execBusy == b.stalls.execBusy &&
        a.stalls.swap == b.stalls.swap &&
        a.stalls.drain == b.stalls.drain;
}

// ---- Scheduler policies ----

TEST(Pipeline, SchedPolicyTokensRoundTrip)
{
    for (SchedPolicy p : {SchedPolicy::FLAT_RR, SchedPolicy::TWO_LEVEL,
                          SchedPolicy::GTO}) {
        SchedPolicy back;
        ASSERT_TRUE(parseSchedPolicy(schedPolicyName(p), back));
        EXPECT_EQ(back, p);
    }
    SchedPolicy out;
    EXPECT_TRUE(parseSchedPolicy("rr", out));
    EXPECT_EQ(out, SchedPolicy::FLAT_RR);
    EXPECT_TRUE(parseSchedPolicy("twolevel", out));
    EXPECT_EQ(out, SchedPolicy::TWO_LEVEL);
    EXPECT_FALSE(parseSchedPolicy("lottery", out));
}

TEST(Pipeline, DeterministicCycleCounts)
{
    for (Kernel k : {aluLoop(), memLoop()}) {
        PipelineConfig cfg;
        cfg.activeWarps = 4;
        AccessCounts c1, c2;
        PipelineResult r1 = runFlat(k, 16, cfg, &c1);
        PipelineResult r2 = runFlat(k, 16, cfg, &c2);
        ASSERT_TRUE(r1.ok()) << r1.error;
        EXPECT_TRUE(statsEqual(r1.stats, r2.stats)) << k.name;
        EXPECT_EQ(describeCountsDiff(c1, c2), "") << k.name;
    }
}

TEST(Pipeline, EveryRecordIssuesExactlyOnce)
{
    // The issue stage is the pipeline's conservation point: every
    // dynamic record of every warp issues exactly once, under every
    // policy, even with a one-entry collector squeezing backpressure
    // through the issue port.
    Kernel k = memLoop();
    RunConfig rc;
    rc.numWarps = 12;
    DecodedTrace trace = recordDecodedTrace(k, rc);
    ReplayDecode dec(k);
    for (SchedPolicy p : {SchedPolicy::FLAT_RR, SchedPolicy::TWO_LEVEL,
                          SchedPolicy::GTO}) {
        PipelineConfig cfg;
        cfg.policy = p;
        cfg.activeWarps = 3;
        cfg.collectorSlots = 1;
        AccessCounts counts;
        auto acct = makeFlatAccounting(k, &dec, counts);
        PipelineResult r = runPipeline(trace, dec, *acct, cfg);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.stats.issued, trace.instructions())
            << schedPolicyName(p);
        EXPECT_EQ(counts.instructions, trace.instructions())
            << schedPolicyName(p);
    }
}

TEST(Pipeline, AccessCountsAreScheduleInvariant)
{
    // Accounting happens at issue in per-warp program order, so the
    // totals cannot depend on the scheduler interleaving. This is the
    // property that makes the pipeline-vs-functional oracle hold for
    // every scheme.
    Kernel k = memLoop();
    AccessCounts ref;
    PipelineConfig flat;
    flat.policy = SchedPolicy::FLAT_RR;
    ASSERT_TRUE(runFlat(k, 8, flat, &ref).ok());
    for (SchedPolicy p : {SchedPolicy::TWO_LEVEL, SchedPolicy::GTO}) {
        for (int active : {1, 2, 8}) {
            PipelineConfig cfg;
            cfg.policy = p;
            cfg.activeWarps = active;
            AccessCounts got;
            ASSERT_TRUE(runFlat(k, 8, cfg, &got).ok());
            EXPECT_EQ(describeCountsDiff(got, ref), "")
                << schedPolicyName(p) << "/" << active;
        }
    }
}

TEST(Pipeline, FullActiveSetReducesTwoLevelToFlat)
{
    // activeWarps == numWarps: the pending set is empty, so the
    // two-level scheduler must degenerate to flat round-robin — not
    // approximately, but cycle for cycle.
    for (Kernel k : {aluLoop(), memLoop()}) {
        for (int warps : {1, 4, 8}) {
            PipelineConfig flat;
            flat.policy = SchedPolicy::FLAT_RR;
            PipelineConfig two;
            two.policy = SchedPolicy::TWO_LEVEL;
            two.activeWarps = warps;
            PipelineResult rf = runFlat(k, warps, flat);
            PipelineResult rt = runFlat(k, warps, two);
            ASSERT_TRUE(rf.ok() && rt.ok());
            EXPECT_TRUE(statsEqual(rf.stats, rt.stats))
                << k.name << " @" << warps;
            EXPECT_EQ(rt.stats.swaps, 0u);
        }
    }
}

TEST(Pipeline, TwoLevelSwapsOnLongLatencyDependences)
{
    PipelineConfig cfg;
    cfg.activeWarps = 4;
    PipelineResult r = runFlat(memLoop(), 16, cfg);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.stats.swaps, 0u);
    EXPECT_GT(r.stats.stalls.swap, 0u);
}

TEST(Pipeline, GtoPrefersTheLastIssuedWarp)
{
    // Greedy-then-oldest drains a warp until it stalls; with a pure
    // ALU kernel it still completes everything and beats nothing —
    // the stats just have to be well-formed and complete.
    PipelineConfig cfg;
    cfg.policy = SchedPolicy::GTO;
    AccessCounts counts;
    PipelineResult r = runFlat(aluLoop(), 8, cfg, &counts);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.stats.issued, 0u);
    EXPECT_EQ(r.stats.swaps, 0u);  // swaps are a two-level notion
}

// ---- Stall accounting ----

TEST(Pipeline, EveryCycleIssuesOrIsAttributedToOneStall)
{
    // cycles == issued + sum(stalls): each cycle either issues one
    // instruction or increments exactly one stall counter (including
    // fast-forwarded idle stretches).
    for (Kernel k : {aluLoop(), memLoop(), conflictLoop()}) {
        for (int active : {1, 4, 32}) {
            PipelineConfig cfg;
            cfg.activeWarps = active;
            PipelineResult r = runFlat(k, 32, cfg);
            ASSERT_TRUE(r.ok()) << r.error;
            EXPECT_EQ(r.stats.cycles,
                      r.stats.issued + r.stats.stalls.total())
                << k.name << " @" << active;
        }
    }
}

// ---- Operand collector and MRF banks ----

TEST(Pipeline, SameBankOperandsConflict)
{
    // iadd R3, R2, R2 reads the same register twice: both operands
    // live in the same bank, so every issue defers one read cycle.
    PipelineConfig cfg;
    PipelineResult r = runFlat(conflictLoop(), 4, cfg);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.stats.bankConflicts, 0u);
}

TEST(Pipeline, SingleBankSerialisesEveryOperandPair)
{
    // One bank: any multi-operand instruction conflicts; 32 banks
    // with swizzle resolve everything the kernel's registers allow.
    PipelineConfig one;
    one.banks.numBanks = 1;
    PipelineConfig many;
    many.banks.numBanks = 32;
    PipelineResult r1 = runFlat(aluLoop(), 4, one);
    PipelineResult rn = runFlat(aluLoop(), 4, many);
    ASSERT_TRUE(r1.ok() && rn.ok());
    // Conflicts are monotone in the layout; cycles are not (deferred
    // operand fetches reshuffle issue order), so only the conflict
    // count is asserted.
    EXPECT_GT(r1.stats.bankConflicts, rn.stats.bankConflicts);
    EXPECT_EQ(r1.stats.issued, rn.stats.issued);
}

TEST(Pipeline, CollectorBackpressureCostsCyclesNotInstructions)
{
    PipelineConfig wide;
    wide.collectorSlots = 8;
    PipelineConfig narrow;
    narrow.collectorSlots = 1;
    PipelineResult rw = runFlat(aluLoop(), 16, wide);
    PipelineResult rn = runFlat(aluLoop(), 16, narrow);
    ASSERT_TRUE(rw.ok() && rn.ok());
    EXPECT_EQ(rw.stats.issued, rn.stats.issued);
    EXPECT_GE(rn.stats.cycles, rw.stats.cycles);
}

// ---- The cycle cap ----

TEST(Pipeline, CycleCapEndsTheRunWithAnError)
{
    // A run stopped at maxCycles with work left is unfinished: it
    // reports where it stopped instead of partial stats. A cap the
    // run just fits under changes nothing.
    PipelineConfig cfg;
    const PipelineResult full = runFlat(aluLoop(), 8, cfg);
    ASSERT_TRUE(full.ok()) << full.error;
    cfg.maxCycles = full.stats.cycles;
    const PipelineResult fits = runFlat(aluLoop(), 8, cfg);
    ASSERT_TRUE(fits.ok()) << fits.error;
    EXPECT_TRUE(statsEqual(fits.stats, full.stats));

    cfg.maxCycles = full.stats.cycles - 1;
    const PipelineResult capped = runFlat(aluLoop(), 8, cfg);
    EXPECT_FALSE(capped.ok());
    EXPECT_NE(capped.error.find("cycle cap"), std::string::npos)
        << capped.error;
    EXPECT_NE(capped.error.find(std::to_string(cfg.maxCycles) +
                                " cycles"),
              std::string::npos)
        << capped.error;
    EXPECT_NE(capped.error.find(" of " +
                                std::to_string(full.stats.issued)),
              std::string::npos)
        << capped.error;
}

TEST(Pipeline, CappedPerfRunIsNotOk)
{
    // Under REPLAY the pipeline is a perf run's execute pass; when it
    // hits the cap, runScheme falls back to simulate for the counts
    // and reports the pipeline's error — never ok with partial counts.
    const Workload &w = workloadByName("nbody");
    ExperimentConfig cfg;
    cfg.scheme = Scheme::SW_THREE_LEVEL;
    cfg.engine = ExecEngine::REPLAY;
    const RunOutcome plain = runScheme(w, cfg);
    ASSERT_TRUE(plain.ok()) << plain.error;

    cfg.perf = true;
    cfg.pipeline.maxCycles = 1000;
    const RunOutcome capped = runScheme(w, cfg);
    EXPECT_FALSE(capped.ok());
    EXPECT_FALSE(capped.hasPerf);
    EXPECT_EQ(capped.error.rfind("pipeline: ", 0), 0u) << capped.error;
    EXPECT_NE(capped.error.find("1000 cycles"), std::string::npos)
        << capped.error;
    EXPECT_EQ(describeCountsDiff(capped.counts, plain.counts), "");
}

// ---- Golden stats digest ----

/** Fold @p v's eight bytes into the FNV-1a digest @p h. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
}

TEST(Pipeline, StatsDigestMatchesTheGoldenMatrix)
{
    // Every PipelineStats field over a fixed matrix — corpus kernels
    // x scheduler x accounting x bank layout x collector depth —
    // folded into one digest. Any change to the cycle semantics, the
    // stall attribution, or the idle-span fast-forward moves it; a
    // change that only makes the loop faster must not.
    struct Sched
    {
        SchedPolicy policy;
        int active;
    };
    const Sched scheds[] = {{SchedPolicy::FLAT_RR, 8},
                            {SchedPolicy::TWO_LEVEL, 2},
                            {SchedPolicy::TWO_LEVEL, 8},
                            {SchedPolicy::GTO, 8}};
    const Scheme schemes[] = {Scheme::SW_THREE_LEVEL,
                              Scheme::HW_TWO_LEVEL, Scheme::BASELINE};
    std::uint64_t h = 0xcbf29ce484222325ull;
    int runs = 0;
    for (const ScenarioProfile &p : allProfiles()) {
        for (int i = 0; i < 4; i++) {
            const Workload w = corpusWorkload(p, 1, i);
            for (const Sched &s : scheds) {
                for (Scheme scheme : schemes) {
                    for (int banks : {32, 1}) {
                        for (int slots : {1, 4}) {
                            ExperimentConfig cfg;
                            cfg.scheme = scheme;
                            cfg.engine = ExecEngine::REPLAY;
                            cfg.perf = true;
                            cfg.pipeline.policy = s.policy;
                            cfg.pipeline.activeWarps = s.active;
                            cfg.pipeline.banks.numBanks = banks;
                            cfg.pipeline.collectorSlots = slots;
                            const RunOutcome out = runScheme(w, cfg);
                            ASSERT_TRUE(out.ok() && out.hasPerf)
                                << w.name << ": " << out.error;
                            const PipelineStats &st = out.perf;
                            for (std::uint64_t v :
                                 {st.cycles, st.issued, st.swaps,
                                  st.bankConflicts, st.stalls.scoreboard,
                                  st.stalls.collector, st.stalls.execBusy,
                                  st.stalls.swap, st.stalls.drain})
                                fnvMix(h, v);
                            runs++;
                        }
                    }
                }
            }
        }
    }
    globalExperimentCache().clear();
    EXPECT_EQ(runs, 1536);
    EXPECT_EQ(h, 0xf5e5a00dcd4a8e32ull) << std::hex << h;
}

// ---- Table 2 / Section 6 claims ----

/** Pipeline timing of @p k: @p warps resident, @p active in the set. */
PipelineStats
table2(const Kernel &k, int warps, int active)
{
    PipelineConfig cfg;
    cfg.activeWarps = active;
    return runFlat(k, warps, cfg).stats;
}

TEST(PerfSim, MoreWarpsHideAluLatency)
{
    Kernel k = aluLoop();
    PipelineStats r1 = table2(k, 1, 1);
    PipelineStats r8 = table2(k, 8, 8);
    EXPECT_GT(r8.ipc(), 2.0 * r1.ipc());
    // With dependent ALU chains (8-cycle latency), 8 warps approach
    // full issue throughput.
    EXPECT_GT(r8.ipc(), 0.8);
}

TEST(PerfSim, SingleWarpBoundByDependencies)
{
    PipelineStats r = table2(aluLoop(), 1, 1);
    // A single warp cannot exceed 1/latency-ish IPC on a dependent
    // chain.
    EXPECT_LT(r.ipc(), 0.5);
    EXPECT_GT(r.ipc(), 0.0);
}

TEST(PerfSim, TwoLevelMatchesFlatWithEightActive)
{
    for (Kernel k : {aluLoop(), memLoop()}) {
        PipelineStats rf = table2(k, 32, 32);
        PipelineStats rt = table2(k, 32, 8);
        EXPECT_GT(rt.ipc(), 0.95 * rf.ipc()) << k.name;
    }
}

TEST(PerfSim, TooFewActiveWarpsHurtMemoryBound)
{
    // The two-level scheduler with 32 resident warps beats a 2-warp
    // machine by swapping during DRAM stalls.
    Kernel k = memLoop();
    PipelineStats r_two = table2(k, 32, 2);
    PipelineStats r_tiny = table2(k, 2, 2);
    EXPECT_GT(r_two.ipc(), 1.5 * r_tiny.ipc());
}

TEST(PerfSim, DeschedulesHappenOnLongLatency)
{
    EXPECT_GT(table2(memLoop(), 16, 4).swaps, 0u);
}

TEST(PerfSim, AllWarpsRunToCompletion)
{
    // Each warp executes the same instruction count (uniform control
    // flow in this kernel).
    Kernel k = aluLoop();
    EXPECT_EQ(table2(k, 8, 4).issued, 8 * table2(k, 1, 1).issued);
}

TEST(PerfSim, WorksOnRealWorkloads)
{
    const Workload &w = workloadByName("scalarprod");
    PipelineStats r = table2(w.kernel, 32, 8);
    EXPECT_GT(r.issued, 0u);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_LE(r.ipc(), 1.0);
}

TEST(PerfSim, DeterministicCycleForCycle)
{
    // Two identical runs agree on every field, not just within a band.
    for (Kernel k : {aluLoop(), memLoop()})
        EXPECT_TRUE(statsEqual(table2(k, 16, 4), table2(k, 16, 4)))
            << k.name;
}

TEST(PerfSim, EightWarpsApproachFullIssueBandwidth)
{
    // Dependent-chain period is latency+1 in the staged pipeline, so
    // 8 warps on the 8-cycle ALU sustain ~8/9 IPC; one warp gets the
    // reciprocal share.
    Kernel k = aluLoop();
    PipelineStats r1 = table2(k, 1, 1);
    PipelineStats r8 = table2(k, 8, 8);
    EXPECT_GT(r8.ipc(), 0.8);
    EXPECT_LE(r8.ipc(), 1.0);
    EXPECT_LT(r1.ipc(), 0.35);
}

// ---- Scheme-level pipeline runs ----

TEST(Pipeline, SchemeRunsMatchFunctionalCountsOnAWorkload)
{
    const Workload &w = workloadByName("scalarprod");
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes()) {
        if (!si->caps.pipelined)
            continue;
        ExperimentConfig cfg;
        cfg.scheme = si->scheme;
        cfg.engine = ExecEngine::REPLAY;
        RunOutcome functional = runScheme(w, cfg);
        ASSERT_TRUE(functional.ok())
            << si->token << ": " << functional.error;
        cfg.perf = true;
        RunOutcome timed = runScheme(w, cfg);
        ASSERT_TRUE(timed.ok()) << si->token << ": " << timed.error;
        ASSERT_TRUE(timed.hasPerf) << si->token;
        EXPECT_EQ(describeCountsDiff(timed.counts, functional.counts),
                  "")
            << si->token;
        EXPECT_EQ(timed.perf.issued, functional.counts.instructions)
            << si->token;
    }
}

TEST(Pipeline, HierarchySchemesBypassMrfBanksAtTheCollector)
{
    // Upper-level operands skip bank arbitration entirely, so a
    // hierarchy scheme can only see fewer conflicts than the flat
    // baseline on the same stream — that is the operand-delivery
    // argument of the paper in pipeline form.
    const Workload &w = workloadByName("scalarprod");
    ExperimentConfig base;
    base.scheme = Scheme::BASELINE;
    base.engine = ExecEngine::REPLAY;
    base.perf = true;
    RunOutcome flat = runScheme(w, base);
    ASSERT_TRUE(flat.ok()) << flat.error;
    ExperimentConfig sw = base;
    sw.scheme = Scheme::SW_THREE_LEVEL;
    RunOutcome three = runScheme(w, sw);
    ASSERT_TRUE(three.ok()) << three.error;
    EXPECT_LE(three.perf.bankConflicts, flat.perf.bankConflicts);
}

TEST(Pipeline, PerfRunRejectsUnregisteredSchemes)
{
    // Fabricate an unregistered id and check a perf run's error path
    // stays an error, not a crash.
    const Workload &w = workloadByName("scalarprod");
    ExperimentConfig cfg;
    cfg.scheme = Scheme(250);
    cfg.perf = true;
    RunOutcome out = runScheme(w, cfg);
    EXPECT_FALSE(out.ok());
    EXPECT_FALSE(out.hasPerf);
    EXPECT_NE(out.error.find("unregistered"), std::string::npos);
}

// ---- Failing runs: every engine stops at the same structural fault ----

/**
 * One structural fault of a software-hierarchy run: an annotation
 * tamper on the allocated kernel, or (no tamper) execution without
 * the long-latency strand cuts the allocation was made under.
 */
struct SwFault
{
    const char *name;
    const char *expect;  ///< Substring of the executors' error.
    /** First checkAllocationInvariants violation of the fault. */
    const char *invariant;
    bool threeLevel = true;
    void (*tamper)(Kernel &k, const AllocOptions &ao) = nullptr;
};

/** The fault the "testfault" backend injects; null for a clean run. */
const SwFault *activeFault = nullptr;

/**
 * Test-only backend: the software hierarchy (sw3, or sw2 when the
 * active fault says so) allocated under the default strand cuts, with
 * the active fault's tamper applied to the annotated copy. runScheme
 * meets the fault through its real entry point; with no active fault
 * it is a clean sw3 clone.
 */
class FaultScheme : public SchemeBackend
{
  public:
    AllocOptions
    allocOptions(const ExperimentConfig &cfg) const override
    {
        return sw().allocOptions(cfg);
    }

    AllocStats
    allocate(Kernel &k, const ExperimentConfig &cfg,
             const AnalysisBundle *analyses) const override
    {
        ExperimentConfig cut = cfg;
        cut.strandOptions = StrandOptions{};
        AllocStats st = sw().allocate(k, cut, analyses);
        if (activeFault && activeFault->tamper)
            activeFault->tamper(k, allocOptions(cfg));
        return st;
    }

    SchemeSimResult
    simulate(const SchemeRunContext &ctx) const override
    {
        return sw().simulate(ctx);
    }

    bool
    splitLrfEnergy(const ExperimentConfig &cfg) const override
    {
        return sw().splitLrfEnergy(cfg);
    }

    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        return sw().makePipelineAccounting(ctx);
    }

  private:
    static const SchemeBackend &
    sw()
    {
        const bool three = !activeFault || activeFault->threeLevel;
        return *SchemeRegistry::instance()
                    .find(three ? Scheme::SW_THREE_LEVEL
                                : Scheme::SW_TWO_LEVEL)
                    ->backend;
    }
};

SchemeSpec
faultSpec()
{
    SchemeSpec s;
    s.token = "testfault";
    s.display = "Fault";
    s.summary = "test-only software hierarchy with injected faults";
    s.caps.usesAllocator = true;
    s.caps.pipelined = true;
    return s;
}

std::unique_ptr<SchemeBackend>
makeFaultScheme()
{
    return std::make_unique<FaultScheme>();
}

} // namespace

RFH_REGISTER_SCHEME(faultRegistrar, faultSpec(), makeFaultScheme);

namespace {

/**
 * Test-only clean sw3 clone that counts its allocate and simulate
 * calls, so a test can pin how many passes one runScheme makes.
 */
class CountingScheme : public SchemeBackend
{
  public:
    static inline std::atomic<int> allocations{0};
    static inline std::atomic<int> simulations{0};

    AllocOptions
    allocOptions(const ExperimentConfig &cfg) const override
    {
        return sw3().allocOptions(cfg);
    }

    AllocStats
    allocate(Kernel &k, const ExperimentConfig &cfg,
             const AnalysisBundle *analyses) const override
    {
        allocations++;
        return sw3().allocate(k, cfg, analyses);
    }

    SchemeSimResult
    simulate(const SchemeRunContext &ctx) const override
    {
        simulations++;
        return sw3().simulate(ctx);
    }

    bool
    splitLrfEnergy(const ExperimentConfig &cfg) const override
    {
        return sw3().splitLrfEnergy(cfg);
    }

    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        return sw3().makePipelineAccounting(ctx);
    }

  private:
    static const SchemeBackend &
    sw3()
    {
        return *SchemeRegistry::instance()
                    .find(Scheme::SW_THREE_LEVEL)
                    ->backend;
    }
};

SchemeSpec
countSpec()
{
    SchemeSpec s;
    s.token = "testcount";
    s.display = "Count";
    s.summary = "test-only sw3 clone counting allocate/simulate calls";
    s.caps.usesAllocator = true;
    s.caps.pipelined = true;
    return s;
}

std::unique_ptr<SchemeBackend>
makeCountScheme()
{
    return std::make_unique<CountingScheme>();
}

} // namespace

RFH_REGISTER_SCHEME(countRegistrar, countSpec(), makeCountScheme);

namespace {

/**
 * Straight-line kernel every warp walks identically, so the first
 * structural fault is hit by warp 0 at the same instruction under the
 * sequential executors and the interleaving pipeline alike.
 */
Kernel
faultKernel()
{
    return parseKernelOrDie(R"(.kernel faults
entry:
    mov R1, #5
    iadd R2, R1, #3
    ld.global R3, [R0]
    iadd R4, R2, R1
    iadd R5, R3, R4
    st.global [R0], R5
    exit
)");
}

TEST(SwFailingRun, ReplayAndPipelineMatchDirect)
{
    const SwFault faults[] = {
        {"shared-datapath LRF read", "shared-datapath LRF read",
         "@lin 5: LRF read on the shared datapath", true,
         [](Kernel &k, const AllocOptions &) {
             k.instr(5).readAnno[0].level = Level::LRF;  // st.global
             k.instr(5).readAnno[0].lrfBank = 0;
         }},
        {"ORF entry out of range", "ORF entry out of range",
         "@lin 1: write to ORF entry 3 exceeds capacity 3", true,
         [](Kernel &k, const AllocOptions &ao) {
             WriteAnnotation &wa = k.instr(1).writeAnno;  // iadd R2
             wa.toLRF = false;
             wa.toORF = true;
             wa.toMRF = true;
             wa.orfEntry = static_cast<std::uint8_t>(ao.orfEntries);
         }},
        {"long-latency result to an upper level",
         "long-latency result annotated to an upper level",
         "@lin 2: long-latency result annotated to an upper level", true,
         [](Kernel &k, const AllocOptions &) {
             WriteAnnotation &wa = k.instr(2).writeAnno;  // ld.global
             wa.toORF = true;
             wa.orfEntry = 0;
         }},
        {"invalid LRF write", "invalid LRF write annotation",
         "@lin 1: value written to both ORF and LRF", false,
         [](Kernel &k, const AllocOptions &) {
             k.instr(1).writeAnno.toLRF = true;  // sw2: no LRF
         }},
        {"write to both LRF and ORF", "value written to both LRF and ORF",
         "@lin 3: value written to both ORF and LRF", true,
         [](Kernel &k, const AllocOptions &) {
             WriteAnnotation &wa = k.instr(3).writeAnno;  // iadd R4
             wa.toLRF = true;
             wa.lrfBank = 0;
             wa.toORF = true;
             wa.orfEntry = 0;
         }},
        // No tamper: executed without long-latency strand cuts, the
        // load's consumer sits mid-strand behind it.
        {"mid-strand long-latency touch",
         "touches an outstanding long-latency register",
         "@lin 3: end-of-strand bit set mid-strand", true, nullptr},
    };

    Workload w;
    w.name = "faults";
    w.kernel = faultKernel();
    w.run.numWarps = 2;
    const AnalysisBundle bundle(w.kernel);
    const DecodedTrace trace = recordDecodedTrace(w.kernel, w.run);
    const ReplayDecode dec(w.kernel, &bundle.reachingDefs);
    const SchemeInfo &si = *SchemeRegistry::instance().findToken("testfault");
    for (const SwFault &f : faults) {
        SCOPED_TRACE(f.name);
        activeFault = &f;
        ExperimentConfig cfg;
        cfg.scheme = si.scheme;
        cfg.strandOptions.cutAtLongLatency = f.tamper != nullptr;
        const AllocOptions ao = cfg.allocOptions();
        Kernel annotated = w.kernel;
        si.backend->allocate(annotated, cfg, &bundle);

        SwExecConfig sc;
        sc.run = w.run;
        SwExecResult direct = runSwHierarchy(annotated, ao, sc, &bundle);
        ASSERT_NE(direct.error.find(f.expect), std::string::npos)
            << direct.error;
        SwExecResult replay =
            replaySwHierarchy(annotated, ao, trace, sc, &bundle);
        EXPECT_EQ(replay.error, direct.error);
        EXPECT_EQ(describeCountsDiff(replay.counts, direct.counts), "");

        // The pipeline meets the same fault at issue.
        AccessCounts issued;
        PipelineBuildContext build;
        build.kernel = &annotated;
        build.cfg = &cfg;
        build.analyses = &bundle;
        build.decode = &dec;
        build.counts = &issued;
        std::unique_ptr<PipelineAccounting> acct =
            si.backend->makePipelineAccounting(build);
        ASSERT_TRUE(acct);
        EXPECT_EQ(runPipeline(trace, dec, *acct, cfg.pipeline).error,
                  direct.error);

        // The static check flags the fault in the annotated kernel...
        std::vector<std::string> violations =
            checkAllocationInvariants(annotated, ao, bundle);
        ASSERT_FALSE(violations.empty());
        EXPECT_EQ(violations.front(), f.invariant);

        // ...so runScheme stops before executing, with the check's
        // verdict and no counts, on every engine, perf on or off.
        const std::string verdict = w.kernel.name + " " + f.invariant;
        for (ExecEngine e :
             {ExecEngine::AUTO, ExecEngine::DIRECT, ExecEngine::REPLAY}) {
            for (bool perf : {false, true}) {
                SCOPED_TRACE(std::string(engineName(e)) +
                             (perf ? "+perf" : ""));
                globalExperimentCache().clear();
                cfg.engine = e;
                cfg.perf = perf;
                RunOutcome out = runScheme(w, cfg);
                EXPECT_EQ(out.error, verdict);
                EXPECT_EQ(describeCountsDiff(out.counts, AccessCounts{}),
                          "");
                EXPECT_FALSE(out.hasPerf);
            }
        }
    }
    activeFault = nullptr;
    globalExperimentCache().clear();
}

// ---- One verdict: a wrong binding fails alike everywhere ----

/**
 * The overlapping wide-pair binding the allocator produced before its
 * fix, planted in tests/corpus/wide_pair/wide_pair_repro.rptx at sw3
 * with 3 entries: lin 1's R9:R10 goes to ORF entries 0-1, and lin 2
 * reads R10 from entry 0, which holds R9. As in that allocation, R63
 * stays in the MRF, so entry 1 is free for R10.
 */
const SwFault kWidePairBinding = {
    "pre-fix wide-pair binding", "ORF entry 0 does not hold R10",
    "@lin 2: read of R10 from ORF entry 0 which holds R9", true,
    [](Kernel &k, const AllocOptions &) {
        for (int lin : {0, 8}) {  // ld.param / st.global [R63]
            Instruction &in = k.instr(lin);
            for (int slot = 0; slot < in.numSrcs; slot++)
                if (in.srcs[slot].isReg && in.srcs[slot].reg == 63)
                    in.readAnno[slot] = ReadAnnotation{};
        }
        WriteAnnotation &wa = k.instr(1).writeAnno;  // imul.wide R9
        wa.toORF = true;
        wa.orfEntry = 0;
        ReadAnnotation &ra = k.instr(2).readAnno[0];  // setlt .., R10
        ra.level = Level::ORF;
        ra.entry = 0;
    }};

TEST(OneVerdict, WrongBindingFailsAloneAndInABatchOnEveryEngine)
{
    std::ifstream file(std::string(RFH_SOURCE_DIR) +
                       "/tests/corpus/wide_pair/wide_pair_repro.rptx");
    std::ostringstream text;
    text << file.rdbuf();
    ParseResult parsed = parseKernel(text.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    Workload w;
    w.name = parsed.kernel.name;
    w.suite = "service";
    w.kernel = parsed.kernel;
    const std::string verdict =
        "wide_pair_repro " + std::string(kWidePairBinding.invariant);

    activeFault = &kWidePairBinding;
    ExperimentConfig cfg;
    cfg.scheme = SchemeRegistry::instance().findToken("testfault")->scheme;
    cfg.entries = 3;

    // Of the executors, only the value-verifying one sees the wrong
    // binding; replay carries no values and counts on.
    const AnalysisBundle bundle(w.kernel);
    Kernel annotated = w.kernel;
    const SchemeInfo &si = *SchemeRegistry::instance().find(cfg.scheme);
    si.backend->allocate(annotated, cfg, &bundle);
    const AllocOptions ao = cfg.allocOptions();
    SwExecConfig sc;
    sc.run = w.run;
    EXPECT_NE(runSwHierarchy(annotated, ao, sc, &bundle)
                  .error.find(kWidePairBinding.expect),
              std::string::npos);
    EXPECT_EQ(replaySwHierarchy(annotated, ao,
                                recordDecodedTrace(w.kernel, w.run), sc,
                                &bundle)
                  .error,
              "");

    // runScheme checks the allocation before either executes, so one
    // verdict comes back from every engine.
    for (ExecEngine e : {ExecEngine::DIRECT, ExecEngine::REPLAY}) {
        for (bool perf : {false, true}) {
            SCOPED_TRACE(std::string(engineName(e)) +
                         (perf ? "+perf" : ""));
            globalExperimentCache().clear();
            ExperimentConfig c = cfg;
            c.engine = e;
            c.perf = perf;
            EXPECT_EQ(runScheme(w, c).error, verdict);
        }
    }

    // replayBatch: alone, and between two clean batch mates.
    globalExperimentCache().clear();
    std::vector<BatchItem> lone(1);
    lone[0].workload = &w;
    lone[0].cfg = cfg;
    EXPECT_EQ(replayBatch(lone).at(0).error, verdict);
    std::vector<BatchItem> three(3, lone[0]);
    three[0].cfg.scheme = Scheme::SW_THREE_LEVEL;
    three[2].cfg.scheme = Scheme::HW_TWO_LEVEL;
    std::vector<RunOutcome> outs = replayBatch(three);
    EXPECT_TRUE(outs[0].ok()) << outs[0].error;
    EXPECT_EQ(outs[1].error, verdict);
    EXPECT_TRUE(outs[2].ok()) << outs[2].error;

    // The service: a lone request (batchMax 1) and a batched slice
    // (every line queued before start()) give the same error line.
    std::vector<std::string> lines;
    for (const char *token : {"sw3", "testfault", "hw2"}) {
        ServiceRequest req;
        req.idJson = std::to_string(lines.size());
        req.kernelText = text.str();
        req.scheme = *schemeFromToken(token);
        lines.push_back(serviceRequestToJson(req));
    }
    ServiceError err;
    err.code = ServiceErrorCode::EXEC_ERROR;
    err.message = verdict;
    const std::string expected = makeErrorLine("1", err);
    for (int batchMax : {1, 8}) {
        SCOPED_TRACE("batchMax " + std::to_string(batchMax));
        globalExperimentCache().clear();
        ThreadPool pool(1);
        ServiceOptions so;
        so.pool = &pool;
        so.workers = 1;
        so.batchMax = batchMax;
        BatchService svc(so);
        std::vector<std::future<std::string>> futs;
        for (const std::string &line : lines) {
            auto p = std::make_shared<std::promise<std::string>>();
            futs.push_back(p->get_future());
            svc.submit(line,
                       [p](const std::string &r) { p->set_value(r); });
        }
        svc.start();
        EXPECT_NE(futs[0].get().find("\"ok\":true"), std::string::npos);
        EXPECT_EQ(futs[1].get(), expected);
        EXPECT_NE(futs[2].get().find("\"ok\":true"), std::string::npos);
        svc.drain();
    }
    activeFault = nullptr;
    globalExperimentCache().clear();
}

// ---- Perf plumbing through runScheme ----

TEST(Pipeline, PerfRunAllocatesOnceAndReplaysThroughThePipeline)
{
    const Workload &w = workloadByName("scalarprod");
    ExperimentConfig cfg;
    cfg.scheme = SchemeRegistry::instance().findToken("testcount")->scheme;
    cfg.perf = true;
    // (allocate calls, simulate calls) of one perf run on @p engine.
    auto passes = [&](ExecEngine engine) {
        cfg.engine = engine;
        CountingScheme::allocations = 0;
        CountingScheme::simulations = 0;
        RunOutcome out = runScheme(w, cfg);
        EXPECT_TRUE(out.ok()) << out.error;
        EXPECT_TRUE(out.hasPerf);
        return std::pair(CountingScheme::allocations.load(),
                         CountingScheme::simulations.load());
    };
    // REPLAY: the pipeline is the execute pass, over the one
    // annotated kernel.
    EXPECT_EQ(passes(ExecEngine::REPLAY), std::pair(1, 0));
    // DIRECT: the value-verifying pass, then the pipeline on the same
    // annotated kernel.
    EXPECT_EQ(passes(ExecEngine::DIRECT), std::pair(1, 1));
}

TEST(Pipeline, RunSchemeAttachesPerfOnlyWhenAsked)
{
    const Workload &w = workloadByName("scalarprod");
    ExperimentConfig cfg;
    cfg.scheme = Scheme::SW_THREE_LEVEL;
    RunOutcome plain = runScheme(w, cfg);
    ASSERT_TRUE(plain.ok()) << plain.error;
    EXPECT_FALSE(plain.hasPerf);
    // The JSON stays byte-identical to the pre-pipeline format...
    EXPECT_EQ(outcomeToJson(plain).find("\"perf\""),
              std::string::npos);

    cfg.perf = true;
    RunOutcome perf = runScheme(w, cfg);
    ASSERT_TRUE(perf.ok()) << perf.error;
    ASSERT_TRUE(perf.hasPerf);
    EXPECT_GT(perf.perf.cycles, 0u);
    EXPECT_GT(perf.perf.ipc(), 0.0);
    // ...and grows a perf object only on request.
    std::string json = outcomeToJson(perf);
    EXPECT_NE(json.find("\"perf\""), std::string::npos);
    EXPECT_NE(json.find("\"ipc\""), std::string::npos);
    EXPECT_NE(json.find("\"scoreboard\""), std::string::npos);
    // Counts are unaffected by the perf pass.
    EXPECT_EQ(describeCountsDiff(perf.counts, plain.counts), "");
}

} // namespace
} // namespace rfh
