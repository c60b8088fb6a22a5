/**
 * @file
 * Tests for the cycle-level staged SM pipeline (sim/pipeline.h): port
 * conservation, tick determinism, scheduler-policy properties, bank
 * conflicts, collector backpressure, the stall-accounting identity,
 * and the Table 2 / Section 6 scheduler claims (PerfSim.*). The golden IPC bands live in test_golden.cpp; the
 * pipeline-vs-functional count equality is oracle-enforced in
 * test_verify.cpp and the fuzz campaign.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/experiment.h"
#include "core/json.h"
#include "ir/parser.h"
#include "sim/pipeline.h"
#include "sim/port.h"
#include "sim/tick.h"
#include "sim/trace.h"
#include "verify/oracle.h"
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

// ---- Port: the ready/valid conservation law ----

TEST(Port, BoundedPortRefusesWhenFull)
{
    Port<int> p(2);
    EXPECT_TRUE(p.push(1));
    EXPECT_TRUE(p.push(2));
    EXPECT_FALSE(p.canPush());
    // A refused push consumes nothing: the element is not lost, the
    // producer stalls.
    EXPECT_FALSE(p.push(3));
    EXPECT_EQ(p.pushed(), 2u);
    EXPECT_EQ(p.front(), 1);
    p.pop();
    EXPECT_TRUE(p.push(3));
    EXPECT_EQ(p.size(), 2u);
}

TEST(Port, FifoOrderSurvivesGrowth)
{
    Port<int> p;  // unbounded: the ring doubles under load
    for (int i = 0; i < 100; i++)
        ASSERT_TRUE(p.push(i));
    for (int i = 0; i < 100; i++) {
        ASSERT_FALSE(p.empty());
        EXPECT_EQ(p.front(), i);
        p.pop();
    }
    EXPECT_TRUE(p.empty());
}

TEST(Port, ConservationHoldsUnderRandomTraffic)
{
    // pushed() == popped() + size() at every step, for any
    // interleaving: nothing dropped, nothing duplicated.
    std::mt19937 rng(7);
    Port<std::uint64_t> p(3);
    std::uint64_t nextIn = 0, nextOut = 0;
    for (int step = 0; step < 10000; step++) {
        if (rng() % 2 == 0) {
            if (p.push(nextIn))
                nextIn++;
        } else if (!p.empty()) {
            // FIFO: values come out in the exact order they went in.
            ASSERT_EQ(p.front(), nextOut);
            p.pop();
            nextOut++;
        }
        ASSERT_EQ(p.pushed(), p.popped() + p.size());
        ASSERT_LE(p.size(), 3u);
    }
    EXPECT_EQ(p.pushed(), nextIn);
    EXPECT_EQ(p.popped(), nextOut);
}

// ---- TickSchedule ----

TEST(Tick, ScheduleTicksInRegistrationOrderAndOrsProgress)
{
    struct Probe final : Ticked
    {
        std::vector<int> *order;
        int id;
        bool busy;
        Probe(std::vector<int> *o, int i, bool b)
            : order(o), id(i), busy(b)
        {
        }
        bool
        tick(std::uint64_t) override
        {
            order->push_back(id);
            return busy;
        }
    };
    std::vector<int> order;
    Probe a(&order, 0, false), b(&order, 1, true), c(&order, 2, false);
    TickSchedule sched;
    sched.add(&a);
    sched.add(&b);
    sched.add(&c);
    EXPECT_TRUE(sched.tick(0));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    b.busy = false;
    order.clear();
    EXPECT_FALSE(sched.tick(1));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
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
        SchemePipelineResult pr = runSchemePipeline(w, cfg);
        ASSERT_TRUE(pr.ok()) << si->token << ": " << pr.error;
        EXPECT_EQ(describeCountsDiff(pr.counts, functional.counts), "")
            << si->token;
        EXPECT_EQ(pr.stats.issued, functional.counts.instructions)
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
    SchemePipelineResult flat = runSchemePipeline(w, base);
    ASSERT_TRUE(flat.ok()) << flat.error;
    ExperimentConfig sw;
    sw.scheme = Scheme::SW_THREE_LEVEL;
    SchemePipelineResult three = runSchemePipeline(w, sw);
    ASSERT_TRUE(three.ok()) << three.error;
    EXPECT_LE(three.stats.bankConflicts, flat.stats.bankConflicts);
}

TEST(Pipeline, RunSchemePipelineRejectsNonPipelinedSchemes)
{
    // The testecho contributed scheme (registered in the scheme-test
    // binary only) is not visible here; fabricate an unregistered id
    // instead and check the error paths stay errors, not crashes.
    const Workload &w = workloadByName("scalarprod");
    ExperimentConfig cfg;
    cfg.scheme = Scheme(250);
    SchemePipelineResult pr = runSchemePipeline(w, cfg);
    EXPECT_FALSE(pr.ok());
    EXPECT_NE(pr.error.find("unregistered"), std::string::npos);
}

// ---- Perf plumbing through runScheme ----

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
