/**
 * @file
 * Cycle-level SM pipeline (Section 6, Table 2).
 *
 * Four stages over the pre-decoded dynamic stream, stepped by one
 * fixed-order cycle loop:
 *
 *   issue --> operand collector --> execute --> writeback
 *
 * Issue picks one warp instruction per cycle under a pluggable
 * scheduler policy (flat round-robin, the paper's two-level
 * active/pending scheduler, greedy-then-oldest) against an in-order
 * scoreboard. The operand collector arbitrates each instruction's MRF
 * source reads across the banked register file (sim/mrf_banks.h) —
 * same-bank operands serialise — while upper-level (LRF/ORF/RFC)
 * operands bypass the banks entirely, which is how hierarchy schemes
 * shorten operand collection. Execute holds each op for its latency,
 * with a shared-unit issue interval; writeback releases the
 * scoreboard.
 *
 * Each cycle runs the stages consumers first — execute, writeback,
 * collect, issue — so an instruction issued in cycle t reaches the
 * collector in t+1 (one pipeline register between them). Writeback
 * runs directly after execute, so a completion unblocks a dependent
 * issue in the same cycle, like a forwarded result: a dependent chain
 * on a latency-L unit issues every L+1 cycles. A cycle in which no
 * stage makes progress cannot change state until the next scheduled
 * event (a completion, a warp activation, the shared port freeing),
 * so the loop jumps straight there; the skipped cycles are idle by
 * definition, so cycle and stall counts are exactly those of stepping
 * one cycle at a time.
 *
 * Counting is delegated to the scheme's WarpAccountant at issue
 * (sim/pipeline_account.h), so access totals are identical to the
 * functional trace path by construction; the verify oracle enforces
 * that per scheme and warp count. Timing-only quantities (cycles, IPC,
 * swaps, stall breakdown) live in PipelineStats. Fully deterministic:
 * identical inputs produce identical stats, bit for bit.
 */

#ifndef RFH_SIM_PIPELINE_H
#define RFH_SIM_PIPELINE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/mrf_banks.h"
#include "sim/pipeline_account.h"

namespace rfh {

struct DecodedTrace;

/** Warp scheduler policy of the issue stage. */
enum class SchedPolicy
{
    FLAT_RR,    ///< Round-robin over all resident warps.
    TWO_LEVEL,  ///< Active/pending sets with long-latency swaps (paper).
    GTO,        ///< Greedy-then-oldest over all resident warps.
};

/** @return "flat", "two-level", or "gto". */
std::string_view schedPolicyName(SchedPolicy p);

/** Parse a policy token; @return false on an unknown token. */
bool parseSchedPolicy(std::string_view token, SchedPolicy &out);

/** Pipeline parameters (latency defaults from Table 2). */
struct PipelineConfig
{
    /** Scheduler policy of the issue stage. */
    SchedPolicy policy = SchedPolicy::TWO_LEVEL;
    /** Active-set size (TWO_LEVEL; >= numWarps degenerates to flat). */
    int activeWarps = 8;
    int aluLatency = 8;
    int sfuLatency = 20;
    int sharedMemLatency = 20;
    int texLatency = 400;
    int dramLatency = 400;
    /** Cycles to swap a pending warp into the active set. */
    int swapPenalty = 1;
    /** Shared units (SFU/MEM/TEX) accept one op per this many cycles. */
    int sharedIssueInterval = 4;
    /** Operand-collector entries (in-flight operand fetches). */
    int collectorSlots = 4;
    /** MRF banking layout for source-operand arbitration. */
    MrfBankConfig banks;
    /**
     * Safety cap: a run still unfinished at this many cycles stops
     * with an error (PipelineResult::error).
     */
    std::uint64_t maxCycles = 50'000'000;
};

/** Why issue slots went unused, one counter per no-issue cycle. */
struct PipelineStalls
{
    /** Every eligible warp waits on an operand or WAW hazard. */
    std::uint64_t scoreboard = 0;
    /** The operand collector had no free entry (backpressure). */
    std::uint64_t collector = 0;
    /** A ready instruction waited on the shared-unit issue port. */
    std::uint64_t execBusy = 0;
    /** Swap penalty / pending-warp activation delay. */
    std::uint64_t swap = 0;
    /** All warps done issuing; latency pipes draining. */
    std::uint64_t drain = 0;

    /** Sum of all stall counters. */
    std::uint64_t
    total() const
    {
        return scoreboard + collector + execBusy + swap + drain;
    }
};

/** Timing outcome of one pipeline run. */
struct PipelineStats
{
    /** Cycles from the first issue opportunity to the last writeback. */
    std::uint64_t cycles = 0;
    /** Dynamic warp instructions issued. */
    std::uint64_t issued = 0;
    /** Two-level active/pending swaps on long-latency dependences. */
    std::uint64_t swaps = 0;
    /** Operand fetches deferred a cycle by an MRF bank conflict. */
    std::uint64_t bankConflicts = 0;
    /** No-issue cycle breakdown. */
    PipelineStalls stalls;

    /** Accumulate @p o (suite-level aggregation; all fields sum). */
    void
    add(const PipelineStats &o)
    {
        cycles += o.cycles;
        issued += o.issued;
        swaps += o.swaps;
        bankConflicts += o.bankConflicts;
        stalls.scoreboard += o.stalls.scoreboard;
        stalls.collector += o.stalls.collector;
        stalls.execBusy += o.stalls.execBusy;
        stalls.swap += o.stalls.swap;
        stalls.drain += o.stalls.drain;
    }

    /** Instructions per cycle. */
    double
    ipc() const
    {
        return cycles
            ? static_cast<double>(issued) / static_cast<double>(cycles)
            : 0.0;
    }
};

/** Outcome of runPipeline. */
struct PipelineResult
{
    PipelineStats stats;
    /**
     * Why the run stopped early — a deadlock, or the cycle cap
     * (naming the cycles reached and the instructions issued of the
     * total); empty on success. Accounting never fails: an allocator
     * scheme's annotations were checked before the run.
     */
    std::string error;

    bool
    ok() const
    {
        return error.empty();
    }
};

/**
 * Run the pipeline over the pre-decoded stream @p trace of the
 * kernel @p dec was built from, accounting through @p acct.
 *
 * @param trace per-warp dynamic record stream (recordDecodedTrace).
 * @param dec shared static pre-decode of the same kernel (scoreboard
 *        sets, unit classes, latency classification).
 * @param acct scheme accounting factory; its AccessCounts accumulator
 *        receives every warp's counts.
 * @param cfg timing parameters.
 */
PipelineResult runPipeline(const DecodedTrace &trace,
                           const ReplayDecode &dec,
                           PipelineAccounting &acct,
                           const PipelineConfig &cfg = {});

} // namespace rfh

#endif // RFH_SIM_PIPELINE_H
