/**
 * @file
 * Top-level experiment API: configure a register-file organisation,
 * run a workload through it, and obtain access counts and energy.
 *
 * This is the library's primary entry point; the examples and the
 * benchmark harness are thin layers over it.
 */

#ifndef RFH_CORE_EXPERIMENT_H
#define RFH_CORE_EXPERIMENT_H

#include <functional>
#include <string>

#include "compiler/allocation.h"
#include "core/scheme.h"
#include "core/timing.h"
#include "energy/energy_params.h"
#include "sim/access_counters.h"
#include "sim/pipeline.h"
#include "workloads/registry.h"

namespace rfh {

/**
 * @return the registered display name of @p s ("HW", "SW LRF", ...),
 * or "?" for an unregistered handle.
 */
std::string_view schemeName(Scheme s);

/**
 * How the execute phase simulates the hierarchy.
 *
 * REPLAY walks a pre-decoded dynamic stream (recorded once per
 * (kernel, RunConfig) and memoized in the ExperimentCache) doing only
 * hierarchy state updates and access counting: no opcode dispatch, no
 * value computation, no branch evaluation. It is the one production
 * engine: every runScheme, sweep, corpus cell and served request
 * runs on it.
 *
 * DIRECT interprets the kernel instruction by instruction with real
 * 32-bit values, verifying every access bit-exactly. It is the oracle
 * that verify/, `rfhc fuzz`, `rfhc loadgen --verify` and perfbench's
 * serve check pair against REPLAY; both engines produce
 * byte-identical reports.
 *
 * Neither engine decides whether a run is checked: before either
 * executes, runScheme checks every allocation statically
 * (checkAllocationInvariants), so a wrong ORF/LRF binding fails with
 * the same error on both.
 */
enum class ExecEngine
{
    AUTO,    ///< The production engine: resolves to REPLAY.
    DIRECT,  ///< Value-verifying interpretation (the oracle).
    REPLAY,  ///< Pre-decoded stream replay (counting only).
};

/** @return "auto", "direct" or "replay". */
std::string_view engineName(ExecEngine e);

/** @return @p e with AUTO resolved: REPLAY, or @p e itself. */
ExecEngine resolveEngine(ExecEngine e);

/** Full experiment configuration. */
struct ExperimentConfig
{
    Scheme scheme = Scheme::SW_THREE_LEVEL;
    /** RFC or ORF entries per thread (1..8). */
    int entries = 3;
    /**
     * Price ORF accesses as if the ORF had this many entries
     * (0 = entries). Used by the Section 7 idealisations.
     */
    int orfPriceEntries = 0;
    /**
     * Section 7 "never flush" idealisation: ORF/LRF contents survive
     * deschedules and strand boundaries.
     */
    bool idealNoFlush = false;
    /** Split the LRF per operand slot (SW three-level only). */
    bool splitLRF = true;
    /** Let SFU/MEM/TEX results enter the LRF (non-Figure-4 variant). */
    bool lrfAllowSharedProducers = false;
    /** Partial-range allocation (Section 4.3). */
    bool partialRanges = true;
    /** Read-operand allocation (Section 4.4). */
    bool readOperands = true;
    /** Strand-formation rules (Section 4.1 / Section 7 variants). */
    StrandOptions strandOptions;
    /** Hardware variant: flush the RFC at backward branches. */
    bool hwFlushOnBackwardBranch = false;
    /**
     * Execution engine for the simulate phase (see ExecEngine). AUTO
     * resolves to REPLAY everywhere. The choice can change a report
     * only where DIRECT's value check rejects a binding that the
     * static allocation check passed; REPLAY carries no values and
     * would count on. No such allocation is known.
     */
    ExecEngine engine = ExecEngine::AUTO;
    /**
     * Also run the cycle-level SM pipeline (sim/pipeline.h) and attach
     * IPC / stall-breakdown stats to the outcome (RunOutcome::perf).
     * Under REPLAY the pipeline is the execute pass (it accounts at
     * issue exactly what replay counts); under DIRECT it follows the
     * value-verifying pass over the same annotated kernel. Only
     * schemes whose caps say @c pipelined participate; others ignore
     * the flag. Off by default.
     */
    bool perf = false;
    /** Pipeline timing knobs used when @c perf is set. */
    PipelineConfig pipeline;
    /**
     * Cooperative cancellation probe, polled by runScheme between
     * phases (after analyze, after trace, after allocate). When it
     * returns true the run stops early with error "cancelled" and
     * later phases are skipped. Null (the default) disables polling.
     * Memoized sub-results (baseline, analyses, trace) are only ever
     * stored fully computed, so cancellation never poisons the shared
     * caches. Used by the batch service to enforce per-request
     * deadlines (src/service/).
     */
    std::function<bool()> cancel;
    /** Technology constants. */
    EnergyParams energy;

    /** The allocator options implied by this configuration. */
    AllocOptions allocOptions() const;
};

/** Outcome of running one workload under one configuration. */
struct RunOutcome
{
    AccessCounts counts;
    AllocStats alloc;              ///< Software schemes only.
    double energyPJ = 0.0;         ///< Access + wire energy.
    double baselineEnergyPJ = 0.0; ///< Flat-MRF energy, same workload.
    std::string error;             ///< Non-empty on verification failure.
    /**
     * Cycle-level pipeline stats; meaningful only when @c hasPerf.
     * Filled by runScheme when ExperimentConfig::perf is set and the
     * scheme's caps say @c pipelined.
     */
    PipelineStats perf;
    bool hasPerf = false;
    /**
     * Wall-clock spent per engine phase (aggregated across workloads
     * for runAllWorkloads outcomes). Observability only: timing is
     * excluded from the result JSON, which stays byte-identical
     * across thread counts and cache states.
     */
    PhaseTimes phases;

    bool
    ok() const
    {
        return error.empty();
    }

    /** Energy normalised to the flat register file (Figure 13). */
    double
    normalizedEnergy() const
    {
        return baselineEnergyPJ > 0 ? energyPJ / baselineEnergyPJ : 0.0;
    }
};

/**
 * Run @p w under configuration @p cfg.
 *
 * Configuration-independent work is memoized in the process-wide
 * ExperimentCache: the baseline functional execution is computed once
 * per (kernel, RunConfig), and the CFG/liveness/reaching-defs bundle
 * once per kernel, then shared read-only by the allocator and both
 * executors. Thread-safe; results are identical to an uncached run.
 *
 * For allocator-driven schemes the annotated kernel is checked
 * against the paper's allocation invariants before it executes; a
 * violation ends the run with error "<kernel name> <first violation>"
 * and empty counts, whatever the engine.
 */
RunOutcome runScheme(const Workload &w, const ExperimentConfig &cfg);

/** Outcome of runScheme's cycle-level pipeline pass. */
struct SchemePipelineResult
{
    PipelineStats stats;
    /** Accesses accounted at issue; equal to the functional counts. */
    AccessCounts counts;
    std::string error; ///< Non-empty on failure.

    bool
    ok() const
    {
        return error.empty();
    }
};

/**
 * Fold @p one (the outcome of workload @p name) into @p agg in
 * deterministic order: counts and energies are summed, and every
 * failing workload's message is appended to agg.error as
 * "name: message", "; "-joined in fold order.
 */
void accumulateOutcome(RunOutcome &agg, const RunOutcome &one,
                       const std::string &name);

class ThreadPool;

/**
 * Run every workload of every suite and aggregate the counts (summed
 * across workloads before normalisation, matching the paper's
 * all-benchmark averages).
 *
 * Workloads fan out across @p pool (the global pool when null) and
 * are folded back in registry order, so the outcome — including every
 * floating-point accumulation — is identical for any thread count;
 * RFH_THREADS=1 runs the historical sequential path exactly.
 */
RunOutcome runAllWorkloads(const ExperimentConfig &cfg,
                           ThreadPool *pool = nullptr);

/** One request of a batched replay (see replayBatch). */
struct BatchItem
{
    /** Workload to run; must outlive the replayBatch call. */
    const Workload *workload = nullptr;
    ExperimentConfig cfg;
};

/**
 * Run a batch of experiments through the replay engine, amortising
 * the per-kernel setup across the batch: each distinct workload's
 * cache entry is fetched once (one kernel hash), and every distinct
 * (kernel, RunConfig)'s baseline, analyses, decoded trace, and replay
 * pre-decode are materialised once (in parallel) before the items fan
 * out, so no two items race to record the same trace and every item
 * starts with warm caches and a reusable per-thread replay arena.
 *
 * Every item runs exactly as a lone runScheme call of the same
 * configuration would (AUTO is REPLAY on both), so outcomes, errors
 * included, do not depend on batch size or batch mates.
 */
std::vector<RunOutcome> replayBatch(const std::vector<BatchItem> &items,
                                    ThreadPool *pool = nullptr);

} // namespace rfh

#endif // RFH_CORE_EXPERIMENT_H
