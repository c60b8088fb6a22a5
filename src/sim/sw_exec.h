/**
 * @file
 * Software-managed hierarchy executor.
 *
 * Executes a kernel that has been annotated by the HierarchyAllocator,
 * counting accesses at the levels the compiler selected. The executor
 * doubles as a checker for the allocator: every upper-level read is
 * verified to return the bit-exact architectural value, every
 * annotation is checked against the physical state (entry validity,
 * register identity, level restrictions, strand invalidation), and any
 * violation is reported instead of silently miscounting.
 */

#ifndef RFH_SIM_SW_EXEC_H
#define RFH_SIM_SW_EXEC_H

#include <memory>
#include <string>

#include "compiler/allocation.h"
#include "ir/analysis_bundle.h"
#include "ir/kernel.h"
#include "sim/access_counters.h"
#include "sim/baseline_exec.h"

namespace rfh {

/** Software-executor configuration. */
struct SwExecConfig
{
    RunConfig run;
    /**
     * Section 7 "never flush" idealisation: upper-level contents
     * survive deschedules and strand boundaries; stalls on outstanding
     * long-latency values deschedule instead of being errors.
     */
    bool idealNoFlush = false;
};

/** Result of a software-hierarchy execution. */
struct SwExecResult
{
    AccessCounts counts;
    /** Empty when the run verified clean; else the first violation. */
    std::string error;

    bool
    ok() const
    {
        return error.empty();
    }
};

/**
 * Execute annotated kernel @p k under the software-managed hierarchy.
 *
 * @param k kernel previously processed by HierarchyAllocator.
 * @param opts the allocation options the kernel was compiled with
 *        (defines the physical ORF/LRF sizes).
 * @param analyses optional precomputed analyses of a kernel with
 *        @p k's structure (the pristine, un-annotated kernel is
 *        fine); computed locally when null.
 * @param strands optional strand partition of a kernel with @p k's
 *        structure under opts.strandOptions (the memoized
 *        AllocationPlan's is fine); computed locally when null.
 */
SwExecResult runSwHierarchy(const Kernel &k, const AllocOptions &opts,
                            const SwExecConfig &cfg = {},
                            const AnalysisBundle *analyses = nullptr,
                            const StrandAnalysis *strands = nullptr);

struct DecodedTrace;
struct ReplayDecode;

/**
 * Replay-mode counterpart of runSwHierarchy: walk the pre-decoded
 * dynamic stream @p trace (recorded once from the pristine kernel
 * under @p cfg.run; annotations do not change the dynamic path) doing
 * only access accounting at the annotated levels — no functional
 * execution and no value verification. A clean run takes the fast
 * path (per-instruction deltas scaled by the trace's weighted
 * per-instruction counts, deschedules once per distinct stream); a run
 * that may fail a structural annotation check (level restrictions,
 * entry ranges, a mid-strand long-latency touch) is driven record by
 * record through the scheme's accountant, so it stops at the same
 * instruction with the same message and partial counts.
 * Bit-exactness of values is the direct executor's job, which remains
 * the verification oracle.
 *
 * @param dec optional pre-decode of a kernel with @p k's structure
 *        (ExperimentCache::decode of the pristine kernel is fine);
 *        built locally when null.
 * @param strands as for runSwHierarchy.
 */
SwExecResult replaySwHierarchy(const Kernel &k, const AllocOptions &opts,
                               const DecodedTrace &trace,
                               const SwExecConfig &cfg = {},
                               const AnalysisBundle *analyses = nullptr,
                               const ReplayDecode *dec = nullptr,
                               const StrandAnalysis *strands = nullptr);

class PipelineAccounting;

/**
 * The software hierarchy's per-warp accountant
 * (sim/pipeline_account.h) over the *annotated* kernel @p k: the
 * record-by-record counting model that replaySwHierarchy falls back to
 * and the cycle-level pipeline drives at issue. Annotated ORF/LRF
 * operands bypass the collector banks. Structural annotation
 * violations stop the run with runSwHierarchy's exact error message.
 *
 * @param dec optional pre-decode of a kernel with @p k's structure
 *        (ExperimentCache::decode of the pristine kernel is fine);
 *        built locally when null. Annotations are read from @p k.
 * @param strands as for runSwHierarchy.
 *
 * @p k, @p analyses, @p dec, @p counts and @p strands must outlive
 * the returned object.
 */
std::unique_ptr<PipelineAccounting> makeSwHierarchyAccounting(
    const Kernel &k, const AllocOptions &opts, const SwExecConfig &cfg,
    const AnalysisBundle *analyses, const ReplayDecode *dec,
    AccessCounts &counts, const StrandAnalysis *strands = nullptr);

} // namespace rfh

#endif // RFH_SIM_SW_EXEC_H
