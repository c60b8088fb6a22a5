/**
 * @file
 * Software-managed hierarchy executors.
 *
 * Execute a kernel that has been annotated by the HierarchyAllocator,
 * counting accesses at the levels the compiler selected. The direct
 * executor doubles as the value oracle for the allocator: every
 * upper-level read is verified to return the bit-exact architectural
 * value, every annotation is checked against the physical state
 * (entry validity, register identity, level restrictions, strand
 * invalidation), and any violation is reported instead of silently
 * miscounting. Replay and the pipeline accountant only count: they
 * require an allocation that passed checkAllocationInvariants, which
 * owns every structural verdict.
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
 * @param k kernel previously processed by HierarchyAllocator; any
 *        annotations, checked or not.
 * @param opts the allocation options the kernel was compiled with
 *        (the physical ORF/LRF sizes and strandOptions.idealNoFlush).
 * @param run the warps to execute and the per-warp instruction cap.
 * @param analyses optional precomputed analyses of a kernel with
 *        @p k's structure (the pristine, un-annotated kernel is
 *        fine); computed locally when null.
 * @param strands optional strand partition of a kernel with @p k's
 *        structure under opts.strandOptions (the memoized
 *        AllocationPlan's is fine); computed locally when null.
 */
SwExecResult runSwHierarchy(const Kernel &k, const AllocOptions &opts,
                            const RunConfig &run = {},
                            const AnalysisBundle *analyses = nullptr,
                            const StrandAnalysis *strands = nullptr);

struct DecodedTrace;
struct ReplayDecode;

/**
 * Replay-mode counterpart of runSwHierarchy: count the pre-decoded
 * dynamic stream @p trace (recorded once from the pristine kernel;
 * annotations do not change the dynamic path) at the annotated levels
 * — no functional execution and no checks. Per-instruction deltas are
 * scaled by the trace's weighted per-instruction counts, and
 * deschedules are counted once per distinct stream.
 *
 * @p k must carry an allocation that passed checkAllocationInvariants
 * under @p opts (runScheme checks every allocation before it
 * executes). Structural and value checks are the direct executor's
 * job, which remains the verification oracle.
 *
 * @param dec optional pre-decode of a kernel with @p k's structure
 *        (ExperimentCache::decode of the pristine kernel is fine);
 *        built locally when null.
 * @param strands as for runSwHierarchy.
 */
AccessCounts replaySwHierarchy(const Kernel &k, const AllocOptions &opts,
                               const DecodedTrace &trace,
                               const AnalysisBundle *analyses = nullptr,
                               const ReplayDecode *dec = nullptr,
                               const StrandAnalysis *strands = nullptr);

class PipelineAccounting;

/**
 * The software hierarchy's per-warp accountant
 * (sim/pipeline_account.h) over the *annotated* kernel @p k: the
 * record-by-record counting model the cycle-level pipeline drives at
 * issue. Annotated ORF/LRF operands bypass the collector banks. Like
 * replaySwHierarchy it only counts, and requires an allocation that
 * passed checkAllocationInvariants.
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
    const Kernel &k, const AllocOptions &opts,
    const AnalysisBundle *analyses, const ReplayDecode *dec,
    AccessCounts &counts, const StrandAnalysis *strands = nullptr);

} // namespace rfh

#endif // RFH_SIM_SW_EXEC_H
