/**
 * @file
 * The compile-time register file hierarchy allocator (Section 4).
 *
 * Implements the paper's greedy allocation algorithm (Figure 7) with
 * all its extensions: partial-range allocation (Section 4.3),
 * read-operand allocation (Section 4.4), forward-branch handling
 * (Section 4.5), and the three-level LRF/ORF/MRF hierarchy with an
 * optional split LRF (Section 4.6). The allocator mutates only the
 * annotation fields of the kernel's instructions.
 */

#ifndef RFH_COMPILER_ALLOCATOR_H
#define RFH_COMPILER_ALLOCATOR_H

#include "compiler/allocation.h"
#include "compiler/instances.h"
#include "energy/energy_params.h"
#include "ir/analysis_bundle.h"
#include "ir/kernel.h"

namespace rfh {

/**
 * The allocator's per-kernel compile-time input: the strand partition
 * (Section 4.1) and the value/read instances (Sections 4.3-4.5) of one
 * kernel under one StrandOptions. Both depend only on the kernel's
 * structure and those options, never on the ORF size, the LRF split,
 * the energy prices or the annotations, so one plan serves every
 * allocation of the kernel with the same strand options
 * (ExperimentCache::Inputs::allocationPlan memoizes it). Immutable once
 * built: a run writes its annotations and end-of-strand bits into its
 * own kernel copy, never into the plan.
 */
struct AllocationPlan
{
    /** Analyse @p k (any annotations are ignored) under @p opts. */
    AllocationPlan(const Kernel &k, const Cfg &cfg,
                   const ReachingDefs &rd, const StrandOptions &opts);

    const StrandOptions options;
    const StrandAnalysis strands;
    const InstanceAnalysis instances;
};

/** Compile-time allocator over the LRF/ORF/MRF hierarchy. */
class HierarchyAllocator
{
  public:
    HierarchyAllocator(const EnergyParams &params, const AllocOptions &opts);

    /**
     * Allocate @p k: clear any existing annotations, set the
     * end-of-strand bits of @p plan's strands, and annotate every
     * operand with the level it is read from / written to (the LRF
     * pass, then the ORF pass of Figure 7).
     *
     * @param analyses optional precomputed CFG + reaching-defs bundle
     *        for a kernel with @p k's structure (annotations may
     *        differ); only read when @p plan is null.
     * @param plan optional shared plan of a kernel with @p k's
     *        structure under options().strandOptions (the memoized one
     *        of the pristine kernel is fine); when null the plan is
     *        built locally, from @p analyses or from analyses computed
     *        locally.
     */
    AllocStats run(Kernel &k, const AnalysisBundle *analyses = nullptr,
                   const AllocationPlan *plan = nullptr) const;

    const AllocOptions &
    options() const
    {
        return opts_;
    }

  private:
    EnergyParams params_;
    AllocOptions opts_;
};

} // namespace rfh

#endif // RFH_COMPILER_ALLOCATOR_H
