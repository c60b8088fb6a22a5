/**
 * @file
 * Hardware-managed register file cache baseline (Section 2.2 and the
 * three-level hardware variant of Section 6.2).
 *
 * The RFC is a small per-thread cache with FIFO replacement. All
 * results except long-latency loads/texture fetches are written into
 * it; evictions of live values read the RFC and write the MRF (the
 * overhead traffic the software scheme eliminates). Static liveness
 * from the compiler elides writebacks of dead values. When the
 * two-level scheduler deschedules a warp on a long-latency dependence,
 * all live cached values are flushed to the MRF.
 *
 * The optional hardware LRF level (Section 6.2) catches results whose
 * consumers are exclusively on the private datapath; LRF evictions
 * spill into the RFC.
 */

#ifndef RFH_SIM_HW_CACHE_H
#define RFH_SIM_HW_CACHE_H

#include <memory>

#include "ir/analysis_bundle.h"
#include "ir/kernel.h"
#include "sim/access_counters.h"

namespace rfh {

/** Hardware cache configuration. */
struct HwCacheConfig
{
    /** RFC entries per thread (1..8). */
    int rfcEntries = 6;
    /** Add a 1-entry hardware LRF level (Section 6.2). */
    bool useLRF = false;
    /**
     * Flush the RFC when a backward branch is taken; the Section 7
     * limit study compares this against keeping values resident.
     */
    bool flushOnBackwardBranch = false;
};

struct ReplayDecode;
class PipelineAccounting;

/**
 * The hardware cache's per-warp accounting (sim/pipeline_account.h):
 * its one counting model, driven by the trace and functional-machine
 * drivers and by the cycle-level pipeline at issue. RFC/LRF hits
 * become collector bypass operands.
 *
 * @param analyses optional precomputed analyses of a kernel with
 *        @p k's structure; computed locally when null.
 * @param dec optional shared pre-decode with shared-consumer info
 *        (ExperimentCache::decode); built locally when null or when
 *        it lacks that info.
 *
 * @p k, @p analyses, @p dec, and @p counts must outlive the returned
 * object.
 */
std::unique_ptr<PipelineAccounting> makeHwCacheAccounting(
    const Kernel &k, const HwCacheConfig &cfg,
    const AnalysisBundle *analyses, const ReplayDecode *dec,
    AccessCounts &counts);

} // namespace rfh

#endif // RFH_SIM_HW_CACHE_H
