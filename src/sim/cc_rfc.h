/**
 * @file
 * Compiler-assisted register-file cache, after Shoushtary et al.
 * (arXiv:2310.17501).
 *
 * Structurally this is the paper's two-level hardware RFC (a small
 * per-thread FIFO cache in front of the MRF), but the caching policy
 * is steered by two kinds of compile-time hints instead of being
 * purely reactive:
 *
 *  - an *allocation hint* per definition: the result enters the RFC
 *    only when the compiler sees a nearby upcoming read of it (static
 *    next-use distance within a window); distant or unread results
 *    bypass straight to the MRF and never pollute the cache;
 *  - a *last-read hint* per operand: a read of a value that is dead
 *    afterwards (global liveness) erases its RFC entry, freeing the
 *    slot early and guaranteeing the dead value is never written back.
 *
 * Long-latency results bypass the hierarchy and deschedule handling
 * matches the hardware scheme (all live cached values flush to the
 * MRF when the warp swaps out). One per-warp accounting model serves
 * every engine, so direct, replay, and pipeline counts are identical
 * by construction.
 */

#ifndef RFH_SIM_CC_RFC_H
#define RFH_SIM_CC_RFC_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/analysis_bundle.h"
#include "ir/kernel.h"
#include "sim/access_counters.h"

namespace rfh {

struct ReplayDecode;

/** Compiler-assisted RFC configuration. */
struct CcRfcConfig
{
    /** RFC entries per thread (1..8). */
    int entries = 3;
};

/**
 * Static next-use window of the allocation hint: a definition is
 * cached only when some reachable read of it sits within this many
 * instructions in layout order. Scales with the cache size — a larger
 * RFC can afford to hold values with more distant uses.
 */
int ccRfcHintWindow(int entries);

/**
 * Compute the per-instruction allocation hints of @p k for a cache of
 * @p entries: hint[lin] is non-zero when the result defined at @p lin
 * should be inserted into the RFC. Wide (64-bit) and long-latency
 * results always bypass. Deterministic and purely static, so every
 * engine derives identical hints.
 */
std::vector<std::uint8_t> ccRfcAllocationHints(const Kernel &k,
                                               int entries);

class PipelineAccounting;

/**
 * The compiler-assisted RFC's per-warp accounting
 * (sim/pipeline_account.h): its one counting model, driven by the
 * trace and functional-machine drivers and by the cycle-level pipeline
 * at issue. RFC hits become collector bypass operands.
 *
 * @param analyses optional precomputed analyses (liveness feeds the
 *        last-read hints and writeback elision); computed locally
 *        when null.
 * @param dec optional shared pre-decode (ExperimentCache::decode);
 *        built locally when null.
 *
 * @p k, @p analyses, @p dec, and @p counts must outlive the returned
 * object.
 */
std::unique_ptr<PipelineAccounting> makeCcRfcAccounting(
    const Kernel &k, const CcRfcConfig &cfg,
    const AnalysisBundle *analyses, const ReplayDecode *dec,
    AccessCounts &counts);

} // namespace rfh

#endif // RFH_SIM_CC_RFC_H
