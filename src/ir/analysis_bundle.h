/**
 * @file
 * Immutable per-kernel analysis bundle.
 *
 * The CFG, liveness, and reaching-definition analyses depend only on a
 * kernel's architectural structure (blocks, opcodes, operands), never
 * on the allocator's annotations — so one bundle computed on the
 * pristine kernel is valid for every annotated copy with the same
 * structure and can be shared read-only between the hierarchy
 * allocator, the hardware-cache baseline, and the executors across
 * all sweep configurations. The experiment engine caches bundles per
 * kernel (core/memo.h) so each workload is analysed once per process
 * instead of once per sweep point.
 */

#ifndef RFH_IR_ANALYSIS_BUNDLE_H
#define RFH_IR_ANALYSIS_BUNDLE_H

#include "ir/cfg_analysis.h"
#include "ir/liveness.h"
#include "ir/reaching_defs.h"

namespace rfh {

/** CFG + liveness + reaching defs of one kernel, computed together. */
struct AnalysisBundle
{
    Cfg cfg;
    Liveness liveness;
    ReachingDefs reachingDefs;

    explicit AnalysisBundle(const Kernel &k)
        : cfg(k), liveness(k, cfg), reachingDefs(k, cfg)
    {
    }

    AnalysisBundle(const AnalysisBundle &) = delete;
    AnalysisBundle &operator=(const AnalysisBundle &) = delete;
};

} // namespace rfh

#endif // RFH_IR_ANALYSIS_BUNDLE_H
