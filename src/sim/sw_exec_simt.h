/**
 * @file
 * SIMT-divergent verifying executor for the software hierarchy.
 *
 * The scalar executor (sw_exec.h) checks annotations along one thread's
 * path; this executor runs full SIMT warps (active masks, serialised
 * hammock sides, reconvergence, per-lane predication) and keeps a
 * separate ORF/LRF state per lane — exactly the paper's physical
 * organisation, where every entry is per-thread.
 *
 * Per-lane validity follows each lane's own dynamic path: a lane's
 * upper levels invalidate when that lane's consecutive active
 * instructions cross strands (or loop backwards), and a warp-level
 * deschedule (outstanding long-latency touch) invalidates every lane.
 * Under StrandOptions::idealNoFlush nothing invalidates: the touch
 * deschedules, as in the scalar executor. Any allocation that is only
 * correct for converged warps fails here
 * with a lane-precise diagnostic.
 */

#ifndef RFH_SIM_SW_EXEC_SIMT_H
#define RFH_SIM_SW_EXEC_SIMT_H

#include "compiler/allocation.h"
#include "ir/kernel.h"
#include "sim/access_counters.h"
#include "sim/sw_exec.h"

namespace rfh {

/** SIMT-executor configuration. */
struct SimtExecConfig
{
    int numWarps = 2;
    int width = 8;  ///< Lanes per warp (1..32).
    std::uint64_t maxInstrsPerWarp = 1u << 20;
};

/**
 * Execute annotated kernel @p k as SIMT warps with per-lane hierarchy
 * state, verifying every access bit-exactly.
 */
SwExecResult runSwHierarchySimt(const Kernel &k, const AllocOptions &opts,
                                const SimtExecConfig &cfg = {});

} // namespace rfh

#endif // RFH_SIM_SW_EXEC_SIMT_H
