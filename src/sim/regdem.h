/**
 * @file
 * RegDem-style register demotion to shared-memory spill space, after
 * Sakdhnagool et al. (arXiv:1907.02894).
 *
 * RegDem shrinks a kernel's architectural register footprint by
 * *demoting* cold registers out of the MRF into a per-thread slice of
 * shared memory, trading register-file capacity (an occupancy lever)
 * for extra shared-memory traffic. This backend models the traffic
 * and energy consequences on our flat-MRF substrate:
 *
 *  - the compile phase ranks registers by static access frequency and
 *    keeps only a *resident budget* of the hottest ones in the MRF
 *    (budget = kRegDemRegsPerEntry × entries, so the sweep axis
 *    controls how aggressively the kernel is squeezed);
 *  - accesses to resident registers count as normal MRF traffic;
 *  - accesses to demoted registers are tallied in the writeback
 *    counters (wbReads / wbWrites — informational overhead counters
 *    the standard energy model does not price) and charged as
 *    shared-memory accesses by the scheme's energy accounting at
 *    kRegDemSpillFactor × the corresponding MRF access energy.
 *
 * There is no caching state at all: the per-warp accounting is a pure
 * counting walk over the dynamic stream, shared by every engine.
 */

#ifndef RFH_SIM_REGDEM_H
#define RFH_SIM_REGDEM_H

#include <memory>

#include "energy/energy_params.h"
#include "ir/kernel.h"
#include "ir/liveness.h"
#include "sim/access_counters.h"

namespace rfh {

struct ReplayDecode;

/** Resident MRF registers bought per sweep entry. */
inline constexpr int kRegDemRegsPerEntry = 4;

/**
 * Shared-memory access energy relative to an MRF access of the same
 * kind (larger array, bank crossbar traversal).
 */
inline constexpr double kRegDemSpillFactor = 1.5;

/** Register-demotion configuration. */
struct RegDemConfig
{
    /** Sweep axis: resident budget = kRegDemRegsPerEntry × entries. */
    int entries = 3;
};

/**
 * The demotion decision of the compile phase: the set of registers of
 * @p k that do NOT fit in a resident budget of @p residentBudget MRF
 * registers. Registers are ranked by static access count (sources,
 * predicates, and destination halves), hottest first; ties keep the
 * lower-numbered register resident. Deterministic and purely static.
 */
RegSet regdemDemotedSet(const Kernel &k, int residentBudget);

/**
 * Spill traffic energy of @p c under @p params (pJ): the demoted
 * accesses tallied in the writeback counters, priced as shared-memory
 * accesses at kRegDemSpillFactor × MRF access energy.
 */
double regdemSpillEnergyPJ(const AccessCounts &c,
                           const EnergyParams &params);

class PipelineAccounting;

/**
 * Register demotion's per-warp accounting (sim/pipeline_account.h):
 * its one counting model, driven by the trace and functional-machine
 * drivers and by the cycle-level pipeline at issue. Demoted operands
 * bypass the MRF banks (they live in shared-memory spill space).
 *
 * @param dec optional shared pre-decode (ExperimentCache::decode);
 *        built locally when null.
 *
 * @p k, @p dec, and @p counts must outlive the returned object.
 */
std::unique_ptr<PipelineAccounting> makeRegDemAccounting(
    const Kernel &k, const RegDemConfig &cfg, const ReplayDecode *dec,
    AccessCounts &counts);

} // namespace rfh

#endif // RFH_SIM_REGDEM_H
