/**
 * @file
 * Register liveness analysis.
 *
 * Standard backward may-analysis over the CFG. Provides per-block
 * live-in/live-out sets and a precomputed live-after set for every
 * instruction, which the hardware cache baseline uses to elide
 * writebacks of dead values (Section 2.2) and the allocator uses to
 * decide whether a value is live out of its strand.
 */

#ifndef RFH_IR_LIVENESS_H
#define RFH_IR_LIVENESS_H

#include <bitset>
#include <vector>

#include "ir/cfg_analysis.h"
#include "ir/kernel.h"

namespace rfh {

/** Set of architectural registers. */
using RegSet = std::bitset<kMaxRegs>;

/** Registers read by @p instr (sources and predicate). */
RegSet usedRegs(const Instruction &instr);

/** Registers written by @p instr (destination; two when wide). */
RegSet definedRegs(const Instruction &instr);

/** Liveness information for one kernel. */
class Liveness
{
  public:
    Liveness(const Kernel &k, const Cfg &cfg);

    /** Registers live on entry to block @p b. */
    const RegSet &
    liveIn(int b) const
    {
        return liveIn_[b];
    }

    /** Registers live on exit from block @p b. */
    const RegSet &
    liveOut(int b) const
    {
        return liveOut_[b];
    }

    /** Registers live immediately after linear instruction @p lin. */
    const RegSet &
    liveAfter(int lin) const
    {
        return liveAfter_[lin];
    }

    /** @return true if @p r is live immediately after @p lin. */
    bool
    liveAfter(int lin, Reg r) const
    {
        return liveAfter_[lin].test(r);
    }

  private:
    std::vector<RegSet> liveIn_;
    std::vector<RegSet> liveOut_;
    std::vector<RegSet> liveAfter_;
};

} // namespace rfh

#endif // RFH_IR_LIVENESS_H
