/**
 * @file
 * Reaching-definition analysis and def-use chains.
 *
 * Every static write of a register is a definition ("register instance"
 * in the paper's terms, since PTX input is in pseudo-SSA form). A
 * synthetic boundary definition per register models values that are live
 * into the kernel (parameters, thread id, and anything produced by
 * earlier kernels); those are assumed to reside in the MRF.
 *
 * The allocator uses def-use chains to find each value's reads, to group
 * hammock definitions that merge at a common read (Section 4.5), and to
 * distinguish in-strand uses from uses that force the value to be
 * written to the MRF.
 */

#ifndef RFH_IR_REACHING_DEFS_H
#define RFH_IR_REACHING_DEFS_H

#include <vector>

#include "ir/cfg_analysis.h"
#include "ir/kernel.h"

namespace rfh {

/** Identifier of a definition. Values < kMaxRegs are boundary defs. */
using DefId = int;

/** Operand slot of a use; kPredSlot marks a branch predicate read. */
inline constexpr int kPredSlot = -1;

/** One use site of a definition. */
struct UseSite
{
    int lin = -1;   ///< Linear index of the reading instruction.
    int slot = 0;   ///< Source-operand slot, or kPredSlot.

    bool
    operator==(const UseSite &o) const
    {
        return lin == o.lin && slot == o.slot;
    }
};

/** Reaching definitions over a finalized kernel. */
class ReachingDefs
{
  public:
    ReachingDefs(const Kernel &k, const Cfg &cfg);

    /** @return true if @p d is a synthetic kernel-boundary def. */
    static bool
    isBoundary(DefId d)
    {
        return d < kMaxRegs;
    }

    /** @return number of definitions (boundary defs included). */
    int
    numDefs() const
    {
        return static_cast<int>(defLin_.size());
    }

    /** Linear instruction of def @p d (-1 for boundary defs). */
    int
    defInstr(DefId d) const
    {
        return defLin_[d];
    }

    /** Register written by def @p d. */
    Reg
    defReg(DefId d) const
    {
        return defReg_[d];
    }

    /** Defs of @p instr at linear index @p lin (empty if none). */
    const std::vector<DefId> &
    defsAt(int lin) const
    {
        return defsAt_[lin];
    }

    /**
     * Definitions that reach the read of source slot @p slot of the
     * instruction at linear index @p lin. Sorted ascending.
     */
    const std::vector<DefId> &reachingDefs(int lin, int slot) const;

    /** All use sites of definition @p d. */
    const std::vector<UseSite> &
    uses(DefId d) const
    {
        return uses_[d];
    }

  private:
    std::vector<int> defLin_;
    std::vector<Reg> defReg_;
    std::vector<std::vector<DefId>> defsAt_;
    std::vector<std::vector<UseSite>> uses_;
    // Reaching-def sets keyed by use site: useKey_[lin] maps slots.
    std::vector<std::vector<std::vector<DefId>>> useDefs_;
    std::vector<int> slotBase_;

    int slotIndex(int lin, int slot) const;
};

} // namespace rfh

#endif // RFH_IR_REACHING_DEFS_H
