/**
 * @file
 * Control-flow-graph analyses over a kernel: cached predecessor and
 * successor lists, reverse post order, reachability, and backward-branch
 * identification (which delimits strands, Section 4.1).
 */

#ifndef RFH_IR_CFG_ANALYSIS_H
#define RFH_IR_CFG_ANALYSIS_H

#include <vector>

#include "ir/kernel.h"

namespace rfh {

/** Cached CFG structure for a finalized kernel. */
class Cfg
{
  public:
    explicit Cfg(const Kernel &k);

    int
    numBlocks() const
    {
        return static_cast<int>(succs_.size());
    }

    const std::vector<int> &
    succs(int b) const
    {
        return succs_[b];
    }

    const std::vector<int> &
    preds(int b) const
    {
        return preds_[b];
    }

    /** @return true if block @p b is reachable from the entry block. */
    bool
    reachable(int b) const
    {
        return reachable_[b];
    }

    /**
     * @return true if block @p b ends with a branch whose target does
     * not come after it in layout order (a backward branch).
     */
    bool
    endsWithBackwardBranch(int b) const
    {
        return backwardSource_[b];
    }

    /** @return true if block @p b is the target of a backward branch. */
    bool
    isBackwardTarget(int b) const
    {
        return backwardTarget_[b];
    }

    /** Blocks in reverse post order from the entry. */
    const std::vector<int> &
    reversePostOrder() const
    {
        return rpo_;
    }

    /**
     * Immediate post-dominator of block @p b, or -1 when @p b
     * post-dominates every path to the kernel's exits (its only
     * "post-dominator" is the virtual exit). Branch reconvergence
     * points for SIMT divergence are the immediate post-dominators of
     * the branching blocks (Section 2's active-mask execution model).
     */
    int
    immediatePostDominator(int b) const
    {
        return ipdom_[b];
    }

  private:
    std::vector<std::vector<int>> succs_;
    std::vector<std::vector<int>> preds_;
    std::vector<bool> reachable_;
    std::vector<bool> backwardSource_;
    std::vector<bool> backwardTarget_;
    std::vector<int> rpo_;
    std::vector<int> ipdom_;

    void computePostDominators(const Kernel &k);
};

} // namespace rfh

#endif // RFH_IR_CFG_ANALYSIS_H
