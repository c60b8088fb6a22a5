/**
 * @file
 * Strand formation (Section 4.1).
 *
 * A strand is a sequence of instructions in which every dependence on a
 * long-latency instruction comes from an operation issued in a previous
 * strand. Strand endpoints are placed:
 *
 *  - before the first instruction that consumes (or overwrites) a value
 *    produced by a long-latency operation issued in the current strand
 *    (the warp will be descheduled there by the two-level scheduler);
 *  - after every backward branch;
 *  - at the start of every basic block targeted by a backward branch;
 *  - at the start of merge blocks where the set of pending long-latency
 *    operations differs between incoming paths (Figure 5(b)).
 *
 * The Section 7 "never flush" model (StrandOptions::idealNoFlush)
 * drops the long-latency and backward-branch endpoints, keeps the
 * merge rule, and makes no transfer a crossing.
 *
 * Values may never be communicated through the ORF or LRF across a
 * strand endpoint. Strands are contiguous ranges of the kernel's layout
 * order; all control flow inside a strand is forward.
 *
 * markEndOfStrand() sets the ISA-visible end-of-strand bit on the last
 * instruction of every strand. Dynamically, a warp synchronises
 * whenever control passes from one strand into another — for layout
 * fallthrough that is exactly the marked instruction; a branch that
 * jumps between strands synchronises as part of the transfer. At a
 * synchronisation point the ORF and LRF become invalid for the warp,
 * and the two-level scheduler deschedules it if any long-latency
 * operation is outstanding. StrandAnalysis::crosses() is that rule,
 * the one every executor and the allocation check apply.
 */

#ifndef RFH_COMPILER_STRAND_H
#define RFH_COMPILER_STRAND_H

#include <compare>
#include <optional>
#include <vector>

#include "ir/cfg_analysis.h"
#include "ir/kernel.h"

namespace rfh {

/** Why a strand ended (statistics / debugging). */
enum class StrandEndReason : std::uint8_t {
    LONG_LATENCY,      ///< Dependence on an in-strand long-latency op.
    BACKWARD_BRANCH,   ///< The strand ends with a backward branch.
    BACKWARD_TARGET,   ///< Next block is a backward-branch target.
    MERGE_UNCERTAIN,   ///< Pending long-latency state differs at a merge.
    KERNEL_END,        ///< Kernel exit.
};

/** One strand: a contiguous range of linear instruction indices. */
struct Strand
{
    int firstLin = 0;
    int lastLin = 0;  ///< Inclusive.
    StrandEndReason endReason = StrandEndReason::KERNEL_END;

    int
    size() const
    {
        return lastLin - firstLin + 1;
    }
};

/** Strand-formation options. */
struct StrandOptions
{
    /**
     * Insert an endpoint at merge blocks whose incoming paths disagree
     * about which long-latency operations are pending (the paper's
     * Figure 5(b) rule). Always safe to disable: the consuming
     * instruction still forces an endpoint.
     */
    bool cutAtUncertainMerge = true;

    /**
     * Section 7 "never flush" idealisation: upper-level contents
     * survive deschedules and strand boundaries, so strands are not
     * cut before the consumer of an in-strand long-latency result nor
     * at backward branches, a touch of an outstanding long-latency
     * value deschedules the warp instead of being a structural error,
     * and long-latency results may be allocated to the upper levels.
     * The allocator, the allocation check and every executor read
     * this one field.
     */
    bool idealNoFlush = false;

    /** Ordered, so options can key a memo table. */
    auto operator<=>(const StrandOptions &) const = default;
};

/** Computes the strand partition of a kernel. */
class StrandAnalysis
{
  public:
    StrandAnalysis(const Kernel &k, const Cfg &cfg,
                   const StrandOptions &opts = {});

    /** Set the end-of-strand bit on each strand's last instruction. */
    void markEndOfStrand(Kernel &k) const;

    int
    numStrands() const
    {
        return static_cast<int>(strands_.size());
    }

    const Strand &
    strand(int s) const
    {
        return strands_[s];
    }

    /** Strand containing linear instruction @p lin. */
    int
    strandOf(int lin) const
    {
        return strandOf_[lin];
    }

    /** All strands. */
    const std::vector<Strand> &
    strands() const
    {
        return strands_;
    }

    /**
     * Does control passing from @p lin to @p next synchronise the
     * warp, flushing the ORF and LRF? It does when it enters another
     * strand or re-enters the current one through a backward edge;
     * never under the ideal model.
     */
    bool
    crosses(int lin, int next) const
    {
        return !idealNoFlush_ &&
            (strandOf_[next] != strandOf_[lin] || next <= lin);
    }

  private:
    std::vector<Strand> strands_;
    std::vector<int> strandOf_;
    bool idealNoFlush_ = false;
};

/**
 * The strand partition of @p k under @p opts: @p shared when given
 * (one of a kernel with @p k's structure under @p opts), else one
 * built into @p local from @p cfg, or from a CFG built here when
 * @p cfg is null. A partition depends only on the kernel's structure
 * and the options, so a shared one is equivalent to a local one.
 */
const StrandAnalysis &strandsOf(const Kernel &k, const StrandOptions &opts,
                                const Cfg *cfg, const StrandAnalysis *shared,
                                std::optional<StrandAnalysis> &local);

} // namespace rfh

#endif // RFH_COMPILER_STRAND_H
