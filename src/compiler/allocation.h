/**
 * @file
 * Shared allocation machinery: options, statistics, occupancy
 * timelines, and the energy-savings functions of Figures 6 and 9.
 */

#ifndef RFH_COMPILER_ALLOCATION_H
#define RFH_COMPILER_ALLOCATION_H

#include <vector>

#include "compiler/instances.h"
#include "compiler/strand.h"
#include "energy/energy_model.h"

namespace rfh {

/** Configuration of the software hierarchy allocator. */
struct AllocOptions
{
    /** ORF entries per thread (1..8). */
    int orfEntries = 3;
    /**
     * Price ORF accesses as if the ORF had this many entries (0 = use
     * orfEntries). Section 7's idealised experiments allocate a larger
     * ORF while charging the energy of a smaller one.
     */
    int orfPriceEntries = 0;
    /** Allocate a last result file (three-level hierarchy). */
    bool useLRF = false;
    /** Split the LRF into one bank per operand slot (Section 3.2). */
    bool splitLRF = false;
    /**
     * Let shared-datapath (SFU/MEM/TEX) results enter the LRF. The
     * paper's Figure 4 writes the LRF from the ALU result bus only, so
     * this defaults to false; enabling it models a wider LRF write
     * path (shared-side wire energy applies to those writes).
     */
    bool lrfAllowSharedProducers = false;
    /** Enable partial-range allocation (Section 4.3). */
    bool partialRanges = true;
    /** Enable read-operand allocation (Section 4.4). */
    bool readOperands = true;
    /**
     * Strand-formation rules, and the Section 7 "never flush" model
     * (StrandOptions::idealNoFlush) that the allocation check and
     * every executor read.
     */
    StrandOptions strandOptions;
    /**
     * Variable allocation (Section 7): per-strand ORF entry budgets.
     * Empty = every strand may use all orfEntries. When set, strand s
     * may only allocate entries [0, perStrandEntries[s]); extra
     * strands (if the vector is short) fall back to orfEntries.
     */
    std::vector<int> perStrandEntries;
};

/** Outcome statistics of one allocation run. */
struct AllocStats
{
    int strands = 0;
    int valueInstances = 0;
    int readInstances = 0;
    int lrfValues = 0;        ///< Values allocated to the LRF.
    int orfValuesFull = 0;    ///< Values fully allocated to the ORF.
    int orfValuesPartial = 0; ///< Values allocated a partial range.
    int orfReadsFull = 0;     ///< Read operands fully allocated.
    int orfReadsPartial = 0;  ///< Read operands partially allocated.
    int mrfWritesElided = 0;  ///< Defs that skip the MRF entirely.
    double predictedSavingsPJ = 0.0;
    /** Predicted savings per strand (Section 7 oracle study). */
    std::vector<double> strandSavings;

    void
    add(const AllocStats &o)
    {
        strands += o.strands;
        valueInstances += o.valueInstances;
        readInstances += o.readInstances;
        lrfValues += o.lrfValues;
        orfValuesFull += o.orfValuesFull;
        orfValuesPartial += o.orfValuesPartial;
        orfReadsFull += o.orfReadsFull;
        orfReadsPartial += o.orfReadsPartial;
        mrfWritesElided += o.mrfWritesElided;
        predictedSavingsPJ += o.predictedSavingsPJ;
        strandSavings.insert(strandSavings.end(), o.strandSavings.begin(),
                             o.strandSavings.end());
    }
};

/**
 * Occupancy timeline of a small register file level: tracks, per
 * physical entry, the half-open linear-instruction intervals
 * [begin, end) during which the entry holds a live value.
 */
class EntryTimeline
{
  public:
    explicit EntryTimeline(int num_entries);

    int
    numEntries() const
    {
        return static_cast<int>(busy_.size());
    }

    /** @return true if entry @p e is free over [begin, end). */
    bool available(int e, int begin, int end) const;

    /** Mark entry @p e busy over [begin, end). */
    void allocate(int e, int begin, int end);

    /**
     * @return the first free entry over [begin, end) among the first
     * @p limit entries (-1 = all entries), or -1 if none.
     */
    int findFree(int begin, int end, int limit = -1) const;

    /**
     * @return the first entry e such that both e and e+1 are free over
     * [begin, end) within the first @p limit entries, or -1.
     */
    int findFreePair(int begin, int end, int limit = -1) const;

  private:
    struct Interval { int begin; int end; };
    std::vector<std::vector<Interval>> busy_;
};

/**
 * Energy saved by allocating value instance @p vi to the ORF for its
 * first @p num_uses reads (Figure 6, extended with per-datapath wire
 * energy, hammock groups, and wide values). Fewer than all uses models
 * a partial range (Section 4.3), which forces an MRF write.
 *
 * @return savings in pJ; positive means profitable.
 */
double orfValueSavings(const ValueInstance &vi, const EnergyModel &em,
                       int num_uses);

/**
 * Energy saved by allocating read instance @p ri to the ORF for its
 * first @p num_uses reads (Figure 9). The first read always comes from
 * the MRF and deposits the value into the ORF.
 */
double orfReadSavings(const ReadInstance &ri, const EnergyModel &em,
                      int num_uses);

/** Energy saved by allocating value instance @p vi to the LRF. */
double lrfValueSavings(const ValueInstance &vi, const EnergyModel &em);

/**
 * @return true if @p vi may live in the LRF: produced and consumed
 * exclusively by private ALUs, 32 bits wide, and (for a split LRF)
 * consumed through a single operand slot.
 */
bool lrfEligible(const ValueInstance &vi, const Kernel &k, bool split_lrf,
                 bool allow_shared_producers = false);

/** Occupancy interval of a value instance, half-open. */
inline std::pair<int, int>
valueInterval(const ValueInstance &vi, int num_uses)
{
    int begin = vi.firstDefLin();
    int end = begin + 1;
    // Every member def of a hammock group writes the entry, so the
    // reservation must cover each def through its write phase — not
    // just the served uses. A use at lin L only needs [.., L): reads
    // happen before writes, so a new value may take the entry at L.
    for (int d : vi.defLins)
        end = std::max(end, d + 1);
    int n = 0;
    for (const auto &u : vi.uses) {
        if (n++ >= num_uses)
            break;
        end = std::max(end, u.lin);
    }
    return {begin, std::max(end, begin + 1)};
}

/** Occupancy interval of a read instance, half-open. */
inline std::pair<int, int>
readInterval(const ReadInstance &ri, int num_uses)
{
    int begin = ri.firstUseLin();
    int end = begin;
    int n = 0;
    for (const auto &u : ri.uses) {
        if (n++ >= num_uses)
            break;
        end = std::max(end, u.lin);
    }
    return {begin, std::max(end, begin + 1)};
}

} // namespace rfh

#endif // RFH_COMPILER_ALLOCATION_H
