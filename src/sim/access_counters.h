/**
 * @file
 * Register-file access accounting.
 *
 * All executors (baseline, hardware cache, software hierarchy) produce
 * an AccessCounts: the number of 32-bit operand reads and writes per
 * hierarchy level, split by the datapath (private ALU vs shared
 * SFU/MEM/TEX) that sourced or consumed the operand — the split
 * determines wire energy. Writeback traffic of the hardware schemes is
 * additionally tagged so overhead accesses can be reported separately
 * (Section 6.1).
 */

#ifndef RFH_SIM_ACCESS_COUNTERS_H
#define RFH_SIM_ACCESS_COUNTERS_H

#include <array>
#include <cstdint>

#include "energy/energy_model.h"
#include "ir/instruction.h"

namespace rfh {

/** Access counts for one simulation run. */
struct AccessCounts
{
    /** reads[level][datapath]: 32-bit operand reads. */
    std::array<std::array<std::uint64_t, 2>, 3> reads{};
    /** writes[level][datapath]: 32-bit operand writes. */
    std::array<std::array<std::uint64_t, 2>, 3> writes{};
    /** Upper-level reads performed only to write a value back. */
    std::uint64_t wbReads = 0;
    /** MRF writes performed by writeback / deschedule flush. */
    std::uint64_t wbWrites = 0;
    /** Executed (warp) instructions. */
    std::uint64_t instructions = 0;
    /** Warp deschedule events (two-level scheduler swaps). */
    std::uint64_t deschedules = 0;

    void
    read(Level level, Datapath dp, std::uint64_t n = 1)
    {
        reads[static_cast<int>(level)][static_cast<int>(dp)] += n;
    }

    void
    write(Level level, Datapath dp, std::uint64_t n = 1)
    {
        writes[static_cast<int>(level)][static_cast<int>(dp)] += n;
    }

    std::uint64_t
    totalReads(Level level) const
    {
        const auto &r = reads[static_cast<int>(level)];
        return r[0] + r[1];
    }

    std::uint64_t
    totalWrites(Level level) const
    {
        const auto &w = writes[static_cast<int>(level)];
        return w[0] + w[1];
    }

    std::uint64_t
    allReads() const
    {
        return totalReads(Level::MRF) + totalReads(Level::ORF) +
            totalReads(Level::LRF);
    }

    std::uint64_t
    allWrites() const
    {
        return totalWrites(Level::MRF) + totalWrites(Level::ORF) +
            totalWrites(Level::LRF);
    }

    /** Add @p o, @p times over (exact: every field is a u64). */
    void
    add(const AccessCounts &o, std::uint64_t times = 1)
    {
        for (int l = 0; l < 3; l++) {
            for (int d = 0; d < 2; d++) {
                reads[l][d] += o.reads[l][d] * times;
                writes[l][d] += o.writes[l][d] * times;
            }
        }
        wbReads += o.wbReads * times;
        wbWrites += o.wbWrites * times;
        instructions += o.instructions * times;
        deschedules += o.deschedules * times;
    }

    /** Undo add(@p o): every field must be at least @p o's. */
    void
    sub(const AccessCounts &o)
    {
        for (int l = 0; l < 3; l++) {
            for (int d = 0; d < 2; d++) {
                reads[l][d] -= o.reads[l][d];
                writes[l][d] -= o.writes[l][d];
            }
        }
        wbReads -= o.wbReads;
        wbWrites -= o.wbWrites;
        instructions -= o.instructions;
        deschedules -= o.deschedules;
    }

    /** Total access+wire energy under @p em (pJ). */
    double totalEnergyPJ(const EnergyModel &em) const;

    /** Storage-array energy at @p level (pJ). */
    double accessEnergyPJ(const EnergyModel &em, Level level) const;

    /** Wire energy at @p level (pJ). */
    double wireEnergyPJ(const EnergyModel &em, Level level) const;
};

} // namespace rfh

#endif // RFH_SIM_ACCESS_COUNTERS_H
