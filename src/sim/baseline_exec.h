/**
 * @file
 * Baseline single-level execution and register-usage profiling.
 *
 * The baseline counts every register operand as an MRF access (the
 * flat accountant of sim/pipeline_account.h); all normalized results
 * in the paper (Figures 11-15) are relative to it. The usage profiler
 * reproduces the measurements behind Figure 2:
 * how often each dynamic value is read, and the lifetime of values that
 * are read exactly once.
 */

#ifndef RFH_SIM_BASELINE_EXEC_H
#define RFH_SIM_BASELINE_EXEC_H

#include <cstdint>

#include "ir/kernel.h"
#include "sim/access_counters.h"

namespace rfh {

/** Common trace-execution parameters. */
struct RunConfig
{
    /** Number of warps to execute (each with its own seed/paths). */
    int numWarps = 8;
    /** Safety cap on executed instructions per warp. */
    std::uint64_t maxInstrsPerWarp = 1u << 20;
};

/**
 * Execute @p k and count its accesses against a flat MRF: the flat
 * accountant under the functional-machine driver (the memo replays it).
 */
AccessCounts runBaseline(const Kernel &k, const RunConfig &cfg = {});

/** Dynamic register-usage statistics (Figure 2). */
struct UsageStats
{
    /** Values by times read: 0, 1, 2, >2 (Figure 2(a)). */
    std::uint64_t read0 = 0, read1 = 0, read2 = 0, readMore = 0;
    /** Read-once values by lifetime in instructions: 1, 2, 3, >3. */
    std::uint64_t life1 = 0, life2 = 0, life3 = 0, lifeMore = 0;
    std::uint64_t totalValues = 0;
    /**
     * Multi-read values whose reads all land in a burst (max gap
     * between consecutive reads <= 3 instructions). The paper's
     * Section 2.1 observes that values read several times tend to be
     * read in bursts, which is what makes a tiny ORF sufficient.
     */
    std::uint64_t burstyMultiReads = 0;
    /** Values read two or more times. */
    std::uint64_t multiReads = 0;
    /** Values with at least one shared-datapath consumer. */
    std::uint64_t sharedConsumed = 0;
    /** Shared-consumed values produced by the private datapath. */
    std::uint64_t sharedConsumedPrivateProduced = 0;
    std::uint64_t instructions = 0;
    std::uint64_t regReads = 0;
    std::uint64_t regWrites = 0;

    void add(const UsageStats &o);

    double
    fracRead(int times) const
    {
        double t = static_cast<double>(totalValues);
        if (t == 0)
            return 0.0;
        switch (times) {
          case 0: return read0 / t;
          case 1: return read1 / t;
          case 2: return read2 / t;
          default: return readMore / t;
        }
    }
};

/** Profile dynamic register usage of @p k (Figure 2). */
UsageStats collectUsageStats(const Kernel &k, const RunConfig &cfg = {});

} // namespace rfh

#endif // RFH_SIM_BASELINE_EXEC_H
