/**
 * @file
 * Wall-clock phase accounting for the experiment engine.
 *
 * Every runScheme call is split into four phases — analyze (CFG /
 * liveness / reaching-defs bundle plus the baseline replayed from the
 * trace), trace (recording the pre-decoded dynamic stream, replay
 * engine only), allocate (the compile-time allocator), and execute
 * (the managed-hierarchy or hardware-cache simulation) — and the
 * engine aggregates these per sweep point. Timing never feeds back
 * into results: the result JSON is byte-identical across thread
 * counts, and timings are serialised separately (sweepTimingsToJson).
 *
 * PhaseTimes is the deterministic per-outcome aggregate carried inside
 * RunOutcome; the process-wide aggregation layer is the metrics
 * registry (core/metrics.h), which the engine feeds from the same
 * Stopwatch laps and which run manifests (core/manifest.h) snapshot.
 */

#ifndef RFH_CORE_TIMING_H
#define RFH_CORE_TIMING_H

#include <chrono>
#include <cstdint>

namespace rfh {

/** Wall-clock seconds spent per engine phase. */
struct PhaseTimes
{
    /** Analyses + baseline (a trace replay; the record too if untraced). */
    double analyzeSec = 0.0;
    double traceSec = 0.0;     ///< Decoded-stream recording (replay).
    double allocateSec = 0.0;  ///< HierarchyAllocator::run.
    double executeSec = 0.0;   ///< SW/HW hierarchy simulation.
    /** Dynamic instructions simulated in the execute phase. */
    std::uint64_t dynInstrs = 0;

    void
    add(const PhaseTimes &o)
    {
        analyzeSec += o.analyzeSec;
        traceSec += o.traceSec;
        allocateSec += o.allocateSec;
        executeSec += o.executeSec;
        dynInstrs += o.dynInstrs;
    }

    /** Sum of all phases (CPU-side work, summed across threads). */
    double
    totalSec() const
    {
        return analyzeSec + traceSec + allocateSec + executeSec;
    }

    /** Dynamic instructions per execute-phase second (0 if untimed). */
    double
    instrPerSec() const
    {
        return executeSec > 0 ? static_cast<double>(dynInstrs) / executeSec
                              : 0.0;
    }
};

/** Monotonic stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start_(clock::now()) {}

    /** Seconds since construction or the last restart(). */
    double
    elapsedSec() const
    {
        return std::chrono::duration<double>(clock::now() - start_)
            .count();
    }

    /** Restart and @return the elapsed seconds up to now. */
    double
    lap()
    {
        auto now = clock::now();
        double s = std::chrono::duration<double>(now - start_).count();
        start_ = now;
        return s;
    }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

} // namespace rfh

#endif // RFH_CORE_TIMING_H
