/**
 * @file
 * Memoization cache for the experiment engine.
 *
 * A design-space sweep evaluates schemes x ORF sizes x workloads, but
 * five expensive inputs of every grid point do not depend on the
 * scheme or its configuration:
 *
 *  - the CFG / liveness / reaching-defs analyses and the replay
 *    pre-decode depend only on the kernel's architectural structure
 *    (see ir/analysis_bundle.h and sim/trace.h);
 *  - the allocation plan (strands and value/read instances, see
 *    compiler/allocator.h) depends only on that structure and the
 *    StrandOptions, not on the ORF size, the LRF split or the energy
 *    prices; and
 *  - the recorded dynamic stream, and the flat-MRF baseline counts
 *    replayed from it, depend only on the kernel and its RunConfig.
 *
 * ExperimentCache keeps one entry per kernel, keyed by a structural
 * fingerprint of the kernel (not its address) plus its instruction
 * count, so distinct kernels that happen to reuse storage can never
 * alias, and annotated copies of a cached kernel hit the same entry.
 * The entry holds the analyses and the decode, per StrandOptions the
 * allocation plan, and per RunConfig the trace and the baseline; each
 * is computed exactly once per process and then served to every later
 * request, including concurrent ones from the parallel sweep. A run
 * hashes its kernel once: it fetches the entry through inputs() and
 * reads every input from the returned handle. Cached results are
 * bitwise identical to a fresh computation, so memoization never
 * changes any report. The cache lives only in process memory: nothing
 * outside the process can supply an input.
 */

#ifndef RFH_CORE_MEMO_H
#define RFH_CORE_MEMO_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "ir/analysis_bundle.h"
#include "sim/baseline_exec.h"
#include "sim/trace.h"

namespace rfh {

struct AllocationPlan;
struct StrandOptions;

/**
 * Structural fingerprint of a kernel: name, block layout, opcodes and
 * operands, mixed one 64-bit word at a time. Allocator annotations
 * are deliberately excluded so a kernel and its annotated copies
 * fingerprint identically.
 */
std::uint64_t kernelFingerprint(const Kernel &k);

/** Process-wide memoization of every configuration-independent input. */
class ExperimentCache
{
    struct KernelEntry;
    struct RunEntry;

  public:
    /**
     * One kernel's cache entry, as fetched by inputs(): each accessor
     * returns its input, computing it on first request (concurrent
     * first requests block until the single computation finishes).
     * Holding the handle keeps the entry alive across clear(). The
     * handle computes from the kernel it was fetched with; every
     * kernel of the same fingerprint computes the same inputs.
     * Thread-safe.
     */
    class Inputs
    {
      public:
        /** Flat-MRF counts replayed over trace(); needs a RunConfig. */
        const AccessCounts &baseline() const;

        /** Shared immutable CFG/liveness/reaching-defs analyses. */
        std::shared_ptr<const AnalysisBundle> analyses() const;

        /** Recorded dynamic stream; needs a RunConfig handle. */
        std::shared_ptr<const DecodedTrace> trace() const;

        /**
         * Replay pre-decode, built with shared-consumer info from the
         * cached reaching definitions. It is purely structural, so
         * annotated copies of the kernel share it (see ReplayDecode).
         */
        std::shared_ptr<const ReplayDecode> decode() const;

        /**
         * Strands and value/read instances under @p opts, built from
         * the cached analyses; one slot per distinct StrandOptions.
         * Purely structural, so annotated copies of the kernel share
         * it (see AllocationPlan).
         */
        std::shared_ptr<const AllocationPlan>
        allocationPlan(const StrandOptions &opts) const;

        /**
         * Identity of the (kernel, RunConfig) entry: two handles with
         * the same key read the same cached inputs.
         */
        const void *
        key() const
        {
            return run_ ? static_cast<const void *>(run_)
                        : static_cast<const void *>(entry_.get());
        }

      private:
        friend class ExperimentCache;

        ExperimentCache *cache_ = nullptr;
        std::shared_ptr<KernelEntry> entry_;
        RunEntry *run_ = nullptr; ///< Owned by *entry_; null: none.
        const Kernel *kernel_ = nullptr;
    };

    /**
     * Fetch @p k's entry: one fingerprint, one lock. With @p run the
     * handle also reads the baseline and trace of that RunConfig;
     * without, only the run-independent analyses and decode. No input
     * is computed or counted until the handle's accessors ask for it.
     */
    Inputs inputs(const Kernel &k, const RunConfig *run = nullptr);

    /**
     * Flat-MRF baseline counts of @p k under @p run. The returned
     * reference stays valid until clear().
     */
    const AccessCounts &
    baseline(const Kernel &k, const RunConfig &run)
    {
        return inputs(k, &run).baseline();
    }

    /** Shared immutable analyses of @p k. */
    std::shared_ptr<const AnalysisBundle>
    analyses(const Kernel &k)
    {
        return inputs(k).analyses();
    }

    /**
     * Pre-decoded dynamic stream of @p k under @p run, recorded by a
     * single functional execution and then shared read-only by every
     * replay-mode grid cell and the baseline. Annotated copies of a
     * cached kernel hit the same entry, since annotations never change
     * the dynamic path.
     */
    std::shared_ptr<const DecodedTrace>
    trace(const Kernel &k, const RunConfig &run)
    {
        return inputs(k, &run).trace();
    }

    /** Shared replay pre-decode of @p k (see Inputs::decode). */
    std::shared_ptr<const ReplayDecode>
    decode(const Kernel &k)
    {
        return inputs(k).decode();
    }

    /**
     * Drop every entry. Handles still held keep their entries alive,
     * but references returned by baseline(k, run) dangle, so callers
     * quiesce those lookups first.
     */
    void clear();

    /**
     * Total cached inputs (each analyses, decode, allocation plan,
     * baseline and trace counts one). Long-lived callers (the batch
     * service) poll this to bound memory: when it exceeds their budget
     * they quiesce lookups and clear(). Thread-safe.
     */
    std::size_t entryCount() const;

    /** Hit/miss counters (monotonic; for benchmarks and tests). */
    struct Stats
    {
        std::uint64_t baselineHits = 0;
        std::uint64_t baselineMisses = 0;
        std::uint64_t analysisHits = 0;
        std::uint64_t analysisMisses = 0;
        std::uint64_t traceHits = 0;
        std::uint64_t traceMisses = 0;
        std::uint64_t decodeHits = 0;
        std::uint64_t decodeMisses = 0;
        std::uint64_t planHits = 0;
        std::uint64_t planMisses = 0;
    };

    Stats stats() const;

  private:
    /** The five kinds of input, indexing the counters. */
    enum Kind { BASELINE, ANALYSIS, TRACE, DECODE, PLAN, NUM_KINDS };

    /** One input, filled once. */
    template <class T>
    struct Slot
    {
        std::once_flag once;
        T value;
    };

    template <class T, class Compute>
    const T &fill(Slot<T> &slot, Kind kind, const KernelEntry &e,
                  Compute compute);

    /** Fingerprint + instruction count. */
    using KernelKey = std::pair<std::uint64_t, int>;

    /**
     * Guards entries_, filled_, and each entry's runs, plans and
     * dropped.
     */
    mutable std::mutex mu_;
    std::map<KernelKey, std::shared_ptr<KernelEntry>> entries_;
    /** Inputs filled into the entries of entries_. */
    std::size_t filled_ = 0;
    std::atomic<std::uint64_t> hits_[NUM_KINDS] = {};
    std::atomic<std::uint64_t> misses_[NUM_KINDS] = {};
};

/** The cache shared by runScheme, the sweeps, and the limit study. */
ExperimentCache &globalExperimentCache();

} // namespace rfh

#endif // RFH_CORE_MEMO_H
