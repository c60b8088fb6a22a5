/**
 * @file
 * Differential oracle and allocator-invariant checker.
 *
 * The oracle enumerates the SchemeRegistry and runs one kernel
 * through every scheme x engine pair that must agree, diffing the
 * full result JSON (access counters, energy, allocation statistics):
 *
 *  - direct vs replay for every registered scheme (hardware-managed
 *    schemes are skipped when OracleOptions::checkHwSchemes is off);
 *  - the cycle-level pipeline's counts vs the direct counts for every
 *    pipelined scheme;
 *  - each scheme's own conservation laws against the flat-MRF
 *    baseline counts of the same run (SchemeBackend::checkConservation);
 *  - for allocator-driven schemes additionally: the paper's static
 *    allocation invariants (checkAllocationInvariants), the scalar
 *    verifying executor vs the SIMT executor at width 1 (lane l of
 *    warp w seeds as scalar thread w*width+l, so the warp path and
 *    the warp-level access counts must match exactly), plus a
 *    per-lane verifying SIMT run at the full warp width whose
 *    failures are findings but which forms no pair.
 *
 * Registering a new backend therefore grows the differential sweep
 * automatically; the expected pair count is a pure function of the
 * registry's capability flags (asserted in tests/test_schemes.cpp).
 * Any violation is a finding; a clean tree reports zero findings for
 * any fuzz seed, which scripts/check.sh enforces.
 */

#ifndef RFH_VERIFY_ORACLE_H
#define RFH_VERIFY_ORACLE_H

#include <string>
#include <vector>

#include "ir/analysis_bundle.h"
#include "ir/kernel.h"
#include "compiler/allocation.h"
#include "sim/baseline_exec.h"

namespace rfh {

/** What kind of problem a finding reports. */
enum class FindingKind
{
    EXEC_ERROR,   ///< An executor rejected the run outright.
    DISCREPANCY,  ///< Two must-match runs disagreed.
    INVARIANT,    ///< An allocation invariant was violated.
};

/** @return "exec-error", "discrepancy", or "invariant". */
std::string_view findingKindName(FindingKind kind);

/** One oracle finding. */
struct OracleFinding
{
    FindingKind kind = FindingKind::DISCREPANCY;
    /** Which check fired, e.g. "sw3/direct-vs-replay". */
    std::string check;
    /** Human-readable description of the disagreement. */
    std::string detail;
};

/**
 * Deliberate fault injection for testing the oracle itself: a
 * perturbation applied to one leg of one differential pair so tests
 * (and the shrinker test) can assert that a discrepancy is caught.
 * NONE in production.
 */
enum class OraclePerturb
{
    NONE,
    /** Add one spurious MRF read to the sw-three-level replay leg. */
    EXTRA_MRF_READ,
    /** Drop one ORF write count from the sw-three-level replay leg. */
    DROP_ORF_WRITE,
};

/** Oracle configuration. */
struct OracleOptions
{
    /** Execution parameters shared by every leg. */
    RunConfig run;
    /** ORF/RFC entries per thread. */
    int entries = 3;
    /** Include the hardware-cache schemes in the differential sweep. */
    bool checkHwSchemes = true;
    /** Include the SIMT checks (width-1 vs scalar, full-width run). */
    bool checkSimt = true;
    /** Lanes per warp for the full-width SIMT run. */
    int simtWidth = 8;
    /** Test-only fault injection; NONE in production. */
    OraclePerturb perturb = OraclePerturb::NONE;
};

/** Outcome of one oracle run over one kernel. */
struct OracleReport
{
    std::vector<OracleFinding> findings;
    /** Differential pairs compared. */
    int pairsChecked = 0;
    /** Static invariant sites examined (annotation reads/writes). */
    int invariantSites = 0;
    /**
     * The run hit the per-warp instruction cap. Truncated executions
     * carry no verdict (engines cut the stream at different points),
     * so no pairs were compared and findings is empty.
     */
    bool truncated = false;

    bool
    ok() const
    {
        return findings.empty();
    }

    /** One-line result, or a newline-joined finding list. */
    std::string summary() const;
};

/**
 * Run every differential pair and invariant check over @p k, which
 * must satisfy Kernel::validate() == "" and terminate under
 * @p opts.run. Deterministic: identical inputs produce identical
 * reports.
 */
OracleReport runOracle(const Kernel &k, const OracleOptions &opts = {});

/**
 * Statically verify the allocation annotations of @p k (previously
 * processed by HierarchyAllocator with @p opts) against the paper's
 * invariants, walking each strand in layout order:
 *
 *  - ORF entries and LRF banks stay within the configured capacity,
 *    and no entry holds two live values at once;
 *  - every upper-level read hits an entry that a preceding in-strand
 *    write (or read-operand deposit) bound to that register;
 *  - every value written to the ORF/LRF is consumed within its strand
 *    (before the entry is rebound and before the strand ends);
 *  - LRF traffic stays on the private-ALU datapath, and wide values
 *    never enter the LRF;
 *  - a definition may skip the MRF only when its value cannot be live
 *    out of its strand (checked against the global liveness);
 *  - the end-of-strand bit marks exactly the last instruction of each
 *    strand;
 *  - unless opts.strandOptions.idealNoFlush, no long-latency result
 *    is annotated to an upper level, and no instruction touches a
 *    long-latency destination that may be outstanding inside its
 *    strand (pending sets joined over every CFG edge that does not
 *    cross, in one layout pass: every back edge crosses).
 *
 * runScheme runs this check after every allocation, before either
 * engine executes, so production runs fail on a violation too. It is
 * the one structural verdict: replay and the pipeline only count an
 * allocation that passed it. runScheme passes the strands of the
 * memoized AllocationPlan the allocation was made from, so the check
 * builds no strand partition of its own.
 *
 * @param strands optional strand partition of a kernel with @p k's
 *        structure under opts.strandOptions (the allocation plan's);
 *        computed locally when null.
 * @param sites_checked optional out-parameter: number of annotation
 *        sites examined.
 * @return one message per violation; empty when the allocation is
 *         invariant-clean.
 */
std::vector<std::string> checkAllocationInvariants(
    const Kernel &k, const AllocOptions &opts,
    const AnalysisBundle &analyses,
    const StrandAnalysis *strands = nullptr,
    int *sites_checked = nullptr);

/**
 * Describe the first difference between two access-count sets, e.g.
 * "reads[ORF][shared]: 120 vs 121"; empty when identical.
 */
std::string describeCountsDiff(const AccessCounts &a,
                               const AccessCounts &b);

} // namespace rfh

#endif // RFH_VERIFY_ORACLE_H
