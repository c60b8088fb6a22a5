/**
 * @file
 * Per-scheme access accounting: one state machine per scheme, driven
 * by every engine.
 *
 * A scheme's WarpAccountant is its single counting model. Three
 * drivers feed it the same per-warp record stream (lin, enabled,
 * branch taken, next lin):
 *
 *  - the trace driver (PipelineAccounting::replay) walks a recorded
 *    DecodedTrace warp by warp, accounting each distinct warp stream
 *    once and adding its memoized counts for the warps that repeat
 *    it — the REPLAY engine;
 *  - the functional-machine driver (PipelineAccounting::execute)
 *    interprets the kernel warp by warp and accounts each instruction
 *    as it steps — the DIRECT engine of schemes without a
 *    value-verifying executor;
 *  - the cycle-level pipeline (sim/pipeline.h) calls onIssue at issue,
 *    interleaving warps as its scheduler decides.
 *
 * Every count is a pure function of the per-warp record stream (which
 * no scheduler reorders within a warp) and the shared AccessCounts
 * accumulator is additive, so all three produce identical totals — the
 * invariant the verify oracle enforces per scheme and warp count.
 * Accountants only count; none can fail. An allocator scheme's
 * annotations are checked once, statically, before any driver runs
 * (checkAllocationInvariants in runScheme).
 *
 * A PipelineAccounting is the per-run factory that owns everything the
 * warps share (decode tables, hints, liveness).
 * Backends expose one through SchemeBackend::makePipelineAccounting;
 * the default SchemeBackend::simulate drives it through the two
 * functional drivers.
 */

#ifndef RFH_SIM_PIPELINE_ACCOUNT_H
#define RFH_SIM_PIPELINE_ACCOUNT_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/kernel.h"
#include "sim/access_counters.h"
#include "sim/machine.h"
#include "sim/trace.h"

namespace rfh {

/**
 * Where one instruction's register operands are physically fetched
 * from: MRF operands go through the banked operand collector (and can
 * conflict); bypass operands are served by the scheme's upper levels
 * (LRF/ORF/RFC), which read in a single cycle with no distribution
 * network. Filled by WarpAccountant::onIssue; consumed only by the
 * timing model — the plan never feeds the access counters.
 */
struct OperandPlan
{
    /** Registers fetched from the MRF (sources + predicate). */
    std::array<Reg, kMaxSrcs + 1> mrfReg{};
    /** Number of valid entries in mrfReg. */
    std::uint8_t numMrf = 0;
    /** Operands served by an upper level (LRF/ORF/RFC). */
    std::uint8_t numBypass = 0;
};

/**
 * Per-warp hierarchy state machine: accounts one dynamic instruction
 * per onIssue() call, in the warp's trace order, including deschedule
 * counting. It is the scheme's only counting model: every driver feeds
 * it the same per-warp records, so the counts cannot depend on which
 * engine ran or how a scheduler interleaved the warps. What it adds to
 * the shared counts must depend only on the records it is fed, never
 * on the warp id: the trace driver accounts a stream that several
 * warps follow once and repeats its counts for the others.
 */
class WarpAccountant
{
  public:
    virtual ~WarpAccountant() = default;

    /**
     * Account the dynamic instruction at linear index @p lin.
     *
     * @param lin static linear instruction index.
     * @param enabled the record's kReplayExecuted flag (writeback
     *        enabled at issue).
     * @param taken the record's kReplayBranchTaken flag.
     * @param nextLin linear index of the warp's next instruction along
     *        the recorded path, or -1 when the warp terminates — the
     *        strand-boundary lookahead of the software scheme.
     * @param plan out-parameter, passed in empty: the operand
     *        sourcing plan for the collector stage.
     */
    virtual void onIssue(int lin, bool enabled, bool taken,
                         std::int32_t nextLin, OperandPlan &plan) = 0;
};

/**
 * Trace driver: walk the warps of @p trace in order, feeding each
 * distinct stream's records to the warp machine @p makeWarp(w) returns
 * for its first warp only. A warp's counts are a pure function of its
 * stream (no accountant reads the warp id, and @p counts is additive),
 * so the driver memoizes the first warp's delta to @p counts and adds
 * it for every later warp on the same stream. Called with a pointer to
 * a `final` accountant type, the per-record onIssue is a direct call.
 */
template <typename MakeWarp>
void
driveTrace(const DecodedTrace &trace, AccessCounts &counts,
           MakeWarp &&makeWarp)
{
    OperandPlan plan;
    // Streams are numbered in order of first appearance: a warp starts
    // a new stream exactly when its index equals the streams driven.
    std::vector<AccessCounts> delta;
    delta.reserve(static_cast<std::size_t>(trace.numStreams()));
    for (int w = 0; w < trace.numWarps(); w++) {
        const std::uint32_t s = trace.warpStream[w];
        if (s < delta.size()) {
            counts.add(delta[s]);
            continue;
        }
        const AccessCounts before = counts;
        auto acct = makeWarp(w);
        const std::uint32_t end = trace.streamBegin[s + 1];
        for (std::uint32_t t = trace.streamBegin[s]; t < end; t++) {
            const std::uint8_t flags = trace.flags[t];
            plan.numMrf = plan.numBypass = 0;
            acct->onIssue(trace.lin[t], (flags & kReplayExecuted) != 0,
                          (flags & kReplayBranchTaken) != 0,
                          t + 1 < end ? trace.lin[t + 1]
                                      : trace.streamEndLin[s],
                          plan);
        }
        delta.push_back(counts);
        delta.back().sub(before);
    }
}

/**
 * Functional-machine driver: execute @p k for @p run's warps, feeding
 * each instruction to the warp machine @p makeWarp(w) returns as it
 * steps — the same records recordDecodedTrace would have captured.
 */
template <typename MakeWarp>
void
driveMachine(const Kernel &k, const RunConfig &run, MakeWarp &&makeWarp)
{
    OperandPlan plan;
    for (int w = 0; w < run.numWarps; w++) {
        auto acct = makeWarp(w);
        WarpContext warp;
        warp.reset(static_cast<std::uint32_t>(w));
        std::uint64_t executed = 0;
        while (!warp.done && executed < run.maxInstrsPerWarp) {
            const int lin = warp.pc(k);
            const Instruction &in = k.instr(lin);
            const bool enabled = !in.pred || warp.regs[*in.pred] != 0;
            const StepInfo si = step(k, warp);
            executed++;
            plan.numMrf = plan.numBypass = 0;
            acct->onIssue(lin, enabled, si.branchTaken,
                          warp.done ? -1 : warp.pc(k), plan);
        }
    }
}

/**
 * Per-run accounting factory: owns the state shared by every warp of
 * one run and creates the per-warp machines. The AccessCounts
 * accumulator passed at construction is shared by all warps (the
 * counters are additive, so totals are interleaving-invariant).
 */
class PipelineAccounting
{
  public:
    virtual ~PipelineAccounting() = default;

    /** Create the state machine of warp @p warp, reset for a fresh run. */
    virtual std::unique_ptr<WarpAccountant> makeWarp(int warp) = 0;

    /** REPLAY engine: driveTrace over @p trace. */
    virtual void replay(const DecodedTrace &trace) = 0;

    /** DIRECT engine: driveMachine over @p k for @p run. */
    virtual void execute(const Kernel &k, const RunConfig &run) = 0;
};

/**
 * The one implementation of PipelineAccounting, over a concrete
 * `final` accountant type @p Warp: the scheme implements newWarp() and
 * gets makeWarp() plus both functional drivers, instantiated on
 * @p Warp so no record pays a virtual call. It holds the run's shared
 * AccessCounts, which the scheme's warp machines count into and the
 * trace driver adds memoized stream deltas to.
 */
template <typename Warp>
class AccountingOf : public PipelineAccounting
{
  public:
    explicit AccountingOf(AccessCounts &counts) : counts_(counts) {}

    std::unique_ptr<WarpAccountant>
    makeWarp(int warp) final
    {
        return newWarp(warp);
    }

    void
    replay(const DecodedTrace &trace) final
    {
        driveTrace(trace, counts_, [this](int w) { return newWarp(w); });
    }

    void
    execute(const Kernel &k, const RunConfig &run) final
    {
        driveMachine(k, run, [this](int w) { return newWarp(w); });
    }

  protected:
    /** The state machine of warp @p warp, reset for a fresh run. */
    virtual std::unique_ptr<Warp> newWarp(int warp) = 0;

    /** The run's shared accumulator. */
    AccessCounts &counts_;
};

/**
 * Flat single-level accounting: every register operand is an MRF
 * access (the baseline and GREENER schemes — identical counts to
 * runBaseline). @p dec may be null (a private decode is built);
 * @p k and @p counts must outlive the returned object.
 */
std::unique_ptr<PipelineAccounting> makeFlatAccounting(
    const Kernel &k, const ReplayDecode *dec, AccessCounts &counts);

} // namespace rfh

#endif // RFH_SIM_PIPELINE_ACCOUNT_H
