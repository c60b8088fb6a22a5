/**
 * @file
 * Per-scheme access accounting: one state machine per scheme, driven
 * by every engine.
 *
 * A scheme's WarpAccountant is its single counting model. Three
 * drivers feed it the same per-warp record stream (lin, enabled,
 * branch taken, next lin):
 *
 *  - the trace driver (PipelineAccounting::replay) walks the replay
 *    units of a recorded DecodedTrace, each from a fresh warp, and
 *    adds each unit's counts once per occurrence — the REPLAY engine.
 *    A scheme whose per-warp state all resets at a two-level
 *    deschedule is replayed per distinct deschedule segment; any
 *    other per distinct warp stream;
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
    /**
     * Set by a `final` accountant whose whole per-warp state resets
     * at every two-level deschedule (DecodedTrace::segments' cut
     * points), so a fresh warp fed a segment counts it exactly. Such
     * an accountant provides `void deschedule(int lin)`: the
     * deschedule block its onIssue runs before the record at @p lin,
     * which the trace driver calls to close a segment. It must not
     * read onIssue's @c nextLin: at a stream's end the driver passes
     * the segment's -1 rather than the stream's end lin.
     */
    static constexpr bool kResetsAtDeschedule = false;

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
 * Trace driver: replay each unit of @p trace — its deschedule segments
 * when @p Warp::kResetsAtDeschedule, else its distinct warp streams —
 * from a fresh warp machine @p makeWarp() returns, closing a segment
 * with the warp's deschedule at its closing lin. A unit's counts are a
 * pure function of its records (no accountant reads the warp id, and
 * @p counts is additive), so the driver adds the unit's delta to
 * @p counts once per further occurrence. Called with a `final`
 * accountant type, the per-record onIssue is a direct call.
 */
template <typename Warp, typename MakeWarp>
void
driveTrace(const DecodedTrace &trace, AccessCounts &counts,
           MakeWarp &&makeWarp)
{
    OperandPlan plan;
    auto drive = [&](const ReplayUnit &u) {
        const AccessCounts before = counts;
        std::unique_ptr<Warp> acct = makeWarp();
        for (std::uint32_t t = u.begin; t < u.end; t++) {
            const std::uint8_t flags = trace.flags[t];
            plan.numMrf = plan.numBypass = 0;
            acct->onIssue(trace.lin[t], (flags & kReplayExecuted) != 0,
                          (flags & kReplayBranchTaken) != 0,
                          t + 1 < u.end ? trace.lin[t + 1] : u.closeLin,
                          plan);
        }
        if constexpr (Warp::kResetsAtDeschedule)
            if (u.closeLin >= 0)
                acct->deschedule(u.closeLin);
        AccessCounts delta = counts;
        delta.sub(before);
        counts.add(delta, u.weight - 1);
    };
    if constexpr (Warp::kResetsAtDeschedule)
        for (const ReplayUnit &u : trace.segments)
            drive(u);
    else
        for (int s = 0; s < trace.numStreams(); s++)
            drive(trace.streamUnit(s));
}

/**
 * Functional-machine driver: execute @p k for @p run's warps, feeding
 * each instruction to a fresh warp machine @p makeWarp() returns per
 * warp as it steps — the same records recordDecodedTrace would have
 * captured.
 */
template <typename MakeWarp>
void
driveMachine(const Kernel &k, const RunConfig &run, MakeWarp &&makeWarp)
{
    OperandPlan plan;
    for (int w = 0; w < run.numWarps; w++) {
        auto acct = makeWarp();
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

    /** Create a warp state machine, reset for a fresh run. */
    virtual std::unique_ptr<WarpAccountant> makeWarp() = 0;

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
 * trace driver adds repeated unit deltas to.
 */
template <typename Warp>
class AccountingOf : public PipelineAccounting
{
  public:
    explicit AccountingOf(AccessCounts &counts) : counts_(counts) {}

    std::unique_ptr<WarpAccountant>
    makeWarp() final
    {
        return newWarp();
    }

    void
    replay(const DecodedTrace &trace) final
    {
        driveTrace<Warp>(trace, counts_, [this] { return newWarp(); });
    }

    void
    execute(const Kernel &k, const RunConfig &run) final
    {
        driveMachine(k, run, [this] { return newWarp(); });
    }

  protected:
    /** A warp state machine, reset for a fresh run. */
    virtual std::unique_ptr<Warp> newWarp() = 0;

    /** The run's shared accumulator. */
    AccessCounts &counts_;
};

/**
 * Flat single-level accounting: every register operand is an MRF
 * access: the one counting model of the baseline and GREENER schemes,
 * runBaseline and the memoized baseline. @p dec may be null (a private
 * decode is built); @p k and @p counts must outlive the returned object.
 */
std::unique_ptr<PipelineAccounting> makeFlatAccounting(
    const Kernel &k, const ReplayDecode *dec, AccessCounts &counts);

} // namespace rfh

#endif // RFH_SIM_PIPELINE_ACCOUNT_H
