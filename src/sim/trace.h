/**
 * @file
 * Control-flow trace recording and replay (the paper's methodology,
 * Section 5.1: full-application runs produce per-path execution
 * frequencies, and a custom trace-based simulator reconstructs likely
 * warp interleavings from them).
 *
 * The one trace representation is DecodedTrace: the flat, pre-decoded
 * dynamic instruction stream that drives the replay executors and the
 * cycle-level pipeline. It is recorded once per (kernel, RunConfig) —
 * the functional machine runs exactly once — and then replayed by
 * every (scheme x entries) grid cell and the baseline counts, doing
 * only hierarchy state updates and access counting: no opcode
 * dispatch, no value computation, no branch evaluation.
 *
 * The dynamic stream is a structure-of-arrays: one int32 linear
 * instruction index and one flags byte per dynamic instruction.
 * Everything value-dependent that the access counters need is folded
 * into the flags (executed-vs-predicated-off, branch taken);
 * everything static (register indices, immediates, wide halves, unit
 * class) is resolved once into a ReplayDecode table indexed by the
 * linear instruction id.
 *
 * Identical per-warp streams are interned at record time: warps that
 * follow the same path (same lin, flags and end lin) share one stored
 * stream, and the trace keeps each distinct stream once with the
 * number of warps that follow it (its multiplicity) and a warp ->
 * stream map. This is the paper's per-path execution frequency: an
 * accountant's counts for a warp are a pure function of its stream,
 * so the replay drivers account each distinct stream once and scale
 * by its multiplicity. Per-static-instruction record and executed
 * counts, weighted by multiplicity, are kept for the counting passes
 * that need no order at all.
 *
 * The distinct streams are further cut into deschedule segments: a
 * two-level scheduler deschedules a warp at the first record that
 * touches a register an executed long-latency record defined since
 * the last deschedule, and a scheme that empties all its per-warp
 * state there counts each segment from a fresh warp. Identical
 * segments (same lin, flags and closing lin), within and across
 * streams, are interned into ReplayUnits weighted by their
 * occurrences over all warps. The segmentation is structural: it
 * depends only on the kernel and the trace, never on the scheme.
 */

#ifndef RFH_SIM_TRACE_H
#define RFH_SIM_TRACE_H

#include <cstdint>
#include <vector>

#include "ir/kernel.h"
#include "ir/liveness.h"
#include "sim/baseline_exec.h"

namespace rfh {

class ReachingDefs;

// ---- Pre-decoded replay stream ----

/** Per-dynamic-instruction replay flags. */
enum ReplayFlags : std::uint8_t
{
    /**
     * The instruction's writeback was enabled (predicate absent or
     * non-zero at issue).
     */
    kReplayExecuted = 1u << 0,
    /** A conditional/unconditional branch was taken. */
    kReplayBranchTaken = 1u << 1,
};

/**
 * One unit of trace replay: the records [begin, end) of the flat
 * arrays, the linear index that follows them, and how often the unit
 * occurs over all warps.
 */
struct ReplayUnit
{
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    /**
     * For a stream, its end lin (DecodedTrace::streamEndLin). For a
     * segment, the lin of the record whose deschedule closes it, or
     * -1 when the stream ends.
     */
    std::int32_t closeLin = -1;
    /** Occurrences over all warps (>= 1). */
    std::uint64_t weight = 0;

    bool operator==(const ReplayUnit &) const = default;
};

/**
 * The pre-decoded dynamic instruction stream of one kernel launch:
 * every distinct per-warp stream stored once, laid out as a flat
 * structure-of-arrays, plus the warp -> stream map.
 *
 * Replaying the stream reproduces, bit-exactly, every quantity the
 * access counters depend on — which instruction issued, whether its
 * writeback was enabled, and which way branches went — without
 * re-executing the functional machine.
 */
struct DecodedTrace
{
    /**
     * Static linear instruction index, one per record of the distinct
     * streams.
     */
    std::vector<std::int32_t> lin;
    /** ReplayFlags, parallel to @c lin. */
    std::vector<std::uint8_t> flags;
    /**
     * Per-stream extents into the flat arrays: stream s's records are
     * [streamBegin[s], streamBegin[s+1]). Size numStreams() + 1.
     */
    std::vector<std::uint32_t> streamBegin;
    /**
     * Per stream: the linear index of the instruction that would have
     * issued next had the run not hit the per-warp instruction cap,
     * or -1 when the warp terminated. Lets replay reproduce the
     * strand-boundary check of the final recorded instruction. Part
     * of the interning key: streams that differ only here are
     * distinct.
     */
    std::vector<std::int32_t> streamEndLin;
    /** Per stream: how many warps follow it (>= 1). */
    std::vector<std::uint32_t> multiplicity;
    /**
     * Per warp: the index of its stream. Streams are numbered in
     * order of first appearance, so the first warp of stream s is the
     * first w with warpStream[w] == s, and warpStream[w] <= w.
     */
    std::vector<std::uint32_t> warpStream;
    /**
     * Per static instruction: records naming it over all warps (each
     * stream's records weighted by its multiplicity).
     */
    std::vector<std::uint64_t> linRecords;
    /** Per static instruction: those records with kReplayExecuted. */
    std::vector<std::uint64_t> linExecuted;

    /**
     * Bit (t % 64) of word (t / 64) is set for record t of the
     * distinct streams when it executed AND names a long-latency
     * instruction with a destination — exactly the records that can
     * set the outstanding (pending) register set during replay.
     * Structural: annotations never affect it, so it is valid for any
     * annotated copy of the recorded kernel. Unused bits of the final
     * word are zero.
     */
    std::vector<std::uint64_t> llWords;

    /**
     * The distinct deschedule segments, in order of first appearance.
     * Each distinct stream is cut before every record that touches
     * the pending set — the destinations of the llWords records since
     * the stream's start or its last cut — and the pending set is
     * then emptied. A segment's range is that of its first
     * occurrence; its weight sums its occurrences times the
     * multiplicity of the stream they lie in, so the weights times
     * the lengths add up to instructions().
     */
    std::vector<ReplayUnit> segments;

    int
    numWarps() const
    {
        return static_cast<int>(warpStream.size());
    }

    int
    numStreams() const
    {
        return static_cast<int>(multiplicity.size());
    }

    /** Total dynamic instructions across all warps. */
    std::uint64_t
    instructions() const
    {
        std::uint64_t n = 0;
        for (int s = 0; s < numStreams(); s++)
            n += std::uint64_t{streamBegin[s + 1] - streamBegin[s]} *
                multiplicity[s];
        return n;
    }

    /** Stream @p s as a replay unit weighted by its multiplicity. */
    ReplayUnit
    streamUnit(int s) const
    {
        return {streamBegin[s], streamBegin[s + 1], streamEndLin[s],
                multiplicity[s]};
    }

    /**
     * Linear index of the instruction following record @p t of stream
     * @p s along the recorded path, or -1 when the warp terminated.
     */
    std::int32_t
    nextLin(int s, std::uint32_t t) const
    {
        return t + 1 < streamBegin[s + 1] ? lin[t + 1] : streamEndLin[s];
    }
};

/**
 * Execute @p k functionally — once — and record the pre-decoded
 * per-warp dynamic stream, interning identical warp streams. The warp
 * loop, instruction cap, and predicate semantics mirror the direct
 * executors exactly, so a replay visits precisely the dynamic
 * instructions a direct run executes.
 */
DecodedTrace recordDecodedTrace(const Kernel &k, const RunConfig &cfg = {});

/** Packed classification bits of one ReplayOp. */
enum ReplayOpFlags : std::uint8_t
{
    kOpLongLat = 1u << 0,   ///< isLongLatency(op).
    kOpShared = 1u << 1,    ///< isSharedUnit(unit()).
    kOpBackward = 1u << 2,  ///< BRA with target block <= own block.
    /**
     * Hardware-LRF eligible result: private non-wide ALU value with no
     * shared-datapath consumer. Only meaningful when the decode was
     * built with reaching definitions (hasSharedConsumerInfo()).
     */
    kOpLrfAble = 1u << 3,
};

/**
 * Compact structure-of-arrays record of one static instruction: the
 * 12 bytes the replay inner loops actually touch, instead of the
 * 72-byte Instruction. One cache line holds five of them.
 */
struct ReplayOp
{
    std::array<Reg, kMaxSrcs> src{};  ///< Register sources, packed.
    std::uint8_t nsrc = 0;            ///< Count of register sources.
    std::int16_t pred = -1;           ///< Predicate register or -1.
    std::int16_t dst = -1;            ///< Destination register or -1.
    std::uint8_t halves = 1;          ///< Registers written (1 or 2).
    std::uint8_t dp = 0;              ///< Datapath index.
    std::uint8_t flags = 0;           ///< ReplayOpFlags.
    Opcode opcode = Opcode::EXIT;     ///< Operation (issue latency).

    bool operator==(const ReplayOp &) const = default;
};

/**
 * Flat static pre-decode of a kernel for replay, indexed by linear
 * instruction id: compact ReplayOp records for the hot loops, plus
 * the derived sets the loops would otherwise recompute per dynamic
 * instruction.
 *
 * The decode holds only structural facts, which the allocator's
 * annotations never change: a decode built from a pristine kernel
 * equals one built from any annotated copy. Cached decodes
 * (ExperimentCache::decode) are therefore shared across annotated
 * copies; an accountant that needs annotations reads them from its
 * own annotated kernel.
 */
struct ReplayDecode
{
    /** Compact per-instruction records for the replay inner loops. */
    std::vector<ReplayOp> op;
    /** usedRegs | definedRegs per instruction. */
    std::vector<RegSet> touched;
    /** usedRegs per instruction. */
    std::vector<RegSet> used;
    /** definedRegs per instruction. */
    std::vector<RegSet> defined;

    /**
     * @param rdefs when given, kOpLrfAble is resolved from the
     *        shared-consumer analysis (hardware-cache LRF bypass,
     *        Section 6.2); when null the flag is left unset and
     *        hasSharedConsumerInfo() is false.
     */
    explicit ReplayDecode(const Kernel &k,
                          const ReachingDefs *rdefs = nullptr);

    bool
    hasSharedConsumerInfo() const
    {
        return hasSharedConsumerInfo_;
    }

  private:
    bool hasSharedConsumerInfo_ = false;
};

} // namespace rfh

#endif // RFH_SIM_TRACE_H
