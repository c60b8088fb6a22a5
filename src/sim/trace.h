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
 * every (scheme x entries) grid cell doing only hierarchy state
 * updates and access counting: no opcode dispatch, no value
 * computation, no branch evaluation.
 *
 * The dynamic stream is a structure-of-arrays: one int32 linear
 * instruction index and one flags byte per dynamic instruction, with
 * per-warp extents. Everything value-dependent that the access
 * counters need is folded into the flags (executed-vs-predicated-off,
 * branch taken); everything static (register indices, immediates,
 * wide halves, unit class) is resolved once into a ReplayDecode table
 * indexed by the linear instruction id.
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
 * The pre-decoded dynamic instruction stream of one kernel launch,
 * laid out as a flat structure-of-arrays over all warps.
 *
 * Replaying the stream reproduces, bit-exactly, every quantity the
 * access counters depend on — which instruction issued, whether its
 * writeback was enabled, and which way branches went — without
 * re-executing the functional machine.
 */
struct DecodedTrace
{
    /** Static linear instruction index, one per dynamic instruction. */
    std::vector<std::int32_t> lin;
    /** ReplayFlags, parallel to @c lin. */
    std::vector<std::uint8_t> flags;
    /**
     * Per-warp extents into the flat arrays: warp w's records are
     * [warpBegin[w], warpBegin[w+1]). Size numWarps + 1.
     */
    std::vector<std::uint32_t> warpBegin;
    /**
     * Per warp: the linear index of the instruction that would have
     * issued next had the run not hit the per-warp instruction cap,
     * or -1 when the warp terminated. Lets replay reproduce the
     * strand-boundary check of the final recorded instruction.
     */
    std::vector<std::int32_t> warpEndLin;

    // ---- Bit-planes over the record stream ----
    // Bit (t % 64) of word (t / 64) classifies record t. Always built
    // by the recorder (buildPlanes); the replay executors consume
    // them with popcount sweeps and bit scans instead of per-record
    // branching. Unused bits of the final word are zero.

    /** kReplayExecuted per record. */
    std::vector<std::uint64_t> execWords;
    /**
     * Records that executed AND name a long-latency instruction with a
     * destination — exactly the records that can set the outstanding
     * (pending) register set during replay. Structural: annotations
     * never affect it, so it is valid for any annotated copy of the
     * recorded kernel.
     */
    std::vector<std::uint64_t> llWords;
    /** Total records with kReplayExecuted (classification pass). */
    std::uint64_t executedInstrs = 0;
    /** Total records with kReplayBranchTaken (classification pass). */
    std::uint64_t takenBranches = 0;

    /** (Re)build the planes and classification totals from @p k. */
    void buildPlanes(const Kernel &k);

    int
    numWarps() const
    {
        return static_cast<int>(warpEndLin.size());
    }

    /** Total dynamic instructions across all warps. */
    std::uint64_t
    instructions() const
    {
        return static_cast<std::uint64_t>(lin.size());
    }

    /**
     * Linear index of the instruction following record @p t of warp
     * @p w along the recorded path, or -1 when the warp terminated.
     */
    std::int32_t
    nextLin(int w, std::uint32_t t) const
    {
        return t + 1 < warpBegin[w + 1] ? lin[t + 1] : warpEndLin[w];
    }
};

/**
 * Execute @p k functionally — once — and record the pre-decoded
 * per-warp dynamic stream. The warp loop, instruction cap, and
 * predicate semantics mirror the direct executors exactly, so a
 * replay visits precisely the dynamic instructions a direct run
 * executes.
 */
DecodedTrace recordDecodedTrace(const Kernel &k, const RunConfig &cfg = {});

/** Packed classification bits of one ReplayOp. */
enum ReplayOpFlags : std::uint8_t
{
    kOpLongLat = 1u << 0,   ///< isLongLatency(op).
    kOpShared = 1u << 1,    ///< isSharedUnit(unit()).
    kOpBackward = 1u << 2,  ///< BRA with target block <= own block.
    kOpWide = 1u << 3,      ///< 64-bit destination (two halves).
    /**
     * Hardware-LRF eligible result: private non-wide ALU value with no
     * shared-datapath consumer. Only meaningful when the decode was
     * built with reaching definitions (hasSharedConsumerInfo()).
     */
    kOpLrfAble = 1u << 4,
};

/**
 * Compact structure-of-arrays record of one static instruction: the
 * 10 bytes the replay inner loops actually touch, instead of the
 * ~200-byte Instruction. One cache line holds six of them.
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
};

/**
 * Flat static pre-decode of a kernel for replay, indexed by linear
 * instruction id: the instructions themselves in one contiguous
 * array, compact ReplayOp records for the hot loops, plus the derived
 * sets and classifications the loops would otherwise recompute per
 * dynamic instruction.
 *
 * A decode built from a pristine kernel is structurally identical to
 * one built from any allocator-annotated copy except for the @c instr
 * snapshots, which carry whatever annotations the source kernel had.
 * Cached decodes (ExperimentCache::decode) are therefore shared
 * across annotated copies, and consumers of a shared decode must not
 * read annotations out of @c instr.
 */
struct ReplayDecode
{
    /** Contiguous instruction copies in layout (linear) order. */
    std::vector<Instruction> instr;
    /** Compact per-instruction records for the replay inner loops. */
    std::vector<ReplayOp> op;
    /** usedRegs | definedRegs per instruction. */
    std::vector<RegSet> touched;
    /** usedRegs per instruction. */
    std::vector<RegSet> used;
    /** definedRegs per instruction. */
    std::vector<RegSet> defined;
    /** Datapath index (static_cast<int>(datapathOf(unit))). */
    std::vector<std::uint8_t> datapath;
    /** isSharedUnit(unit()) per instruction. */
    std::vector<std::uint8_t> shared;
    /** BRA with a valid target block <= its own block. */
    std::vector<std::uint8_t> backwardBranch;
    /** numRegReads() per instruction (baseline accounting). */
    std::vector<std::uint8_t> regReads;
    /** numRegWrites() per instruction (baseline accounting). */
    std::vector<std::uint8_t> regWrites;

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
