/**
 * @file
 * Tests for decoded-trace recording: every warp's record stream must
 * be a legal execution of the recorded kernel, identical warp
 * streams are stored once with the right multiplicity, and the
 * deschedule segments partition every stream.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/metrics.h"
#include "ir/cfg_analysis.h"
#include "ir/parser.h"
#include "sim/baseline_exec.h"
#include "sim/trace.h"
#include "workloads/profiles.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

/**
 * Records over all warps whose flags carry @p flag: each stored
 * record counted once per warp that follows its stream.
 */
std::uint64_t
recordsWithFlag(const DecodedTrace &t, std::uint8_t flag)
{
    std::uint64_t n = 0;
    for (int s = 0; s < t.numStreams(); s++)
        for (std::uint32_t r = t.streamBegin[s]; r < t.streamBegin[s + 1];
             r++)
            if (t.flags[r] & flag)
                n += t.multiplicity[s];
    return n;
}

/**
 * Check that every stream's @c lin records in @p t walk @p k legally:
 * each starts at block 0, steps to the next instruction of the same
 * block or along a CFG edge at a block end, and ends at an EXIT or at
 * the streamEndLin cap (whose step is checked like any other). Also
 * check the interning bookkeeping: every warp names a stream, streams
 * are numbered in order of first appearance, and each multiplicity
 * counts the warps on its stream.
 *
 * @return empty string if consistent, else the first violation.
 */
std::string
streamError(const Kernel &k, const DecodedTrace &t)
{
    const int n = t.numStreams();
    if (static_cast<int>(t.streamBegin.size()) != n + 1 ||
        static_cast<int>(t.streamEndLin.size()) != n)
        return "stream extents disagree with the multiplicities";
    std::vector<std::uint32_t> warps(static_cast<std::size_t>(n), 0);
    std::uint32_t seen = 0;
    for (int w = 0; w < t.numWarps(); w++) {
        const std::uint32_t s = t.warpStream[w];
        if (s > seen || static_cast<int>(s) >= n)
            return "warp " + std::to_string(w) + ": stream " +
                std::to_string(s) + " out of first-appearance order";
        seen += s == seen;
        warps[s]++;
    }
    if (warps != t.multiplicity)
        return "multiplicities do not count the warps per stream";

    Cfg cfg(k);
    for (int s = 0; s < n; s++) {
        std::string at = "stream " + std::to_string(s) + ": ";
        if (t.streamBegin[s] == t.streamBegin[s + 1])
            return at + "empty stream";
        if (t.lin[t.streamBegin[s]] != k.blockStart(0))
            return at + "does not start at block 0";
        for (std::uint32_t i = t.streamBegin[s]; i < t.streamBegin[s + 1];
             i++) {
            int cur = t.lin[i];
            int next = t.nextLin(s, i);
            InstrRef r = k.ref(cur);
            int blockSize =
                static_cast<int>(k.blocks[r.block].instrs.size());
            std::string step = at + "record " + std::to_string(i) +
                ": " + std::to_string(cur) + " -> " +
                std::to_string(next);
            if (next < 0) {
                if (k.instr(cur).op != Opcode::EXIT)
                    return step + " ends without an exit";
            } else if (r.idx + 1 < blockSize) {
                if (next != cur + 1)
                    return step + " leaves its block mid-way";
            } else {
                bool edge = false;
                for (int succ : cfg.succs(r.block))
                    edge |= next == k.blockStart(succ);
                if (!edge)
                    return step + " is not a CFG edge";
            }
        }
    }
    return "";
}

/** Records per basic block across all warps of @p t. */
std::vector<std::uint64_t>
recordsPerBlock(const Kernel &k, const DecodedTrace &t)
{
    std::vector<std::uint64_t> out(k.blocks.size(), 0);
    for (int s = 0; s < t.numStreams(); s++)
        for (std::uint32_t i = t.streamBegin[s]; i < t.streamBegin[s + 1];
             i++)
            out[k.ref(t.lin[i]).block] += t.multiplicity[s];
    return out;
}

/** A one-stream trace of @p lin, ending at @p endLin, for one warp. */
DecodedTrace
handMade(std::vector<std::int32_t> lin, std::int32_t endLin = -1)
{
    DecodedTrace t;
    t.flags.assign(lin.size(), kReplayExecuted);
    t.streamBegin = {0, static_cast<std::uint32_t>(lin.size())};
    t.lin = std::move(lin);
    t.streamEndLin = {endLin};
    t.multiplicity = {1};
    t.warpStream = {0};
    return t;
}

TEST(Trace, StraightLinePathIsOneBlock)
{
    Kernel k = parseKernelOrDie(R"(.kernel s
entry:
    iadd R1, R0, #1
    st.global [R0], R1
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 2;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    ASSERT_EQ(t.numWarps(), 2);
    // Both warps follow one path: it is stored once, twice weighted.
    EXPECT_EQ(t.lin, std::vector<std::int32_t>({0, 1, 2}));
    EXPECT_EQ(t.streamEndLin, std::vector<std::int32_t>({-1}));
    EXPECT_EQ(t.multiplicity, std::vector<std::uint32_t>({2}));
    EXPECT_EQ(t.warpStream, std::vector<std::uint32_t>({0, 0}));
    EXPECT_EQ(t.linRecords, std::vector<std::uint64_t>({2, 2, 2}));
    EXPECT_EQ(t.instructions(), 6u);
    EXPECT_EQ(streamError(k, t), "");
}

TEST(Trace, LoopRecordsEveryIteration)
{
    Kernel k = parseKernelOrDie(R"(.kernel l
entry:
    mov R1, #4
body:
    isub R1, R1, #1
    setgt R2, R1, #0
    @R2 bra body
out:
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 1;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    // entry, 4x body (3 instructions each), out.
    std::vector<std::uint64_t> perBlock = recordsPerBlock(k, t);
    EXPECT_EQ(perBlock, std::vector<std::uint64_t>({1, 12, 1}));
    EXPECT_EQ(recordsWithFlag(t, kReplayBranchTaken), 3u);
    EXPECT_EQ(streamError(k, t), "");

    // A capped run ends mid-loop; its next instruction is still legal.
    cfg.maxInstrsPerWarp = 5;
    DecodedTrace capped = recordDecodedTrace(k, cfg);
    EXPECT_EQ(capped.instructions(), 5u);
    EXPECT_EQ(capped.streamEndLin, std::vector<std::int32_t>({2}));
    EXPECT_EQ(streamError(k, capped), "");
}

TEST(Trace, DivergentWarpsTakeDifferentPaths)
{
    Kernel k = parseKernelOrDie(R"(.kernel d
entry:
    setlt R1, R0, #2
    @R1 bra low
high:
    iadd R2, R0, #1
    bra out
low:
    iadd R2, R0, #2
out:
    st.global [R0], R2
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 8;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    // Warps 0 and 1 (tid < 2) take "low"; the rest take "high".
    std::vector<std::uint64_t> perBlock = recordsPerBlock(k, t);
    EXPECT_EQ(perBlock[2], 2u);
    EXPECT_EQ(perBlock[1], 6u * 2u);
    EXPECT_EQ(t.multiplicity, std::vector<std::uint32_t>({2, 6}));
    EXPECT_EQ(t.warpStream,
              std::vector<std::uint32_t>({0, 0, 1, 1, 1, 1, 1, 1}));
    EXPECT_EQ(streamError(k, t), "");
}

TEST(Trace, ValidationCatchesIllegalTransitions)
{
    Kernel k = parseKernelOrDie(R"(.kernel v
entry:
    setlt R1, R0, #2
    @R1 bra skip
mid:
    iadd R1, R0, #1
skip:
    st.global [R0], R1
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 1;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    ASSERT_EQ(t.lin, std::vector<std::int32_t>({0, 1, 3, 4}));
    ASSERT_EQ(streamError(k, t), "");

    // Hand-made illegal streams, one fault each.
    EXPECT_EQ(streamError(k, handMade({0, 1, 3, 4})), "");
    EXPECT_NE(streamError(k, handMade({2, 3, 4})), "");  // not block 0
    EXPECT_NE(streamError(k, handMade({0, 3, 4})), "");  // skips the bra
    EXPECT_NE(streamError(k, handMade({0, 1, 4})), "");  // no such edge
    EXPECT_NE(streamError(k, handMade({0, 1, 3})), "");  // no exit
    EXPECT_NE(streamError(k, handMade({0, 1}, 4)), "");  // cap off-edge
    // Interning bookkeeping faults.
    DecodedTrace bad = handMade({0, 1, 3, 4});
    bad.warpStream = {0, 0};  // two warps, multiplicity says one
    EXPECT_NE(streamError(k, bad), "");
    bad.multiplicity = {2};
    EXPECT_EQ(streamError(k, bad), "");
    bad.warpStream = {1, 0};  // stream 1 named before stream 0
    EXPECT_NE(streamError(k, bad), "");
}

TEST(Trace, AllWorkloadsProduceValidTraces)
{
    for (const Workload &w : allWorkloads()) {
        RunConfig cfg = w.run;
        cfg.numWarps = 2;
        DecodedTrace t = recordDecodedTrace(w.kernel, cfg);
        EXPECT_EQ(streamError(w.kernel, t), "") << w.name;
        EXPECT_GT(t.instructions(), 0u) << w.name;
    }
}

/** Registry workloads plus a few kernels of every corpus profile. */
std::vector<Workload>
interningWorkloads()
{
    std::vector<Workload> out = allWorkloads();
    for (const ScenarioProfile &p : allProfiles())
        for (int i = 0; i < 4; i++)
            out.push_back(corpusWorkload(p, 1, i));
    return out;
}

TEST(Trace, InternedStreamsAccountForEveryWarp)
{
    for (const Workload &w : interningWorkloads()) {
        DecodedTrace t = recordDecodedTrace(w.kernel, w.run);
        ASSERT_EQ(streamError(w.kernel, t), "") << w.name;
        EXPECT_EQ(t.numWarps(), w.run.numWarps) << w.name;
        EXPECT_EQ(std::accumulate(t.multiplicity.begin(),
                                  t.multiplicity.end(), std::uint64_t{0}),
                  static_cast<std::uint64_t>(w.run.numWarps))
            << w.name;
        EXPECT_EQ(t.instructions(),
                  runBaseline(w.kernel, w.run).instructions)
            << w.name;
        EXPECT_EQ(std::accumulate(t.linRecords.begin(), t.linRecords.end(),
                                  std::uint64_t{0}),
                  t.instructions())
            << w.name;
        EXPECT_EQ(std::accumulate(t.linExecuted.begin(),
                                  t.linExecuted.end(), std::uint64_t{0}),
                  recordsWithFlag(t, kReplayExecuted))
            << w.name;
        // No two stored streams are equal: interning is complete.
        for (int a = 0; a < t.numStreams(); a++) {
            for (int b = a + 1; b < t.numStreams(); b++) {
                auto at = [&](int s, const auto &v) {
                    return std::vector(v.begin() + t.streamBegin[s],
                                       v.begin() + t.streamBegin[s + 1]);
                };
                EXPECT_FALSE(at(a, t.lin) == at(b, t.lin) &&
                             at(a, t.flags) == at(b, t.flags) &&
                             t.streamEndLin[a] == t.streamEndLin[b])
                    << w.name << ": streams " << a << " and " << b;
            }
        }
    }
}

TEST(Trace, CappedWarpsSplitOnTheirEndLin)
{
    // Warp w loops w + 1 times. Under a 4-record cap, warps 1 and 2
    // record the same four records and stop at the same next
    // instruction, so they share a stream. Warp 0 leaves the loop at
    // its fourth record: its last branch falls through, so its end
    // lin differs and it must not be merged with them. (On a recorded
    // trace a warp's end lin follows from its last record, so the end
    // lin never splits streams that agree record for record; the key
    // keeps it so a stream's strand-boundary lookahead stays exact.)
    Kernel k = parseKernelOrDie(R"(.kernel c
entry:
    iadd R1, R0, #1
body:
    isub R1, R1, #1
    setgt R2, R1, #0
    @R2 bra body
out:
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 3;
    cfg.maxInstrsPerWarp = 4;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    EXPECT_EQ(streamError(k, t), "");
    EXPECT_EQ(t.warpStream, std::vector<std::uint32_t>({0, 1, 1}));
    EXPECT_EQ(t.multiplicity, std::vector<std::uint32_t>({1, 2}));
    EXPECT_EQ(t.streamEndLin, std::vector<std::int32_t>({4, 1}));
    EXPECT_EQ(t.lin,
              std::vector<std::int32_t>({0, 1, 2, 3, 0, 1, 2, 3}));
    EXPECT_EQ(t.instructions(), 12u);
}

TEST(Trace, RecorderCountsStreamsAndDistinctRecords)
{
    MetricsRegistry &reg = globalMetrics();
    Counter &instrs = reg.counter("trace.record.instrs");
    Counter &streams = reg.counter("trace.record.streams");
    Counter &distinct = reg.counter("trace.record.distinctInstrs");
    const std::uint64_t i0 = instrs.value();
    const std::uint64_t s0 = streams.value();
    const std::uint64_t d0 = distinct.value();
    Kernel k = parseKernelOrDie(R"(.kernel d
entry:
    setlt R1, R0, #2
    @R1 bra low
high:
    iadd R2, R0, #1
    bra out
low:
    iadd R2, R0, #2
out:
    st.global [R0], R2
    exit
)");
    RunConfig cfg;
    cfg.numWarps = 8;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    // Two paths of 5 and 6 records: 2 x 5 + 6 x 6 records in all.
    EXPECT_EQ(instrs.value() - i0, 46u);
    EXPECT_EQ(streams.value() - s0, 2u);
    EXPECT_EQ(distinct.value() - d0, 11u);
    EXPECT_EQ(t.lin.size(), 11u);
}

/** A segment's identity: its (lin, flags) records and closing lin. */
using SegmentKey =
    std::pair<std::vector<std::pair<std::int32_t, std::uint8_t>>,
              std::int32_t>;

SegmentKey
segmentKey(const DecodedTrace &t, std::uint32_t b, std::uint32_t e,
           std::int32_t closeLin)
{
    SegmentKey key{{}, closeLin};
    for (std::uint32_t i = b; i < e; i++)
        key.first.emplace_back(t.lin[i], t.flags[i]);
    return key;
}

TEST(Trace, SegmentsPartitionEveryStream)
{
    for (const Workload &w : interningWorkloads()) {
        const Kernel &k = w.kernel;
        DecodedTrace t = recordDecodedTrace(k, w.run);
        ASSERT_EQ(streamError(k, t), "") << w.name;

        // Every stored segment is distinct, and its weights times its
        // lengths account for every record of every warp.
        std::map<SegmentKey, std::size_t> index;
        std::uint64_t records = 0;
        for (std::size_t i = 0; i < t.segments.size(); i++) {
            const ReplayUnit &u = t.segments[i];
            ASSERT_LT(u.begin, u.end) << w.name;
            ASSERT_GE(u.weight, 1u) << w.name;
            records += (u.end - u.begin) * u.weight;
            EXPECT_TRUE(
                index.emplace(segmentKey(t, u.begin, u.end, u.closeLin), i)
                    .second)
                << w.name << ": segment " << i << " stored twice";
        }
        EXPECT_EQ(records, t.instructions()) << w.name;

        // Re-cut each stream here: a segment ends right before the
        // first record that touches a destination of an executed
        // long-latency record since the segment began. Concatenating
        // the stored segments the pieces name must give the stream
        // back, and their occurrences must add up to the weights.
        std::vector<std::uint64_t> weight(t.segments.size(), 0);
        for (int s = 0; s < t.numStreams(); s++) {
            const std::uint32_t b = t.streamBegin[s];
            const std::uint32_t e = t.streamBegin[s + 1];
            std::vector<std::pair<std::int32_t, std::uint8_t>> rebuilt;
            auto piece = [&](std::uint32_t pb, std::uint32_t pe,
                             std::int32_t closeLin) {
                auto it = index.find(segmentKey(t, pb, pe, closeLin));
                ASSERT_NE(it, index.end())
                    << w.name << ": stream " << s << " piece at " << pb
                    << " is not stored";
                const ReplayUnit &u = t.segments[it->second];
                weight[it->second] += t.multiplicity[s];
                for (std::uint32_t i = u.begin; i < u.end; i++)
                    rebuilt.emplace_back(t.lin[i], t.flags[i]);
            };
            RegSet pending;
            std::uint32_t start = b;
            for (std::uint32_t i = b; i < e; i++) {
                const Instruction &in = k.instr(t.lin[i]);
                if (((usedRegs(in) | definedRegs(in)) & pending).any()) {
                    piece(start, i, t.lin[i]);
                    start = i;
                    pending.reset();
                }
                if (in.longLatency() && in.dst &&
                    (t.flags[i] & kReplayExecuted))
                    pending |= definedRegs(in);
            }
            piece(start, e, -1);
            EXPECT_EQ(rebuilt, segmentKey(t, b, e, -1).first)
                << w.name << ": stream " << s;
        }
        for (std::size_t i = 0; i < t.segments.size(); i++)
            EXPECT_EQ(weight[i], t.segments[i].weight)
                << w.name << ": segment " << i;

        // Every closing lin meets the pending set its segment built.
        for (const ReplayUnit &u : t.segments) {
            if (u.closeLin < 0)
                continue;
            RegSet pending;
            for (std::uint32_t i = u.begin; i < u.end; i++) {
                const Instruction &in = k.instr(t.lin[i]);
                if (in.longLatency() && in.dst &&
                    (t.flags[i] & kReplayExecuted))
                    pending |= definedRegs(in);
            }
            const Instruction &close = k.instr(u.closeLin);
            EXPECT_TRUE(
                ((usedRegs(close) | definedRegs(close)) & pending).any())
                << w.name << ": segment closed at " << u.closeLin;
        }
    }
}

TEST(Trace, DivergentStreamsShareSegments)
{
    // Warp w runs the loop w + 1 times. Every iteration's load result
    // is read at the top of the next iteration (or of the first), so
    // every iteration is its own segment: the four streams are
    // distinct, but their 14 segments are three distinct ones (the
    // entry, a taken iteration, the exiting one).
    Kernel k = parseKernelOrDie(R"(.kernel shared_segments
entry:
    iadd R1, R0, #1
    ld.global R3, [R0]
body:
    iadd R4, R3, #1
    isub R1, R1, #1
    ld.global R3, [R0]
    setgt R2, R1, #0
    @R2 bra body
out:
    st.global [R0], R4
    exit
)");
    Counter &segments = globalMetrics().counter("trace.segments");
    Counter &records = globalMetrics().counter("trace.segmentRecords");
    const std::uint64_t s0 = segments.value();
    const std::uint64_t r0 = records.value();
    RunConfig cfg;
    cfg.numWarps = 4;
    DecodedTrace t = recordDecodedTrace(k, cfg);
    ASSERT_EQ(streamError(k, t), "");
    EXPECT_EQ(t.numStreams(), 4);
    ASSERT_EQ(t.segments.size(), 3u);
    std::uint64_t total = 0;
    for (const ReplayUnit &u : t.segments)
        total += u.weight;
    EXPECT_EQ(total, 14u);
    EXPECT_EQ(t.segments[0], (ReplayUnit{0, 2, 2, 4}));
    // Warp 0 exits from its first iteration, so the exiting segment
    // appears before the taken one.
    EXPECT_EQ(t.segments[1].closeLin, -1);
    EXPECT_EQ(t.segments[1].weight, 4u);
    EXPECT_EQ(t.segments[2].closeLin, 2);
    EXPECT_EQ(t.segments[2].weight, 6u);
    EXPECT_EQ(segments.value() - s0, 3u);
    EXPECT_EQ(records.value() - r0, 2u + 5u + 7u);
}

} // namespace
} // namespace rfh
