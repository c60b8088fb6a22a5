#include "sim/trace.h"

#include <algorithm>
#include <unordered_map>

#include "core/metrics.h"
#include "core/trace_events.h"
#include "ir/reaching_defs.h"
#include "sim/machine.h"

namespace rfh {

namespace {

/** Recorder observability. */
struct RecorderMetrics
{
    Counter &recordings = globalMetrics().counter("trace.recordings");
    /** Records over all warps, duplicates included. */
    Counter &instrs = globalMetrics().counter("trace.record.instrs");
    /** Distinct warp streams stored. */
    Counter &streams = globalMetrics().counter("trace.record.streams");
    /** Records stored: those of the distinct streams only. */
    Counter &distinctInstrs =
        globalMetrics().counter("trace.record.distinctInstrs");
    /** Distinct deschedule segments stored. */
    Counter &segments = globalMetrics().counter("trace.segments");
    /** Records of the distinct segments. */
    Counter &segmentRecords =
        globalMetrics().counter("trace.segmentRecords");
    Timer &record = globalMetrics().timer("trace.record");
};

RecorderMetrics &
recorderMetrics()
{
    static RecorderMetrics m;
    return m;
}

void
noteRecording(const Kernel &k, const DecodedTrace &trace, double sec)
{
    RecorderMetrics &rm = recorderMetrics();
    const std::uint64_t instrs = trace.instructions();
    rm.recordings.add();
    rm.instrs.add(instrs);
    rm.streams.add(static_cast<std::uint64_t>(trace.numStreams()));
    rm.distinctInstrs.add(trace.lin.size());
    rm.segments.add(trace.segments.size());
    std::uint64_t segmentRecords = 0;
    for (const ReplayUnit &u : trace.segments)
        segmentRecords += u.end - u.begin;
    rm.segmentRecords.add(segmentRecords);
    rm.record.addSec(sec);
    TraceEventLog &log = TraceEventLog::global();
    if (log.enabled()) {
        double endUs = TraceEventLog::nowUs();
        log.add("recordTrace", "trace", endUs - sec * 1e6, sec * 1e6,
                "{\"kernel\":\"" + k.name + "\",\"instrs\":" +
                    std::to_string(instrs) + ",\"streams\":" +
                    std::to_string(trace.numStreams()) + "}");
    }
}

/** One step of the interning hash over a record. */
std::uint64_t
hashStep(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 0x9E3779B97F4A7C15ull;
}

/**
 * Cut every distinct stream of @p trace into deschedule segments and
 * intern them into DecodedTrace::segments (see there). Needs the
 * long-latency plane.
 */
void
segmentTrace(const Kernel &k, DecodedTrace &trace)
{
    const std::size_t nInstrs = static_cast<std::size_t>(k.numInstrs());
    std::vector<RegSet> touched(nInstrs);
    std::vector<RegSet> defined(nInstrs);
    for (std::size_t l = 0; l < nInstrs; l++) {
        const Instruction &in = k.instr(static_cast<int>(l));
        defined[l] = definedRegs(in);
        touched[l] = usedRegs(in) | defined[l];
    }
    // Interning key: a hash over (lin, flags) and the closing lin,
    // confirmed by a record compare. Segments sharing a hash chain
    // through sameHash from the newest one byHash names.
    constexpr std::uint32_t kNone = ~0u;
    std::unordered_map<std::uint64_t, std::uint32_t> byHash;
    std::vector<std::uint32_t> sameHash;
    auto intern = [&](std::uint32_t b, std::uint32_t e,
                      std::int32_t closeLin, std::uint64_t h,
                      std::uint64_t weight) {
        h = hashStep(h, static_cast<std::uint32_t>(closeLin));
        auto it = byHash.try_emplace(h, kNone).first;
        for (std::uint32_t i = it->second; i != kNone; i = sameHash[i]) {
            ReplayUnit &u = trace.segments[i];
            if (u.closeLin == closeLin && u.end - u.begin == e - b &&
                std::equal(trace.lin.begin() + b, trace.lin.begin() + e,
                           trace.lin.begin() + u.begin) &&
                std::equal(trace.flags.begin() + b,
                           trace.flags.begin() + e,
                           trace.flags.begin() + u.begin)) {
                u.weight += weight;
                return;
            }
        }
        sameHash.push_back(it->second);
        it->second = static_cast<std::uint32_t>(trace.segments.size());
        trace.segments.push_back({b, e, closeLin, weight});
    };
    for (int s = 0; s < trace.numStreams(); s++) {
        const std::uint32_t e = trace.streamBegin[s + 1];
        const std::uint64_t m = trace.multiplicity[s];
        std::uint32_t begin = trace.streamBegin[s];
        std::uint64_t h = 0;
        RegSet pending;
        for (std::uint32_t t = begin; t < e; t++) {
            const int lin = trace.lin[t];
            if ((touched[lin] & pending).any()) {
                intern(begin, t, lin, h, m);
                begin = t;
                h = 0;
                pending.reset();
            }
            if ((trace.llWords[t / 64] >> (t % 64)) & 1u)
                pending |= defined[lin];
            h = hashStep(h, static_cast<std::uint64_t>(lin) << 8 |
                                trace.flags[t]);
        }
        intern(begin, e, -1, h, m);
    }
    trace.segments.shrink_to_fit();
}

/**
 * Derive the fields that follow from @p trace's interned streams —
 * the weighted per-instruction counts, the long-latency plane and
 * the deschedule segments — for the kernel @p k they were recorded
 * from.
 */
void
finishTrace(const Kernel &k, DecodedTrace &trace)
{
    const std::size_t n = trace.lin.size();
    const std::size_t nInstrs = static_cast<std::size_t>(k.numInstrs());
    trace.linRecords.assign(nInstrs, 0);
    trace.linExecuted.assign(nInstrs, 0);
    trace.llWords.assign((n + 63) / 64, 0);
    // Long-latency-with-destination instructions: their executed
    // records are the only ones that can set the replay pending set.
    std::vector<std::uint8_t> ll(nInstrs, 0);
    for (int l = 0; l < k.numInstrs(); l++) {
        const Instruction &in = k.instr(l);
        ll[l] = in.longLatency() && in.dst ? 1 : 0;
    }
    for (int s = 0; s < trace.numStreams(); s++) {
        const std::uint32_t b = trace.streamBegin[s];
        const std::uint32_t e = trace.streamBegin[s + 1];
        const std::uint64_t m = trace.multiplicity[s];
        for (std::uint32_t t = b; t < e; t++) {
            const int lin = trace.lin[t];
            const std::uint64_t ex = trace.flags[t] & kReplayExecuted;
            trace.linRecords[lin] += m;
            trace.linExecuted[lin] += ex * m;
            trace.llWords[t / 64] |= (ll[lin] & ex) << (t % 64);
        }
    }
    segmentTrace(k, trace);
}

} // namespace

DecodedTrace
recordDecodedTrace(const Kernel &k, const RunConfig &cfg)
{
    Stopwatch watch;
    DecodedTrace trace;
    trace.warpStream.reserve(cfg.numWarps);
    trace.streamBegin.push_back(0);
    // Interning key per stream: a hash over (lin, flags) and the end
    // lin. A hit is confirmed by comparing the records, so collisions
    // cost a compare, never a wrong merge.
    std::vector<std::uint64_t> streamHash;
    for (int w = 0; w < cfg.numWarps; w++) {
        const std::uint32_t begin =
            static_cast<std::uint32_t>(trace.lin.size());
        WarpContext warp;
        warp.reset(static_cast<std::uint32_t>(w));
        std::uint64_t executed = 0;
        std::uint64_t h = 0;
        while (!warp.done && executed < cfg.maxInstrsPerWarp) {
            int lin = warp.pc(k);
            const Instruction &in = k.instr(lin);
            std::uint8_t flags = 0;
            if (!in.pred || warp.regs[*in.pred] != 0)
                flags |= kReplayExecuted;
            StepInfo si = step(k, warp);
            if (si.branchTaken)
                flags |= kReplayBranchTaken;
            trace.lin.push_back(lin);
            trace.flags.push_back(flags);
            h = hashStep(h, static_cast<std::uint64_t>(lin) << 8 | flags);
            executed++;
        }
        const std::int32_t endLin = warp.done ? -1 : warp.pc(k);
        h = hashStep(h, static_cast<std::uint32_t>(endLin));

        const std::uint32_t len =
            static_cast<std::uint32_t>(trace.lin.size()) - begin;
        int match = -1;
        for (int s = 0; s < trace.numStreams() && match < 0; s++) {
            const std::uint32_t sb = trace.streamBegin[s];
            if (streamHash[s] == h && trace.streamEndLin[s] == endLin &&
                trace.streamBegin[s + 1] - sb == len &&
                std::equal(trace.lin.begin() + begin, trace.lin.end(),
                           trace.lin.begin() + sb) &&
                std::equal(trace.flags.begin() + begin,
                           trace.flags.end(), trace.flags.begin() + sb))
                match = s;
        }
        if (match >= 0) {
            trace.lin.resize(begin);
            trace.flags.resize(begin);
            trace.multiplicity[match]++;
            trace.warpStream.push_back(static_cast<std::uint32_t>(match));
        } else {
            trace.warpStream.push_back(
                static_cast<std::uint32_t>(trace.numStreams()));
            trace.streamBegin.push_back(
                static_cast<std::uint32_t>(trace.lin.size()));
            trace.streamEndLin.push_back(endLin);
            trace.multiplicity.push_back(1);
            streamHash.push_back(h);
        }
    }
    // Merged warps were recorded and then cut back off: release that
    // slack, since the memo keeps the trace for the kernel's lifetime.
    trace.lin.shrink_to_fit();
    trace.flags.shrink_to_fit();
    finishTrace(k, trace);
    noteRecording(k, trace, watch.elapsedSec());
    return trace;
}

namespace {

/**
 * Static per-instruction flag: does any consumer of this result run
 * on the shared datapath? Such values bypass the hardware LRF
 * (Section 6.2: the compiler guarantees shared-unit operands are
 * available in the RFC or MRF).
 */
std::vector<std::uint8_t>
sharedConsumers(const Kernel &k, const ReachingDefs &rdefs)
{
    std::vector<std::uint8_t> shared_consumer(k.numInstrs(), 0);
    for (int lin = 0; lin < k.numInstrs(); lin++) {
        for (DefId d : rdefs.defsAt(lin)) {
            for (const UseSite &u : rdefs.uses(d)) {
                if (u.slot == kPredSlot)
                    continue;
                if (isSharedUnit(k.instr(u.lin).unit()))
                    shared_consumer[lin] = 1;
            }
        }
    }
    return shared_consumer;
}

} // namespace

ReplayDecode::ReplayDecode(const Kernel &k, const ReachingDefs *rdefs)
{
    int n = k.numInstrs();
    op.reserve(n);
    touched.reserve(n);
    used.reserve(n);
    defined.reserve(n);
    std::vector<std::uint8_t> shared_consumer;
    if (rdefs) {
        shared_consumer = sharedConsumers(k, *rdefs);
        hasSharedConsumerInfo_ = true;
    }
    for (int lin = 0; lin < n; lin++) {
        const Instruction &in = k.instr(lin);
        RegSet def = definedRegs(in);
        RegSet use = usedRegs(in);
        defined.push_back(def);
        used.push_back(use);
        touched.push_back(use | def);

        ReplayOp o;
        for (int s = 0; s < in.numSrcs; s++)
            if (in.srcs[s].isReg)
                o.src[o.nsrc++] = in.srcs[s].reg;
        o.pred = in.pred ? static_cast<std::int16_t>(*in.pred) : -1;
        o.dst = in.dst ? static_cast<std::int16_t>(*in.dst) : -1;
        o.halves = in.wide ? 2 : 1;
        o.dp = static_cast<std::uint8_t>(datapathOf(in.unit()));
        o.opcode = in.op;
        if (in.longLatency())
            o.flags |= kOpLongLat;
        if (isSharedUnit(in.unit()))
            o.flags |= kOpShared;
        if (in.op == Opcode::BRA && in.branchTarget >= 0 &&
            in.branchTarget <= k.ref(lin).block)
            o.flags |= kOpBackward;
        if (rdefs && !in.wide && in.unit() == UnitClass::ALU &&
            !shared_consumer[lin])
            o.flags |= kOpLrfAble;
        op.push_back(o);
    }
}

} // namespace rfh
