#include "sim/trace.h"

#include "core/metrics.h"
#include "core/trace_events.h"
#include "ir/reaching_defs.h"
#include "sim/machine.h"
#include "sim/replay_kernels.h"

namespace rfh {

namespace {

/** Recorder observability. */
struct RecorderMetrics
{
    Counter &recordings = globalMetrics().counter("trace.recordings");
    Counter &instrs = globalMetrics().counter("trace.record.instrs");
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
    rm.recordings.add();
    rm.instrs.add(trace.lin.size());
    rm.record.addSec(sec);
    TraceEventLog &log = TraceEventLog::global();
    if (log.enabled()) {
        double endUs = TraceEventLog::nowUs();
        log.add("recordTrace", "trace", endUs - sec * 1e6, sec * 1e6,
                "{\"kernel\":\"" + k.name + "\",\"instrs\":" +
                    std::to_string(trace.lin.size()) + "}");
    }
}

} // namespace

DecodedTrace
recordDecodedTrace(const Kernel &k, const RunConfig &cfg)
{
    Stopwatch watch;
    DecodedTrace trace;
    trace.warpBegin.reserve(cfg.numWarps + 1);
    trace.warpEndLin.reserve(cfg.numWarps);
    trace.warpBegin.push_back(0);
    for (int w = 0; w < cfg.numWarps; w++) {
        WarpContext warp;
        warp.reset(static_cast<std::uint32_t>(w));
        std::uint64_t executed = 0;
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
            executed++;
        }
        trace.warpBegin.push_back(
            static_cast<std::uint32_t>(trace.lin.size()));
        trace.warpEndLin.push_back(warp.done ? -1 : warp.pc(k));
    }
    trace.buildPlanes(k);
    noteRecording(k, trace, watch.elapsedSec());
    return trace;
}

bool
DecodedTrace::wellFormed(int numInstrs) const
{
    if (flags.size() != lin.size() ||
        warpBegin.size() != warpEndLin.size() + 1 ||
        warpBegin.front() != 0 || warpBegin.back() != lin.size())
        return false;
    for (std::size_t w = 1; w < warpBegin.size(); w++)
        if (warpBegin[w] < warpBegin[w - 1])
            return false;
    for (std::int32_t l : lin)
        if (l < 0 || l >= numInstrs)
            return false;
    for (std::int32_t l : warpEndLin)
        if (l < -1 || l >= numInstrs)
            return false;
    return hasPlanes();
}

void
DecodedTrace::buildPlanes(const Kernel &k)
{
    const std::size_t n = lin.size();
    const std::size_t words = (n + 63) / 64;
    execWords.assign(words, 0);
    llWords.assign(words, 0);
    if (n == 0) {
        executedInstrs = 0;
        takenBranches = 0;
        return;
    }
    FlagsClassCounts cls = classifyReplayFlags(flags.data(), n);
    executedInstrs = cls.executed;
    takenBranches = cls.taken;
    packReplayPlanes(flags.data(), n, execWords.data());
    // Long-latency-with-destination records (the only ones that can
    // set the replay pending set), masked to executed records.
    std::vector<std::uint8_t> ll(k.numInstrs(), 0);
    for (int l = 0; l < k.numInstrs(); l++) {
        const Instruction &in = k.instr(l);
        ll[l] = in.longLatency() && in.dst ? 1 : 0;
    }
    for (std::size_t t = 0; t < n; t++)
        llWords[t / 64] |=
            static_cast<std::uint64_t>(ll[lin[t]]) << (t % 64);
    for (std::size_t w = 0; w < words; w++)
        llWords[w] &= execWords[w];
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
    instr.reserve(n);
    op.reserve(n);
    touched.reserve(n);
    used.reserve(n);
    defined.reserve(n);
    datapath.reserve(n);
    shared.reserve(n);
    backwardBranch.reserve(n);
    regReads.reserve(n);
    regWrites.reserve(n);
    std::vector<std::uint8_t> shared_consumer;
    if (rdefs) {
        shared_consumer = sharedConsumers(k, *rdefs);
        hasSharedConsumerInfo_ = true;
    }
    for (int lin = 0; lin < n; lin++) {
        const Instruction &in = k.instr(lin);
        instr.push_back(in);
        RegSet def = definedRegs(in);
        RegSet use = usedRegs(in);
        defined.push_back(def);
        used.push_back(use);
        touched.push_back(use | def);
        bool is_shared = isSharedUnit(in.unit());
        bool backward = in.op == Opcode::BRA && in.branchTarget >= 0 &&
            in.branchTarget <= k.ref(lin).block;
        datapath.push_back(
            static_cast<std::uint8_t>(datapathOf(in.unit())));
        shared.push_back(is_shared ? 1 : 0);
        backwardBranch.push_back(backward ? 1 : 0);
        regReads.push_back(static_cast<std::uint8_t>(in.numRegReads()));
        regWrites.push_back(
            static_cast<std::uint8_t>(in.numRegWrites()));

        ReplayOp o;
        for (int s = 0; s < in.numSrcs; s++)
            if (in.srcs[s].isReg)
                o.src[o.nsrc++] = in.srcs[s].reg;
        o.pred = in.pred ? static_cast<std::int16_t>(*in.pred) : -1;
        o.dst = in.dst ? static_cast<std::int16_t>(*in.dst) : -1;
        o.halves = in.wide ? 2 : 1;
        o.dp = static_cast<std::uint8_t>(datapathOf(in.unit()));
        if (in.longLatency())
            o.flags |= kOpLongLat;
        if (is_shared)
            o.flags |= kOpShared;
        if (backward)
            o.flags |= kOpBackward;
        if (in.wide)
            o.flags |= kOpWide;
        if (rdefs && !in.wide && in.unit() == UnitClass::ALU &&
            !shared_consumer[lin])
            o.flags |= kOpLrfAble;
        op.push_back(o);
    }
}

} // namespace rfh
