#include "sim/baseline_exec.h"

#include <algorithm>

#include "sim/machine.h"
#include "sim/pipeline_account.h"

namespace rfh {

AccessCounts
runBaseline(const Kernel &k, const RunConfig &cfg)
{
    AccessCounts counts;
    makeFlatAccounting(k, nullptr, counts)->execute(k, cfg);
    return counts;
}

void
UsageStats::add(const UsageStats &o)
{
    read0 += o.read0;
    burstyMultiReads += o.burstyMultiReads;
    multiReads += o.multiReads;
    read1 += o.read1;
    read2 += o.read2;
    readMore += o.readMore;
    life1 += o.life1;
    life2 += o.life2;
    life3 += o.life3;
    lifeMore += o.lifeMore;
    totalValues += o.totalValues;
    sharedConsumed += o.sharedConsumed;
    sharedConsumedPrivateProduced += o.sharedConsumedPrivateProduced;
    instructions += o.instructions;
    regReads += o.regReads;
    regWrites += o.regWrites;
}

UsageStats
collectUsageStats(const Kernel &k, const RunConfig &cfg)
{
    UsageStats stats;
    for (int w = 0; w < cfg.numWarps; w++) {
        WarpContext warp;
        warp.reset(static_cast<std::uint32_t>(w));

        struct LiveValue
        {
            bool valid = false;
            std::uint64_t defSeq = 0;
            std::uint64_t lastReadSeq = 0;
            std::uint64_t maxReadGap = 0;
            int reads = 0;
            bool sharedProducer = false;
            bool sharedConsumer = false;
        };
        std::array<LiveValue, kMaxRegs> live{};

        auto retire = [&](LiveValue &v) {
            if (!v.valid)
                return;
            stats.totalValues++;
            if (v.reads == 0) {
                stats.read0++;
            } else if (v.reads == 1) {
                stats.read1++;
                std::uint64_t life = v.lastReadSeq - v.defSeq;
                if (life <= 1)
                    stats.life1++;
                else if (life == 2)
                    stats.life2++;
                else if (life == 3)
                    stats.life3++;
                else
                    stats.lifeMore++;
            } else if (v.reads == 2) {
                stats.read2++;
            } else {
                stats.readMore++;
            }
            if (v.reads >= 2) {
                stats.multiReads++;
                // First "gap" is production to first read; bursts are
                // about the spacing BETWEEN reads, captured in
                // maxReadGap.
                if (v.maxReadGap <= 3)
                    stats.burstyMultiReads++;
            }
            if (v.sharedConsumer) {
                stats.sharedConsumed++;
                if (!v.sharedProducer)
                    stats.sharedConsumedPrivateProduced++;
            }
            v = LiveValue();
        };

        std::uint64_t seq = 0;
        while (!warp.done && seq < cfg.maxInstrsPerWarp) {
            const Instruction &in = k.instr(warp.pc(k));
            bool shared = isSharedUnit(in.unit());
            for (int s = 0; s < in.numSrcs; s++) {
                if (!in.srcs[s].isReg)
                    continue;
                LiveValue &v = live[in.srcs[s].reg];
                if (v.valid) {
                    if (v.reads > 0)
                        v.maxReadGap = std::max(v.maxReadGap,
                                                seq - v.lastReadSeq);
                    v.reads++;
                    v.lastReadSeq = seq;
                    v.sharedConsumer = v.sharedConsumer || shared;
                }
                stats.regReads++;
            }
            if (in.pred) {
                LiveValue &v = live[*in.pred];
                if (v.valid) {
                    if (v.reads > 0)
                        v.maxReadGap = std::max(v.maxReadGap,
                                                seq - v.lastReadSeq);
                    v.reads++;
                    v.lastReadSeq = seq;
                }
                stats.regReads++;
            }
            bool enabled = !in.pred || warp.regs[*in.pred] != 0;
            if (in.dst && enabled) {
                int n = in.wide ? 2 : 1;
                for (int h = 0; h < n; h++) {
                    LiveValue &v = live[*in.dst + h];
                    retire(v);
                    v.valid = true;
                    v.defSeq = seq;
                    v.reads = 0;
                    v.sharedProducer = shared;
                }
                stats.regWrites += n;
            }
            stats.instructions++;
            step(k, warp);
            seq++;
        }
        for (auto &v : live)
            retire(v);
    }
    return stats;
}

} // namespace rfh
