#include "ir/liveness.h"

namespace rfh {

RegSet
usedRegs(const Instruction &instr)
{
    RegSet s;
    for (int i = 0; i < instr.numSrcs; i++)
        if (instr.srcs[i].isReg)
            s.set(instr.srcs[i].reg);
    if (instr.pred) {
        s.set(*instr.pred);
        // A predicated definition merges with the old value (inactive
        // threads keep it), so the destination is also a use.
        s |= definedRegs(instr);
    }
    return s;
}

RegSet
definedRegs(const Instruction &instr)
{
    RegSet s;
    if (instr.dst) {
        s.set(*instr.dst);
        if (instr.wide)
            s.set(*instr.dst + 1);
    }
    return s;
}

Liveness::Liveness(const Kernel &k, const Cfg &cfg)
{
    int n = cfg.numBlocks();
    liveIn_.assign(n, RegSet());
    liveOut_.assign(n, RegSet());

    // Per-block use (upward-exposed) and def sets.
    std::vector<RegSet> use(n), def(n);
    for (int b = 0; b < n; b++) {
        for (const auto &in : k.blocks[b].instrs) {
            use[b] |= usedRegs(in) & ~def[b];
            def[b] |= definedRegs(in);
        }
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = n - 1; b >= 0; b--) {
            RegSet out;
            for (int s : cfg.succs(b))
                out |= liveIn_[s];
            RegSet in = use[b] | (out & ~def[b]);
            if (out != liveOut_[b] || in != liveIn_[b]) {
                liveOut_[b] = out;
                liveIn_[b] = in;
                changed = true;
            }
        }
    }

    // Per-instruction live-after, by walking each block backwards.
    liveAfter_.assign(k.numInstrs(), RegSet());
    for (int b = 0; b < n; b++) {
        RegSet cur = liveOut_[b];
        const auto &instrs = k.blocks[b].instrs;
        for (int i = static_cast<int>(instrs.size()) - 1; i >= 0; i--) {
            int lin = k.blockStart(b) + i;
            liveAfter_[lin] = cur;
            cur &= ~definedRegs(instrs[i]);
            cur |= usedRegs(instrs[i]);
        }
    }
}

} // namespace rfh
