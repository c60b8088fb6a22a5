#include "ir/reaching_defs.h"

#include <algorithm>
#include <array>

#include "ir/liveness.h"

namespace rfh {

namespace {

using DefSet = std::vector<DefId>;

void
setUnion(DefSet &into, const DefSet &from)
{
    DefSet merged;
    merged.reserve(into.size() + from.size());
    std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                   std::back_inserter(merged));
    into = std::move(merged);
}

} // namespace

int
ReachingDefs::slotIndex(int lin, int slot) const
{
    (void)lin;
    return slot == kPredSlot ? kMaxSrcs : slot;
}

const std::vector<DefId> &
ReachingDefs::reachingDefs(int lin, int slot) const
{
    return useDefs_[lin][slotIndex(lin, slot)];
}

ReachingDefs::ReachingDefs(const Kernel &k, const Cfg &cfg)
{
    int nblocks = cfg.numBlocks();
    int ninstrs = k.numInstrs();

    // Boundary defs occupy ids [0, kMaxRegs).
    defLin_.assign(kMaxRegs, -1);
    defReg_.resize(kMaxRegs);
    for (int r = 0; r < kMaxRegs; r++)
        defReg_[r] = static_cast<Reg>(r);

    defsAt_.assign(ninstrs, {});
    for (int lin = 0; lin < ninstrs; lin++) {
        const Instruction &in = k.instr(lin);
        RegSet defs = definedRegs(in);
        for (int r = 0; r < kMaxRegs; r++) {
            if (defs.test(r)) {
                defsAt_[lin].push_back(static_cast<DefId>(defLin_.size()));
                defLin_.push_back(lin);
                defReg_.push_back(static_cast<Reg>(r));
            }
        }
    }

    // Per-block gen sets and kill flags. An unpredicated definition
    // kills everything before it; a predicated definition only merges
    // (inactive threads keep the old value), so it generates without
    // killing.
    std::vector<std::array<DefSet, kMaxRegs>> gen(nblocks);
    std::vector<std::array<bool, kMaxRegs>> kill(
        nblocks, [] {
            std::array<bool, kMaxRegs> a{};
            return a;
        }());
    for (int b = 0; b < nblocks; b++) {
        for (int i = 0; i < static_cast<int>(k.blocks[b].instrs.size());
             i++) {
            int lin = k.blockStart(b) + i;
            const Instruction &instr = k.instr(lin);
            bool kills = !instr.pred.has_value();
            for (DefId d : defsAt_[lin]) {
                Reg r = defReg_[d];
                if (kills) {
                    gen[b][r] = {d};
                    kill[b][r] = true;
                } else {
                    DefSet one = {d};
                    setUnion(gen[b][r], one);
                }
            }
        }
    }

    // Iterative forward dataflow: in/out are per-reg def sets.
    std::vector<std::array<DefSet, kMaxRegs>> in(nblocks), out(nblocks);
    for (int r = 0; r < kMaxRegs; r++)
        in[0][r] = {r};  // boundary defs reach the entry
    auto computeOut = [&](int b) {
        bool changed = false;
        for (int r = 0; r < kMaxRegs; r++) {
            DefSet next = gen[b][r];
            if (!kill[b][r])
                setUnion(next, in[b][r]);
            if (next != out[b][r]) {
                out[b][r] = std::move(next);
                changed = true;
            }
        }
        return changed;
    };
    for (int b = 0; b < nblocks; b++)
        computeOut(b);
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : cfg.reversePostOrder()) {
            std::array<DefSet, kMaxRegs> merged;
            if (b == 0)
                for (int r = 0; r < kMaxRegs; r++)
                    merged[r] = {r};
            for (int p : cfg.preds(b))
                for (int r = 0; r < kMaxRegs; r++)
                    setUnion(merged[r], out[p][r]);
            for (int r = 0; r < kMaxRegs; r++) {
                if (merged[r] != in[b][r]) {
                    in[b][r] = std::move(merged[r]);
                    changed = true;
                }
            }
            if (computeOut(b))
                changed = true;
        }
    }

    // Walk each block to bind uses to reaching defs.
    uses_.assign(defLin_.size(), {});
    useDefs_.assign(ninstrs,
                    std::vector<std::vector<DefId>>(kMaxSrcs + 1));
    for (int b = 0; b < nblocks; b++) {
        std::array<DefSet, kMaxRegs> cur = in[b];
        for (int i = 0; i < static_cast<int>(k.blocks[b].instrs.size());
             i++) {
            int lin = k.blockStart(b) + i;
            const Instruction &instr = k.instr(lin);
            auto record = [&](Reg r, int slot) {
                useDefs_[lin][slotIndex(lin, slot)] = cur[r];
                for (DefId d : cur[r])
                    uses_[d].push_back(UseSite{lin, slot});
            };
            for (int s = 0; s < instr.numSrcs; s++)
                if (instr.srcs[s].isReg)
                    record(instr.srcs[s].reg, s);
            if (instr.pred)
                record(*instr.pred, kPredSlot);
            bool kills = !instr.pred.has_value() ||
                instr.op == Opcode::BRA;
            for (DefId d : defsAt_[lin]) {
                if (kills) {
                    cur[defReg_[d]] = {d};
                } else {
                    DefSet one = {d};
                    setUnion(cur[defReg_[d]], one);
                }
            }
        }
    }
}

} // namespace rfh
