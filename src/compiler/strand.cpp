#include "compiler/strand.h"

#include <algorithm>
#include <map>

#include "ir/liveness.h"

namespace rfh {

StrandAnalysis::StrandAnalysis(const Kernel &k, const Cfg &cfg,
                               const StrandOptions &opts)
    : idealNoFlush_(opts.idealNoFlush)
{
    int nblocks = cfg.numBlocks();
    int ninstrs = k.numInstrs();

    // Cut positions: cutBefore[p] means a strand boundary immediately
    // before linear instruction p. reasonAt records why the strand that
    // ends at p-1 ended.
    std::vector<bool> cut_before(ninstrs + 1, false);
    std::map<int, StrandEndReason> reason_at;
    auto add_cut = [&](int pos, StrandEndReason why) {
        if (pos <= 0 || pos >= ninstrs)
            return;
        if (!cut_before[pos]) {
            cut_before[pos] = true;
            reason_at[pos] = why;
        }
    };

    // Pending long-latency destinations at the end of each block,
    // assuming the forward layout scan's cut placement. ∅ after a cut
    // (every endpoint synchronises outstanding long-latency ops).
    std::vector<RegSet> pending_out(nblocks);
    for (int b = 0; b < nblocks; b++) {
        int start = k.blockStart(b);
        int end = start + static_cast<int>(k.blocks[b].instrs.size()) - 1;

        if (cfg.isBackwardTarget(b) && !idealNoFlush_)
            add_cut(start, StrandEndReason::BACKWARD_TARGET);

        // Merge the pending state from layout-earlier predecessors. An
        // edge whose source lies before an existing cut contributes ∅
        // (the path synchronised at that cut).
        RegSet pending;
        if (!cut_before[start]) {
            bool first = true;
            bool differs = false;
            for (int p : cfg.preds(b)) {
                if (p >= b)
                    continue;  // backward edge; target already cut
                int pend_lin = k.blockStart(p) +
                    static_cast<int>(k.blocks[p].instrs.size()) - 1;
                RegSet contrib;
                bool synced = false;
                for (int c = pend_lin + 1; c <= start; c++) {
                    if (cut_before[c]) {
                        synced = true;
                        break;
                    }
                }
                if (!synced)
                    contrib = pending_out[p];
                if (first) {
                    pending = contrib;
                    first = false;
                } else if (contrib != pending) {
                    differs = true;
                    pending |= contrib;
                }
            }
            if (differs && opts.cutAtUncertainMerge) {
                add_cut(start, StrandEndReason::MERGE_UNCERTAIN);
                pending.reset();
            }
        }
        if (cut_before[start])
            pending.reset();

        for (int lin = start; lin <= end; lin++) {
            const Instruction &in = k.instr(lin);
            RegSet touched = usedRegs(in) | definedRegs(in);
            if ((touched & pending).any() && !idealNoFlush_) {
                add_cut(lin, StrandEndReason::LONG_LATENCY);
                pending.reset();
            }
            if (in.longLatency() && in.dst)
                pending |= definedRegs(in);
            if (in.op == Opcode::BRA && in.branchTarget <= b &&
                !idealNoFlush_) {
                add_cut(lin + 1, StrandEndReason::BACKWARD_BRANCH);
                pending.reset();
            }
        }
        pending_out[b] = pending;
    }
    // Build strands from cut positions.
    strandOf_.assign(ninstrs, 0);
    int first = 0;
    for (int pos = 1; pos <= ninstrs; pos++) {
        bool boundary = pos == ninstrs || cut_before[pos];
        if (!boundary)
            continue;
        Strand s;
        s.firstLin = first;
        s.lastLin = pos - 1;
        auto it = reason_at.find(pos);
        s.endReason = pos == ninstrs ? StrandEndReason::KERNEL_END
                                     : it->second;
        for (int lin = first; lin < pos; lin++)
            strandOf_[lin] = static_cast<int>(strands_.size());
        strands_.push_back(s);
        first = pos;
    }

}

void
StrandAnalysis::markEndOfStrand(Kernel &k) const
{
    for (const Strand &s : strands_)
        k.instr(s.lastLin).endOfStrand = true;
}

const StrandAnalysis &
strandsOf(const Kernel &k, const StrandOptions &opts, const Cfg *cfg,
          const StrandAnalysis *shared, std::optional<StrandAnalysis> &local)
{
    if (shared)
        return *shared;
    std::optional<Cfg> localCfg;
    return local.emplace(k, cfg ? *cfg : localCfg.emplace(k), opts);
}

} // namespace rfh
