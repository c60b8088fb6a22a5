#include "ir/cfg_analysis.h"

#include <algorithm>
#include <functional>

namespace rfh {

Cfg::Cfg(const Kernel &k)
{
    int n = static_cast<int>(k.blocks.size());
    succs_.resize(n);
    preds_.resize(n);
    reachable_.assign(n, false);
    backwardSource_.assign(n, false);
    backwardTarget_.assign(n, false);

    for (int b = 0; b < n; b++) {
        succs_[b] = k.successors(b);
        for (int s : succs_[b])
            preds_[s].push_back(b);
        if (!k.blocks[b].instrs.empty()) {
            const Instruction &last = k.blocks[b].instrs.back();
            if (last.op == Opcode::BRA && last.branchTarget <= b) {
                backwardSource_[b] = true;
                backwardTarget_[last.branchTarget] = true;
            }
        }
    }

    // DFS for reachability and post order.
    std::vector<int> post;
    std::vector<bool> visited(n, false);
    std::function<void(int)> dfs = [&](int b) {
        visited[b] = true;
        reachable_[b] = true;
        for (int s : succs_[b])
            if (!visited[s])
                dfs(s);
        post.push_back(b);
    };
    if (n > 0)
        dfs(0);
    rpo_.assign(post.rbegin(), post.rend());

    computePostDominators(k);
}

void
Cfg::computePostDominators(const Kernel &k)
{
    (void)k;
    int n = numBlocks();
    // Iterative post-dominator sets over a virtual exit: pdom(b) is
    // the intersection over successors, plus b itself; exit blocks
    // (no successors) post-dominate only themselves.
    std::vector<std::vector<bool>> pdom(
        n, std::vector<bool>(n, true));
    for (int b = 0; b < n; b++) {
        if (succs_[b].empty()) {
            std::fill(pdom[b].begin(), pdom[b].end(), false);
            pdom[b][b] = true;
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b = n - 1; b >= 0; b--) {
            if (succs_[b].empty())
                continue;
            std::vector<bool> next(n, true);
            for (int s : succs_[b])
                for (int x = 0; x < n; x++)
                    next[x] = next[x] && pdom[s][x];
            next[b] = true;
            if (next != pdom[b]) {
                pdom[b] = std::move(next);
                changed = true;
            }
        }
    }
    // Immediate post-dominator: the strict post-dominator that is
    // post-dominated by every other strict post-dominator. With
    // layout-ordered CFGs it is the smallest-index strict pdom that
    // all other strict pdoms contain... compute directly.
    ipdom_.assign(n, -1);
    for (int b = 0; b < n; b++) {
        for (int c = 0; c < n; c++) {
            if (c == b || !pdom[b][c])
                continue;
            // c strictly post-dominates b; it is the immediate
            // (closest) one iff every other strict post-dominator d of
            // b also post-dominates c.
            bool immediate = true;
            for (int d = 0; d < n && immediate; d++) {
                if (d == b || d == c || !pdom[b][d])
                    continue;
                if (!pdom[c][d])
                    immediate = false;
            }
            if (immediate) {
                ipdom_[b] = c;
                break;
            }
        }
    }
}

} // namespace rfh
