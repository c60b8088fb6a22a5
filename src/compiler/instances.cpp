#include "compiler/instances.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>

#include "ir/liveness.h"

namespace rfh {

namespace {

/** Per-register dataflow state of the intra-strand scan. */
struct RegState
{
    /** In-strand defs (local indices) that may reach this point. */
    std::vector<int> defs;
    /** A strand entry point may reach this point (value in MRF). */
    bool boundary = true;
    /**
     * Anchor of a read-operand deposit that is guaranteed to have
     * executed on every path to this point (Section 4.4), or -1.
     */
    int anchor = -1;
};

using StrandState = std::array<RegState, kMaxRegs>;

void
mergeInto(StrandState &into, const StrandState &from)
{
    for (int r = 0; r < kMaxRegs; r++) {
        RegState &a = into[r];
        const RegState &b = from[r];
        std::vector<int> merged;
        std::set_union(a.defs.begin(), a.defs.end(), b.defs.begin(),
                       b.defs.end(), std::back_inserter(merged));
        a.defs = std::move(merged);
        a.boundary = a.boundary || b.boundary;
        if (a.anchor != b.anchor)
            a.anchor = -1;
    }
}

StrandState
allBoundary()
{
    return StrandState{};
}

/** Union-find over local defs. */
class UnionFind
{
  public:
    explicit UnionFind(int n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int
    find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    merge(int a, int b)
    {
        parent_[find(a)] = find(b);
    }

  private:
    std::vector<int> parent_;
};

struct LocalDef
{
    int lin;
    Reg reg;
    bool wideHalf;   ///< Part of a wide (64-bit) definition.
    Reg wideBase;    ///< Base register of the wide pair.
};

} // namespace

InstanceAnalysis::InstanceAnalysis(const Kernel &k, const Cfg &cfg,
                                   const StrandAnalysis &strands,
                                   const ReachingDefs &global,
                                   bool allow_long_latency_upper)
{
    int nblocks = cfg.numBlocks();

    for (int s = 0; s < strands.numStrands(); s++) {
        const Strand &st = strands.strand(s);

        // ---- Collect local defs of this strand ----
        // Defs are appended in lin order, so a (lin, reg) key resolves
        // to def_start[lin - firstLin] plus the register's half index —
        // no associative lookup on the scan path.
        const int strandLen = st.lastLin - st.firstLin + 1;
        std::vector<LocalDef> defs;
        defs.reserve(static_cast<std::size_t>(strandLen));
        std::vector<int> def_start(
            static_cast<std::size_t>(strandLen), -1);
        for (int lin = st.firstLin; lin <= st.lastLin; lin++) {
            const Instruction &in = k.instr(lin);
            if (!in.dst)
                continue;
            Reg base = *in.dst;
            int n = in.wide ? 2 : 1;
            def_start[lin - st.firstLin] =
                static_cast<int>(defs.size());
            for (int w = 0; w < n; w++) {
                Reg r = static_cast<Reg>(base + w);
                defs.push_back({lin, r, in.wide, base});
            }
        }
        UnionFind uf(static_cast<int>(defs.size()));
        // The halves of a wide def always form one instance.
        for (size_t d = 0; d + 1 < defs.size(); d++) {
            if (defs[d].wideHalf && defs[d + 1].wideHalf &&
                defs[d].lin == defs[d + 1].lin)
                uf.merge(static_cast<int>(d), static_cast<int>(d + 1));
        }

        // Per-def use records, filled by the scan.
        struct DefUses
        {
            std::vector<InstanceUse> servable;
            std::vector<InstanceUse> pinned;
        };
        std::vector<DefUses> def_uses(defs.size());

        // Read instances keyed by (anchor lin, reg): a dense
        // slot table maps the key to its entry, entries are emitted
        // in sorted key order below.
        using ReadEntry =
            std::pair<std::pair<int, Reg>, std::vector<InstanceUse>>;
        std::vector<ReadEntry> read_inst;
        std::vector<int> read_slot(
            static_cast<std::size_t>(strandLen) * kMaxRegs, -1);

        // ---- Intra-strand forward scan ----
        // State saved at the end of each block whose last instruction
        // belongs to this strand.
        std::vector<StrandState> state_out(
            static_cast<std::size_t>(nblocks));
        std::vector<char> state_present(
            static_cast<std::size_t>(nblocks), 0);

        for (int b = 0; b < nblocks; b++) {
            int bstart = k.blockStart(b);
            int bend = bstart +
                static_cast<int>(k.blocks[b].instrs.size()) - 1;
            int lo = std::max(bstart, st.firstLin);
            int hi = std::min(bend, st.lastLin);
            if (lo > hi)
                continue;

            StrandState state;
            if (lo == bstart) {
                // Merge layout-earlier predecessors that end in this
                // strand; everything else contributes "in the MRF".
                bool have = false;
                bool outside = false;
                for (int p : cfg.preds(b)) {
                    int pend = k.blockStart(p) +
                        static_cast<int>(k.blocks[p].instrs.size()) - 1;
                    if (p < b && strands.strandOf(pend) == s &&
                        state_present[p]) {
                        if (!have) {
                            state = state_out[p];
                            have = true;
                        } else {
                            mergeInto(state, state_out[p]);
                        }
                    } else {
                        outside = true;
                    }
                }
                if (!have)
                    state = allBoundary();
                else if (outside)
                    mergeInto(state, allBoundary());
            } else {
                // Strand starts mid-block: fresh entry point.
                state = allBoundary();
            }

            for (int lin = lo; lin <= hi; lin++) {
                const Instruction &in = k.instr(lin);
                bool shared_consumer = isSharedUnit(in.unit());

                auto on_use = [&](Reg r, int slot) {
                    RegState &rs = state[r];
                    InstanceUse use{lin, slot, shared_consumer};
                    if (rs.defs.empty() && rs.boundary) {
                        // Pure boundary read: read-operand candidate.
                        if (rs.anchor < 0)
                            rs.anchor = lin;
                        int &slot = read_slot
                            [(rs.anchor - st.firstLin) * kMaxRegs + r];
                        if (slot < 0) {
                            slot = static_cast<int>(read_inst.size());
                            read_inst.emplace_back(
                                std::make_pair(rs.anchor, r),
                                std::vector<InstanceUse>());
                        }
                        read_inst[slot].second.push_back(use);
                    } else if (!rs.boundary) {
                        if (rs.defs.size() == 1) {
                            def_uses[rs.defs[0]].servable.push_back(use);
                        } else {
                            // Hammock merge (Figure 10(c)): group defs.
                            for (size_t i = 1; i < rs.defs.size(); i++)
                                uf.merge(rs.defs[0], rs.defs[i]);
                            def_uses[rs.defs[0]].servable.push_back(use);
                        }
                    } else {
                        // Mixed in-strand defs and boundary
                        // (Figure 10(a)): the read is pinned to the MRF
                        // and the defs must keep the MRF up to date.
                        for (int d : rs.defs)
                            def_uses[d].pinned.push_back(use);
                    }
                };

                for (int sl = 0; sl < in.numSrcs; sl++)
                    if (in.srcs[sl].isReg)
                        on_use(in.srcs[sl].reg, sl);
                if (in.pred)
                    on_use(*in.pred, kPredSlot);

                if (in.dst) {
                    int n = in.wide ? 2 : 1;
                    bool kills = !in.pred.has_value();
                    for (int w = 0; w < n; w++) {
                        Reg r = static_cast<Reg>(*in.dst + w);
                        RegState &rs = state[r];
                        int local = def_start[lin - st.firstLin] + w;
                        if (kills) {
                            rs.defs = {local};
                            rs.boundary = false;
                        } else {
                            // Predicated definition: merges with the
                            // old value (a one-instruction hammock).
                            if (std::find(rs.defs.begin(),
                                          rs.defs.end(), local) ==
                                rs.defs.end()) {
                                rs.defs.push_back(local);
                                std::sort(rs.defs.begin(),
                                          rs.defs.end());
                            }
                        }
                        rs.anchor = -1;
                    }
                }
            }

            if (hi == bend) {
                state_out[b] = std::move(state);
                state_present[b] = 1;
            }
        }

        // ---- Fold local defs into grouped value instances ----
        // Group roots are local def ids, so a defs-sized vector
        // indexed by root reproduces the old map's ascending-root
        // emission order; empty slots are non-roots.
        std::vector<std::vector<int>> groups(defs.size());
        for (int d = 0; d < static_cast<int>(defs.size()); d++)
            groups[uf.find(d)].push_back(d);

        for (auto &members : groups) {
            if (members.empty())
                continue;
            ValueInstance vi;
            vi.strand = s;
            vi.reg = defs[members.front()].reg;
            bool wide = defs[members.front()].wideHalf;
            const Reg base = defs[members.front()].wideBase;
            bool mixed_wide = false;
            for (int d : members) {
                // Two wide pairs with different bases (R9:R10 and
                // R10:R11) cannot share one base register either.
                if (defs[d].wideHalf != wide ||
                    (defs[d].wideHalf && defs[d].wideBase != base))
                    mixed_wide = true;
                if (defs[d].wideHalf)
                    vi.reg = defs[d].wideBase;
            }
            vi.wide = wide;
            for (int d : members) {
                if (std::find(vi.defLins.begin(), vi.defLins.end(),
                              defs[d].lin) == vi.defLins.end())
                    vi.defLins.push_back(defs[d].lin);
                for (const auto &u : def_uses[d].servable)
                    vi.uses.push_back(u);
                for (const auto &u : def_uses[d].pinned)
                    vi.mrfPinnedUses.push_back(u);
            }
            std::sort(vi.defLins.begin(), vi.defLins.end());
            auto by_pos = [](const InstanceUse &a, const InstanceUse &b) {
                return std::tie(a.lin, a.slot) < std::tie(b.lin, b.slot);
            };
            std::sort(vi.uses.begin(), vi.uses.end(), by_pos);
            vi.uses.erase(std::unique(vi.uses.begin(), vi.uses.end(),
                                      [](const InstanceUse &a,
                                         const InstanceUse &b) {
                                          return a.lin == b.lin &&
                                              a.slot == b.slot;
                                      }),
                          vi.uses.end());
            std::sort(vi.mrfPinnedUses.begin(), vi.mrfPinnedUses.end(),
                      by_pos);

            // A group that mixes wide and narrow defs, or wide pairs
            // with different bases, is never allocated upper levels:
            // pin all its reads to the MRF.
            if (mixed_wide) {
                for (const auto &u : vi.uses)
                    vi.mrfPinnedUses.push_back(u);
                vi.uses.clear();
            }

            // Long-latency producers deliver their result after the
            // strand has been descheduled; they always write the MRF.
            for (int dl : vi.defLins) {
                const Instruction &din = k.instr(dl);
                if (din.longLatency() && !allow_long_latency_upper) {
                    for (const auto &u : vi.uses)
                        vi.mrfPinnedUses.push_back(u);
                    vi.uses.clear();
                    vi.liveOut = true;
                }
                if (isSharedUnit(din.unit()))
                    vi.sharedProducer = true;
            }

            // Live out: any global use not accounted as an in-strand
            // servable or pinned use.
            auto counted = [&](int lin, int slot) {
                for (const auto &u : vi.uses)
                    if (u.lin == lin && u.slot == slot)
                        return true;
                for (const auto &u : vi.mrfPinnedUses)
                    if (u.lin == lin && u.slot == slot)
                        return true;
                return false;
            };
            for (int d : members) {
                // Map the local def to its global def id.
                for (DefId g : global.defsAt(defs[d].lin)) {
                    if (global.defReg(g) != defs[d].reg)
                        continue;
                    for (const UseSite &u : global.uses(g))
                        if (!counted(u.lin, u.slot))
                            vi.liveOut = true;
                }
            }
            values_.push_back(std::move(vi));
        }

        // ---- Read instances ----
        // Entries were appended in first-touch order; sort by key to
        // match the old map's ascending (anchor, reg) emission.
        std::sort(read_inst.begin(), read_inst.end(),
                  [](const ReadEntry &a, const ReadEntry &b) {
                      return a.first < b.first;
                  });
        for (auto &[key, uses] : read_inst) {
            ReadInstance ri;
            ri.strand = s;
            ri.reg = key.second;
            ri.uses = std::move(uses);
            std::sort(ri.uses.begin(), ri.uses.end(),
                      [](const InstanceUse &a, const InstanceUse &b) {
                          return std::tie(a.lin, a.slot) <
                              std::tie(b.lin, b.slot);
                      });
            reads_.push_back(std::move(ri));
        }
    }
}

} // namespace rfh
