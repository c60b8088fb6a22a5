#include "compiler/instances.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>

#include "ir/liveness.h"

namespace rfh {

namespace {

/**
 * Interned sets of local defs. A set is an int handle: kNoDefs for the
 * empty set, d >= 0 for the singleton {d}, and -2 - i for the i-th
 * multi-def set of the pool, stored ascending. The scan meets almost
 * only empty sets and singletons, so its per-register state stays a
 * few plain ints; only hammock merges and predicated definitions add
 * pool sets.
 */
class DefSets
{
  public:
    static constexpr int kNoDefs = -1;

    /** @return the members of @p h, ascending (valid while @p h is). */
    std::span<const int>
    members(const int &h) const
    {
        if (h == kNoDefs)
            return {};
        if (h >= 0)
            return {&h, 1};
        return pool_[static_cast<std::size_t>(-2 - h)];
    }

    /** @return the handle of @p a united with @p b. */
    int
    unite(int a, int b)
    {
        if (a == b || b == kNoDefs)
            return a;
        if (a == kNoDefs)
            return b;
        std::span<const int> x = members(a);
        std::span<const int> y = members(b);
        std::vector<int> u;
        u.reserve(x.size() + y.size());
        std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                       std::back_inserter(u));
        if (u.size() == x.size())
            return a;
        if (u.size() == y.size())
            return b;
        pool_.push_back(std::move(u));
        return -2 - static_cast<int>(pool_.size() - 1);
    }

  private:
    std::vector<std::vector<int>> pool_;
};

/** Per-register dataflow state of the intra-strand scan. */
struct RegState
{
    /** In-strand defs (local indices) that may reach this point. */
    int defs = DefSets::kNoDefs;
    /** A strand entry point may reach this point (value in MRF). */
    bool boundary = true;
    /**
     * Anchor of a read-operand deposit that is guaranteed to have
     * executed on every path to this point (Section 4.4), or -1.
     */
    int anchor = -1;
};

/** Merge the @p n register states at @p from into @p into. */
void
mergeInto(RegState *into, const RegState *from, int n, DefSets &sets)
{
    for (int r = 0; r < n; r++) {
        RegState &a = into[r];
        const RegState &b = from[r];
        a.defs = sets.unite(a.defs, b.defs);
        a.boundary = a.boundary || b.boundary;
        if (a.anchor != b.anchor)
            a.anchor = -1;
    }
}

/** Union-find over local defs. */
class UnionFind
{
  public:
    /** Start over with @p n singleton sets. */
    void
    reset(int n)
    {
        parent_.resize(static_cast<std::size_t>(n));
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

/** One in-strand read, tagged with the instance it belongs to. */
struct TaggedUse
{
    int tag;
    InstanceUse use;
};

using TaggedUses = std::vector<TaggedUse>;

/** Sort @p uses by (group(tag), lin, slot). */
template <class Group>
void
sortTagged(TaggedUses &uses, Group group)
{
    std::sort(uses.begin(), uses.end(),
              [&](const TaggedUse &a, const TaggedUse &b) {
                  return std::tuple(group(a.tag), a.use.lin, a.use.slot) <
                      std::tuple(group(b.tag), b.use.lin, b.use.slot);
              });
}

/**
 * @return the end of the run at @p at, in a sortTagged vector ending
 * at @p end, whose group(tag) is @p g.
 */
template <class Group>
TaggedUses::const_iterator
runEnd(TaggedUses::const_iterator at, TaggedUses::const_iterator end,
       Group group, int g)
{
    while (at != end && group(at->tag) == g)
        ++at;
    return at;
}

/**
 * Append the uses of the run [@p first, @p last) to @p out; with
 * @p distinct, a use repeating its predecessor's (lin, slot) (one read
 * reached by several defs of a group) is appended once.
 */
void
appendUses(std::vector<InstanceUse> &out, TaggedUses::const_iterator first,
           TaggedUses::const_iterator last, bool distinct)
{
    for (auto it = first; it != last; ++it)
        if (!distinct || it == first || it->use.lin != (it - 1)->use.lin ||
            it->use.slot != (it - 1)->use.slot)
            out.push_back(it->use);
}

} // namespace

InstanceAnalysis::InstanceAnalysis(const Kernel &k, const Cfg &cfg,
                                   const StrandAnalysis &strands,
                                   const ReachingDefs &global,
                                   bool allow_long_latency_upper)
{
    // Scan state covers registers up to the highest the kernel names.
    const int nregs = k.numRegs();
    // Each value instance holds at least one defining instruction.
    std::size_t def_instrs = 0;
    for (int lin = 0; lin < k.numInstrs(); lin++)
        def_instrs += k.instr(lin).dst.has_value();
    values_.reserve(def_instrs);
    DefSets sets;
    // Scan state saved at the end of each block (nregs entries per
    // block). A block ends in exactly one strand and only that
    // strand's later blocks read it, so one table serves every strand.
    std::vector<RegState> state_out(
        static_cast<std::size_t>(cfg.numBlocks()) * nregs);
    std::vector<RegState> state(static_cast<std::size_t>(nregs));
    auto out_of = [&](int b) {
        return state_out.data() + static_cast<std::size_t>(b) * nregs;
    };

    // Per-strand working sets, reused across strands. Local defs are
    // numbered per strand; def_start[lin] is the first local def of
    // instruction lin. Use records are tagged with their local def
    // (servable, pinned) or with their read instance's (anchor lin,
    // reg) key as anchor * kMaxRegs + reg (read_uses).
    std::vector<LocalDef> defs;
    std::vector<int> def_start(static_cast<std::size_t>(k.numInstrs()));
    UnionFind uf;
    TaggedUses servable, pinned, read_uses;
    std::vector<int> root, order;

    for (int s = 0; s < strands.numStrands(); s++) {
        const Strand &st = strands.strand(s);

        // ---- Collect local defs of this strand ----
        // Defs are appended in lin order, so a (lin, reg) key resolves
        // to def_start[lin] plus the register's half index — no
        // associative lookup on the scan path.
        defs.clear();
        for (int lin = st.firstLin; lin <= st.lastLin; lin++) {
            const Instruction &in = k.instr(lin);
            if (!in.dst)
                continue;
            Reg base = *in.dst;
            int n = in.wide ? 2 : 1;
            def_start[lin] = static_cast<int>(defs.size());
            for (int w = 0; w < n; w++) {
                Reg r = static_cast<Reg>(base + w);
                defs.push_back({lin, r, in.wide, base});
            }
        }
        uf.reset(static_cast<int>(defs.size()));
        // The halves of a wide def always form one instance.
        for (size_t d = 0; d + 1 < defs.size(); d++) {
            if (defs[d].wideHalf && defs[d + 1].wideHalf &&
                defs[d].lin == defs[d + 1].lin)
                uf.merge(static_cast<int>(d), static_cast<int>(d + 1));
        }
        servable.clear();
        pinned.clear();
        read_uses.clear();

        // ---- Intra-strand forward scan ----
        for (int b = k.ref(st.firstLin).block;
             b <= k.ref(st.lastLin).block; b++) {
            int bstart = k.blockStart(b);
            int bend = bstart +
                static_cast<int>(k.blocks[b].instrs.size()) - 1;
            int lo = std::max(bstart, st.firstLin);
            int hi = std::min(bend, st.lastLin);
            if (lo > hi)
                continue;

            // Merge layout-earlier predecessors that end in this
            // strand; everything else, and a strand starting mid-block,
            // contributes "in the MRF".
            bool have = false;
            bool outside = lo != bstart;
            if (lo == bstart) {
                for (int p : cfg.preds(b)) {
                    int pend = k.blockStart(p) +
                        static_cast<int>(k.blocks[p].instrs.size()) - 1;
                    if (p < b && strands.strandOf(pend) == s) {
                        if (!have)
                            std::copy_n(out_of(p), nregs, state.data());
                        else
                            mergeInto(state.data(), out_of(p), nregs,
                                      sets);
                        have = true;
                    } else {
                        outside = true;
                    }
                }
            }
            if (!have) {
                std::fill(state.begin(), state.end(), RegState{});
            } else if (outside) {
                for (RegState &a : state) {
                    a.boundary = true;
                    a.anchor = -1;
                }
            }

            for (int lin = lo; lin <= hi; lin++) {
                const Instruction &in = k.instr(lin);
                bool shared_consumer = isSharedUnit(in.unit());

                auto on_use = [&](Reg r, int slot) {
                    RegState &rs = state[r];
                    InstanceUse use{lin, slot, shared_consumer};
                    std::span<const int> reaching = sets.members(rs.defs);
                    if (reaching.empty() && rs.boundary) {
                        // Pure boundary read: read-operand candidate.
                        if (rs.anchor < 0)
                            rs.anchor = lin;
                        read_uses.push_back(
                            {rs.anchor * kMaxRegs + r, use});
                    } else if (!rs.boundary) {
                        // A hammock merge (Figure 10(c)) groups the
                        // reaching defs into one instance.
                        for (size_t i = 1; i < reaching.size(); i++)
                            uf.merge(reaching[0], reaching[i]);
                        servable.push_back({reaching[0], use});
                    } else {
                        // Mixed in-strand defs and boundary
                        // (Figure 10(a)): the read is pinned to the MRF
                        // and the defs must keep the MRF up to date.
                        for (int d : reaching)
                            pinned.push_back({d, use});
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
                        int local = def_start[lin] + w;
                        if (kills) {
                            rs.defs = local;
                            rs.boundary = false;
                        } else {
                            // Predicated definition: merges with the
                            // old value (a one-instruction hammock).
                            rs.defs = sets.unite(rs.defs, local);
                        }
                        rs.anchor = -1;
                    }
                }
            }

            if (hi == bend)
                std::copy_n(state.data(), nregs, out_of(b));
        }

        // ---- Fold local defs into grouped value instances ----
        // Groups are emitted by ascending root (a local def id), each
        // with its members ascending; sorting the use records by root
        // makes each group's uses one contiguous (lin, slot)-sorted run.
        root.resize(defs.size());
        order.resize(defs.size());
        for (int d = 0; d < static_cast<int>(defs.size()); d++)
            root[d] = uf.find(d);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            return std::pair(root[a], a) < std::pair(root[b], b);
        });
        auto by_root = [&](int d) { return root[d]; };
        sortTagged(servable, by_root);
        sortTagged(pinned, by_root);
        auto servable_at = servable.cbegin();
        auto pinned_at = pinned.cbegin();

        for (std::size_t gi = 0; gi < order.size();) {
            const int g = root[order[gi]];
            std::size_t ge = gi;
            while (ge < order.size() && root[order[ge]] == g)
                ge++;
            std::span<const int> members(order.data() + gi, ge - gi);
            gi = ge;

            ValueInstance &vi = values_.emplace_back();
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
                // Members ascend, so their lins do too; the halves of
                // a wide def share one.
                if (vi.defLins.empty() || vi.defLins.back() != defs[d].lin)
                    vi.defLins.push_back(defs[d].lin);
            }
            vi.wide = wide;
            vi.defLins.shrink_to_fit();

            // Long-latency producers deliver their result after the
            // strand has been descheduled; they always write the MRF.
            bool long_latency = false;
            for (int dl : vi.defLins) {
                const Instruction &din = k.instr(dl);
                long_latency |= din.longLatency();
                if (isSharedUnit(din.unit()))
                    vi.sharedProducer = true;
            }
            const bool mrf_result =
                long_latency && !allow_long_latency_upper;
            vi.liveOut = mrf_result;

            // The servable reads follow the pinned ones into the MRF
            // for a long-latency producer and for a group that mixes
            // wide and narrow defs, or wide pairs with different bases:
            // those are never allocated upper levels.
            const bool pin_all = mrf_result || mixed_wide;
            auto servable_end =
                runEnd(servable_at, servable.cend(), by_root, g);
            auto pinned_end = runEnd(pinned_at, pinned.cend(), by_root, g);
            vi.mrfPinnedUses.reserve(static_cast<std::size_t>(
                (pinned_end - pinned_at) +
                (pin_all ? servable_end - servable_at : 0)));
            appendUses(vi.mrfPinnedUses, pinned_at, pinned_end, false);
            std::vector<InstanceUse> &servable_to =
                pin_all ? vi.mrfPinnedUses : vi.uses;
            servable_to.reserve(servable_to.size() +
                                static_cast<std::size_t>(servable_end -
                                                         servable_at));
            appendUses(servable_to, servable_at, servable_end, true);
            servable_at = servable_end;
            pinned_at = pinned_end;

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
                for (DefId gd : global.defsAt(defs[d].lin)) {
                    if (global.defReg(gd) != defs[d].reg)
                        continue;
                    for (const UseSite &u : global.uses(gd))
                        if (!counted(u.lin, u.slot))
                            vi.liveOut = true;
                }
            }
        }

        // ---- Read instances ----
        // One per (anchor, reg) key, in ascending key order.
        auto by_key = [](int key) { return key; };
        sortTagged(read_uses, by_key);
        for (auto at = read_uses.cbegin(); at != read_uses.cend();) {
            const int key = at->tag;
            ReadInstance &ri = reads_.emplace_back();
            ri.strand = s;
            ri.reg = static_cast<Reg>(key % kMaxRegs);
            auto run_end = runEnd(at, read_uses.cend(), by_key, key);
            ri.uses.reserve(static_cast<std::size_t>(run_end - at));
            appendUses(ri.uses, at, run_end, false);
            at = run_end;
        }
    }
    values_.shrink_to_fit();
    reads_.shrink_to_fit();
}

} // namespace rfh
