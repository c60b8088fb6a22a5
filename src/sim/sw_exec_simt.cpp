#include "sim/sw_exec_simt.h"

#include <sstream>
#include <vector>

#include "compiler/strand.h"
#include "ir/liveness.h"
#include "sim/simt.h"

namespace rfh {

namespace {

struct LaneSlot
{
    bool valid = false;
    Reg reg = 0;
    std::uint32_t value = 0;
};

/** Per-lane upper-level state. */
struct LaneState
{
    std::vector<LaneSlot> orf;
    std::vector<LaneSlot> lrf;
    std::array<std::uint32_t, kMaxRegs> mrf{};
    int lastActiveLin = -1;

    void
    invalidate()
    {
        for (auto &s : orf)
            s.valid = false;
        for (auto &s : lrf)
            s.valid = false;
    }
};

} // namespace

SwExecResult
runSwHierarchySimt(const Kernel &k, const AllocOptions &opts,
                   const SimtExecConfig &cfg)
{
    SwExecResult result;
    AccessCounts &counts = result.counts;
    int lrf_banks = opts.useLRF ? (opts.splitLRF ? 3 : 1) : 0;
    const bool ideal = opts.strandOptions.idealNoFlush;

    Cfg cfg_graph(k);
    StrandAnalysis strands(k, cfg_graph, opts.strandOptions);

    auto fail = [&](int lin, int lane, const std::string &msg) {
        std::ostringstream os;
        os << k.name << " @lin " << lin << " lane " << lane << ": "
           << msg;
        result.error = os.str();
    };

    // Per-instruction scratch, hoisted out of the hot loop so each
    // dynamic instruction costs a clear(), not heap allocations.
    struct Deposit { int entry; Reg reg; };
    std::vector<Deposit> deposits;
    deposits.reserve(kMaxSrcs + 1);
    std::vector<bool> was_enabled(cfg.width);

    for (int w = 0; w < cfg.numWarps && result.ok(); w++) {
        SimtWarp warp(k, cfg_graph, static_cast<std::uint32_t>(w),
                      cfg.width);
        std::vector<LaneState> lanes(cfg.width);
        for (auto &ls : lanes) {
            ls.orf.resize(opts.orfEntries);
            ls.lrf.resize(lrf_banks);
        }
        // The MRF shadow starts as the seeded register file.
        for (int l = 0; l < cfg.width; l++)
            lanes[l].mrf = warp.laneRegsNow(l);
        RegSet pending;
        int prev_lin = -1;
        bool prev_taken_backward = false;

        std::uint64_t executed = 0;
        while (!warp.done() && executed++ < cfg.maxInstrsPerWarp &&
               result.ok()) {
            int lin = warp.currentLin();
            const Instruction &in = warp.currentInstr();
            LaneMask mask = warp.activeMask();
            Datapath dp = datapathOf(in.unit());
            bool shared = isSharedUnit(in.unit());

            // Per-lane strand-crossing invalidation along each lane's
            // own dynamic path.
            for (int l = 0; l < cfg.width; l++) {
                if (!((mask >> l) & 1u))
                    continue;
                LaneState &ls = lanes[l];
                if (ls.lastActiveLin >= 0 &&
                    strands.crosses(ls.lastActiveLin, lin))
                    ls.invalidate();
                ls.lastActiveLin = lin;
            }

            // Warp-level synchronisation: the execution point moving
            // forward into a new strand, or re-entering a strand via a
            // taken backward branch, resolves outstanding long-latency
            // loads — descheduling the warp (flushing every lane) when
            // any are pending. Serialised hammock sides switch the
            // execution point within one strand and do not sync; nor
            // does the never-flush model.
            bool warp_sync = !ideal &&
                (prev_taken_backward ||
                 (prev_lin >= 0 && lin > prev_lin &&
                  strands.strandOf(lin) != strands.strandOf(prev_lin)));
            if (warp_sync && pending.any()) {
                counts.deschedules++;
                pending.reset();
                for (auto &ls : lanes)
                    ls.invalidate();
            }

            // A touch of a still-outstanding long-latency register
            // inside a strand means the compiler missed an endpoint;
            // the never-flush model deschedules, keeping every entry.
            RegSet touched = usedRegs(in) | definedRegs(in);
            if ((touched & pending).any()) {
                if (!ideal) {
                    fail(lin, -1, "instruction touches an outstanding "
                         "long-latency register inside a strand");
                    break;
                }
                counts.deschedules++;
                pending.reset();
            }

            // Per-lane enable (active + predicate).
            auto enabled = [&](int l) {
                if (!((mask >> l) & 1u))
                    return false;
                return !in.pred ||
                    warp.laneRegsNow(l)[*in.pred] != 0;
            };
            // For branches: does any lane take it?
            auto was_enabled_branch = [&](int l) { return enabled(l); };

            // ---- Verify reads per enabled lane; count per warp ----
            deposits.clear();
            auto read_one = [&](Reg r, const ReadAnnotation &ra) {
                counts.read(ra.level, dp);
                if ((ra.level == Level::ORF || ra.depositToORF) &&
                    ra.entry >= opts.orfEntries) {
                    fail(lin, -1, "ORF entry out of range");
                    return;
                }
                if (ra.level == Level::LRF && ra.lrfBank >= lrf_banks) {
                    fail(lin, -1, "LRF bank out of range");
                    return;
                }
                if (ra.depositToORF) {
                    deposits.push_back({ra.entry, r});
                    counts.write(Level::ORF, dp);
                }
                for (int l = 0; l < cfg.width && result.ok(); l++) {
                    // Operands are fetched before the predicate
                    // squashes the instruction, so every ACTIVE lane
                    // reads (and is verified) — matching the scalar
                    // executor, which reads operands regardless of
                    // the predicate value.
                    if (!((mask >> l) & 1u))
                        continue;
                    std::uint32_t arch = warp.laneRegsNow(l)[r];
                    LaneState &ls = lanes[l];
                    switch (ra.level) {
                      case Level::MRF:
                        if (ls.mrf[r] != arch)
                            fail(lin, l, "stale MRF value for R" +
                                 std::to_string(r));
                        break;
                      case Level::ORF: {
                        const LaneSlot &s = ls.orf[ra.entry];
                        if (!s.valid || s.reg != r || s.value != arch)
                            fail(lin, l, "ORF entry " +
                                 std::to_string(ra.entry) +
                                 " does not hold R" +
                                 std::to_string(r));
                        break;
                      }
                      case Level::LRF: {
                        if (shared) {
                            fail(lin, l, "shared-datapath LRF read");
                            break;
                        }
                        const LaneSlot &s = ls.lrf[ra.lrfBank];
                        if (!s.valid || s.reg != r || s.value != arch)
                            fail(lin, l, "LRF bank " +
                                 std::to_string(ra.lrfBank) +
                                 " does not hold R" +
                                 std::to_string(r));
                        break;
                      }
                    }
                }
            };
            for (int s = 0; s < in.numSrcs && result.ok(); s++)
                if (in.srcs[s].isReg)
                    read_one(in.srcs[s].reg, in.readAnno[s]);
            if (in.pred && result.ok()) {
                // The predicate is an operand like any other: it is
                // read by every active lane and can carry a deposit.
                read_one(*in.pred, in.predAnno);
            }
            if (!result.ok())
                break;

            // Deposits land for every ACTIVE lane: the operand is
            // fetched before the predicate squashes the instruction,
            // so the deposit does not depend on the predicate (which
            // keeps read-operand anchors sound under predication).
            for (const Deposit &d : deposits) {
                for (int l = 0; l < cfg.width; l++) {
                    if (!((mask >> l) & 1u))
                        continue;
                    LaneSlot &s = lanes[l].orf[d.entry];
                    s.valid = true;
                    s.reg = d.reg;
                    s.value = warp.laneRegsNow(l)[d.reg];
                }
            }

            // Snapshot enables before execution mutates predicates.
            for (int l = 0; l < cfg.width; l++)
                was_enabled[l] = enabled(l);

            // ---- Execute the warp instruction ----
            counts.instructions++;
            prev_lin = lin;
            prev_taken_backward = false;
            if (in.op == Opcode::BRA &&
                in.branchTarget <= k.ref(lin).block) {
                for (int l = 0; l < cfg.width; l++)
                    if (was_enabled_branch(l)) {
                        prev_taken_backward = true;
                        break;
                    }
            }
            warp.step();

            // ---- Writes per enabled lane; count per warp ----
            if (in.dst) {
                const WriteAnnotation &wa = in.writeAnno;
                int halves = in.wide ? 2 : 1;
                if (wa.toLRF && wa.lrfBank >= lrf_banks) {
                    fail(lin, -1, "LRF bank out of range");
                    break;
                }
                if (wa.toORF && wa.orfEntry + halves > opts.orfEntries) {
                    fail(lin, -1, "ORF entry out of range");
                    break;
                }
                bool any = false;
                for (int l = 0; l < cfg.width; l++) {
                    if (!was_enabled[l])
                        continue;
                    any = true;
                    LaneState &ls = lanes[l];
                    for (int h = 0; h < halves; h++) {
                        Reg r = static_cast<Reg>(*in.dst + h);
                        std::uint32_t v = warp.laneRegsNow(l)[r];
                        if (wa.toLRF) {
                            LaneSlot &s = ls.lrf[wa.lrfBank];
                            s.valid = true;
                            s.reg = r;
                            s.value = v;
                        }
                        if (wa.toORF) {
                            LaneSlot &s = ls.orf[wa.orfEntry + h];
                            s.valid = true;
                            s.reg = r;
                            s.value = v;
                        }
                        if (wa.toMRF)
                            ls.mrf[r] = v;
                    }
                }
                if (any) {
                    if (wa.toLRF)
                        counts.write(Level::LRF, dp);
                    if (wa.toORF)
                        counts.write(Level::ORF, dp, halves);
                    if (wa.toMRF)
                        counts.write(Level::MRF, dp, halves);
                    if (in.longLatency())
                        pending |= definedRegs(in);
                }
            }
        }
    }
    return result;
}

} // namespace rfh
