#include "sim/cc_rfc.h"

#include <optional>

#include "ir/liveness.h"
#include "sim/pipeline_account.h"
#include "sim/rfc_ring.h"

namespace rfh {

namespace {

/**
 * Hierarchy state + access accounting of one warp under the
 * compiler-assisted RFC: the scheme's one counting model, driven by
 * every engine (sim/pipeline_account.h). Everything value-dependent is
 * folded into the @c enabled input, and the compile-time hints are a
 * pure function of the static kernel. RFC hits become collector
 * bypass operands.
 */
class CcWarpSim final : public WarpAccountant
{
  public:
    /** A deschedule flushes the RFC and clears the pending set. */
    static constexpr bool kResetsAtDeschedule = true;

    CcWarpSim(const ReplayDecode &dec, const CcRfcConfig &cfg,
              const Liveness &liveness,
              const std::vector<std::uint8_t> &insertHint,
              AccessCounts &counts)
        : dec_(dec), liveness_(liveness), insertHint_(insertHint),
          counts_(counts), rfc_(cfg.entries)
    {
    }

    void
    onIssue(int lin, bool enabled, bool /*taken*/,
            std::int32_t /*nextLin*/, OperandPlan &plan) override
    {
        const ReplayOp &o = dec_.op[lin];
        const Datapath dp = static_cast<Datapath>(o.dp);

        // Two-level scheduler: deschedule on a dependence on an
        // outstanding long-latency operation.
        if ((dec_.touched[lin] & pending_).any())
            deschedule(lin);

        // Operand reads: RFC -> MRF. Last-read erasure is applied
        // after every operand of the instruction has been fetched, so
        // a register named twice is served at one level both times;
        // the erase frees the slot early and ensures a dead value
        // never reaches the eviction writeback path.
        auto read_one = [&](Reg r) {
            const bool hit = rfc_.contains(r);
            counts_.read(hit ? Level::ORF : Level::MRF, dp);
            if (hit)
                plan.numBypass++;
            else
                plan.mrfReg[plan.numMrf++] = r;
        };
        for (int s = 0; s < o.nsrc; s++)
            read_one(o.src[s]);
        if (o.pred >= 0)
            read_one(static_cast<Reg>(o.pred));
        auto erase_dead = [&](Reg r) {
            if (rfc_.contains(r) && !liveness_.liveAfter(lin, r))
                rfc_.erase(r);
        };
        for (int s = 0; s < o.nsrc; s++)
            erase_dead(o.src[s]);
        if (o.pred >= 0)
            erase_dead(static_cast<Reg>(o.pred));

        // Result write (suppressed when predicated off).
        if (o.dst >= 0 && enabled) {
            const Reg dst = static_cast<Reg>(o.dst);
            const int halves = o.halves;
            if (o.flags & kOpLongLat) {
                // Long-latency results bypass the hierarchy.
                counts_.write(Level::MRF, dp, halves);
                for (int h = 0; h < halves; h++)
                    rfc_.erase(static_cast<Reg>(dst + h));
                pending_ |= dec_.defined[lin];
            } else if (insertHint_[lin]) {
                // Allocation hint: a nearby read exists, cache it.
                Reg victim = 0;
                if (rfc_.insert(dst, victim)) {
                    if (liveness_.liveAfter(lin, victim)) {
                        counts_.read(Level::ORF, dp);
                        counts_.wbReads++;
                        counts_.write(Level::MRF, dp);
                        counts_.wbWrites++;
                    }
                }
                counts_.write(Level::ORF, dp);
            } else {
                // Bypass: straight to the MRF; drop any stale copy.
                counts_.write(Level::MRF, dp, halves);
                for (int h = 0; h < halves; h++)
                    rfc_.erase(static_cast<Reg>(dst + h));
            }
        }

        counts_.instructions++;
    }

    /**
     * Deschedule before the instruction at @p lin: flush what is live
     * immediately before it and start over from an empty warp state.
     */
    void
    deschedule(int lin)
    {
        flushAll((liveness_.liveAfter(lin) & ~dec_.defined[lin]) |
                 dec_.used[lin]);
        pending_.reset();
        counts_.deschedules++;
    }

  private:
    /** Flush everything live back to the MRF (deschedule). */
    void
    flushAll(const RegSet &live)
    {
        rfc_.forEach([&](Reg r) {
            if (live.test(r)) {
                counts_.read(Level::ORF, Datapath::PRIVATE);
                counts_.wbReads++;
                counts_.write(Level::MRF, Datapath::PRIVATE);
                counts_.wbWrites++;
            }
        });
        rfc_.clear();
    }

    const ReplayDecode &dec_;
    const Liveness &liveness_;
    const std::vector<std::uint8_t> &insertHint_;
    AccessCounts &counts_;
    RfcRing rfc_;
    RegSet pending_;
};

/** Pipeline accounting factory for the compiler-assisted RFC. */
class CcAccounting final : public AccountingOf<CcWarpSim>
{
  public:
    CcAccounting(const Kernel &k, const CcRfcConfig &cfg,
                 const AnalysisBundle *analyses, const ReplayDecode *dec,
                 AccessCounts &counts)
        : AccountingOf(counts), cfg_(cfg),
          hints_(ccRfcAllocationHints(k, cfg.entries))
    {
        analyses_ = analyses ? analyses : &localAnalyses_.emplace(k);
        // Any decode works here: the compiler-assisted RFC never reads
        // the kOpLrfAble flag, so shared-consumer info is not required.
        dec_ = dec ? dec : &localDec_.emplace(k);
    }

  protected:
    std::unique_ptr<CcWarpSim>
    newWarp() override
    {
        return std::make_unique<CcWarpSim>(*dec_, cfg_,
                                           analyses_->liveness, hints_,
                                           counts_);
    }

  private:
    CcRfcConfig cfg_;
    std::vector<std::uint8_t> hints_;
    std::optional<AnalysisBundle> localAnalyses_;
    std::optional<ReplayDecode> localDec_;
    const AnalysisBundle *analyses_;
    const ReplayDecode *dec_;
};

} // namespace

int
ccRfcHintWindow(int entries)
{
    return 8 + 4 * entries;
}

std::vector<std::uint8_t>
ccRfcAllocationHints(const Kernel &k, int entries)
{
    const int n = k.numInstrs();
    const int window = ccRfcHintWindow(entries);
    std::vector<std::uint8_t> hint(static_cast<std::size_t>(n), 0);
    for (int lin = 0; lin < n; lin++) {
        const Instruction &in = k.instr(lin);
        if (!in.dst || in.wide || in.longLatency())
            continue;
        const Reg r = *in.dst;
        // Scan forward in layout order for a read of r before it is
        // redefined. Layout distance is the compiler's static stand-in
        // for dynamic distance — the same approximation a real
        // compiler pass would make without a profile.
        for (int j = lin + 1; j < n && j <= lin + window; j++) {
            const Instruction &next = k.instr(j);
            bool reads = false;
            for (int s = 0; s < next.numSrcs; s++)
                if (next.srcs[s].isReg && next.srcs[s].reg == r)
                    reads = true;
            if (next.pred && *next.pred == r)
                reads = true;
            if (reads) {
                hint[static_cast<std::size_t>(lin)] = 1;
                break;
            }
            if (next.dst) {
                const int halves = next.wide ? 2 : 1;
                bool redefined = false;
                for (int h = 0; h < halves; h++)
                    if (static_cast<Reg>(*next.dst + h) == r)
                        redefined = true;
                if (redefined)
                    break;
            }
        }
    }
    return hint;
}

std::unique_ptr<PipelineAccounting>
makeCcRfcAccounting(const Kernel &k, const CcRfcConfig &cfg,
                    const AnalysisBundle *analyses,
                    const ReplayDecode *dec, AccessCounts &counts)
{
    return std::make_unique<CcAccounting>(k, cfg, analyses, dec, counts);
}

} // namespace rfh
