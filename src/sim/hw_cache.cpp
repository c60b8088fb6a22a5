#include "sim/hw_cache.h"

#include <optional>

#include "ir/liveness.h"
#include "sim/pipeline_account.h"
#include "sim/rfc_ring.h"

namespace rfh {

namespace {

/** FIFO cache state (shared with the compiler-assisted RFC). */
using Rfc = RfcRing;

/**
 * Hierarchy state + access accounting of one warp under the hardware
 * cache: the scheme's one counting model, driven by every engine
 * (sim/pipeline_account.h). Everything value-dependent is folded into
 * the @c enabled and @c taken inputs. RFC/LRF hits become collector
 * bypass operands.
 *
 * The inner loop reads only the decode, so one shared across
 * annotated copies is safe. The decode must carry shared-consumer
 * info (kOpLrfAble).
 */
class HwWarpSim final : public WarpAccountant
{
  public:
    /**
     * A deschedule flushes both levels and clears the pending set;
     * the backward-branch flush variant keeps the pending set, so its
     * cut points are the same.
     */
    static constexpr bool kResetsAtDeschedule = true;

    HwWarpSim(const ReplayDecode &dec, const HwCacheConfig &cfg,
              const Liveness &liveness, AccessCounts &counts)
        : dec_(dec), cfg_(cfg), liveness_(liveness), counts_(counts),
          rfc_(cfg.rfcEntries)
    {
    }

    void
    onIssue(int lin, bool enabled, bool taken, std::int32_t /*nextLin*/,
            OperandPlan &plan) override
    {
        const ReplayOp &o = dec_.op[lin];
        const Datapath dp = static_cast<Datapath>(o.dp);
        const bool shared = (o.flags & kOpShared) != 0;

        // Two-level scheduler: deschedule on a dependence on an
        // outstanding long-latency operation (reads, writes, or
        // overwrites of its destination).
        if ((dec_.touched[lin] & pending_).any())
            deschedule(lin);

        // Operand reads: LRF (private only) -> RFC -> MRF.
        auto read_one = [&](Reg r) {
            if (cfg_.useLRF && !shared && lrf_valid_ && lrf_reg_ == r) {
                counts_.read(Level::LRF, dp);
                plan.numBypass++;
            } else if (rfc_.contains(r)) {
                counts_.read(Level::ORF, dp);
                plan.numBypass++;
            } else {
                counts_.read(Level::MRF, dp);
                plan.mrfReg[plan.numMrf++] = r;
            }
        };
        for (int s = 0; s < o.nsrc; s++)
            read_one(o.src[s]);
        if (o.pred >= 0)
            read_one(static_cast<Reg>(o.pred));

        // Result write (suppressed when predicated off).
        if (o.dst >= 0 && enabled) {
            const Reg dst = static_cast<Reg>(o.dst);
            const int halves = o.halves;
            if (o.flags & kOpLongLat) {
                // Long-latency results bypass the hierarchy.
                counts_.write(Level::MRF, dp, halves);
                // Their destination must not linger in the caches.
                for (int h = 0; h < halves; h++) {
                    Reg r = static_cast<Reg>(dst + h);
                    rfc_.erase(r);
                    if (lrf_valid_ && lrf_reg_ == r)
                        lrf_valid_ = false;
                }
                pending_ |= dec_.defined[lin];
            } else if (cfg_.useLRF && (o.flags & kOpLrfAble)) {
                // Private result consumed privately: goes to LRF.
                if (lrf_valid_ && lrf_reg_ != dst)
                    spillLrfToRfc(lin);
                rfc_.erase(dst);  // keep a single location
                lrf_valid_ = true;
                lrf_reg_ = dst;
                counts_.write(Level::LRF, dp);
            } else {
                for (int h = 0; h < halves; h++) {
                    Reg r = static_cast<Reg>(dst + h);
                    if (cfg_.useLRF && lrf_valid_ && lrf_reg_ == r)
                        lrf_valid_ = false;  // overwritten
                    Reg victim = 0;
                    if (rfc_.insert(r, victim)) {
                        if (liveness_.liveAfter(lin, victim)) {
                            counts_.read(Level::ORF, dp);
                            counts_.wbReads++;
                            counts_.write(Level::MRF, dp);
                            counts_.wbWrites++;
                        }
                    }
                    counts_.write(Level::ORF, dp);
                }
            }
        }

        counts_.instructions++;

        // Backward branch taken: optional flush variant.
        if (cfg_.flushOnBackwardBranch && taken &&
            (o.flags & kOpBackward))
            flushAll(liveness_.liveAfter(lin));
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
    /** Spill the LRF occupant into the RFC (LRF eviction path). */
    void
    spillLrfToRfc(int lin)
    {
        if (!lrf_valid_)
            return;
        if (liveness_.liveAfter(lin, lrf_reg_)) {
            counts_.read(Level::LRF, Datapath::PRIVATE);
            counts_.wbReads++;
            Reg victim = 0;
            if (rfc_.insert(lrf_reg_, victim)) {
                if (liveness_.liveAfter(lin, victim)) {
                    counts_.read(Level::ORF, Datapath::PRIVATE);
                    counts_.wbReads++;
                    counts_.write(Level::MRF, Datapath::PRIVATE);
                    counts_.wbWrites++;
                }
            }
            counts_.write(Level::ORF, Datapath::PRIVATE);
        }
        lrf_valid_ = false;
    }

    /** Flush everything live back to the MRF (deschedule). */
    void
    flushAll(const RegSet &live)
    {
        if (lrf_valid_ && live.test(lrf_reg_)) {
            counts_.read(Level::LRF, Datapath::PRIVATE);
            counts_.wbReads++;
            counts_.write(Level::MRF, Datapath::PRIVATE);
            counts_.wbWrites++;
        }
        lrf_valid_ = false;
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
    const HwCacheConfig &cfg_;
    const Liveness &liveness_;
    AccessCounts &counts_;
    Rfc rfc_;
    bool lrf_valid_ = false;
    Reg lrf_reg_ = 0;
    RegSet pending_;
};

/** Pipeline accounting factory for the hardware cache scheme. */
class HwAccounting final : public AccountingOf<HwWarpSim>
{
  public:
    HwAccounting(const Kernel &k, const HwCacheConfig &cfg,
                 const AnalysisBundle *analyses, const ReplayDecode *dec,
                 AccessCounts &counts)
        : AccountingOf(counts), cfg_(cfg)
    {
        analyses_ = analyses ? analyses : &localAnalyses_.emplace(k);
        dec_ = dec && dec->hasSharedConsumerInfo()
            ? dec
            : &localDec_.emplace(k, &analyses_->reachingDefs);
    }

  protected:
    std::unique_ptr<HwWarpSim>
    newWarp() override
    {
        return std::make_unique<HwWarpSim>(*dec_, cfg_,
                                           analyses_->liveness, counts_);
    }

  private:
    HwCacheConfig cfg_;
    std::optional<AnalysisBundle> localAnalyses_;
    std::optional<ReplayDecode> localDec_;
    const AnalysisBundle *analyses_;
    const ReplayDecode *dec_;
};

} // namespace

std::unique_ptr<PipelineAccounting>
makeHwCacheAccounting(const Kernel &k, const HwCacheConfig &cfg,
                      const AnalysisBundle *analyses,
                      const ReplayDecode *dec, AccessCounts &counts)
{
    return std::make_unique<HwAccounting>(k, cfg, analyses, dec, counts);
}

} // namespace rfh
