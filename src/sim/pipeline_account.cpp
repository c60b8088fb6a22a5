#include "sim/pipeline_account.h"

#include <optional>

namespace rfh {

namespace {

/** Flat-MRF accounting: every register operand is an MRF access. */
class FlatWarpAccountant final : public WarpAccountant
{
  public:
    FlatWarpAccountant(const ReplayDecode &dec, AccessCounts &counts)
        : dec_(dec), counts_(counts)
    {
    }

    void
    onIssue(int lin, bool enabled, bool /*taken*/,
            std::int32_t /*nextLin*/, OperandPlan &plan) override
    {
        const ReplayOp &o = dec_.op[lin];
        const Datapath dp = static_cast<Datapath>(o.dp);
        counts_.read(Level::MRF, dp, o.nsrc + (o.pred >= 0));
        if (enabled && o.dst >= 0)
            counts_.write(Level::MRF, dp, o.halves);
        counts_.instructions++;
        for (int s = 0; s < o.nsrc; s++)
            plan.mrfReg[plan.numMrf++] = o.src[s];
        if (o.pred >= 0)
            plan.mrfReg[plan.numMrf++] = static_cast<Reg>(o.pred);
    }

  private:
    const ReplayDecode &dec_;
    AccessCounts &counts_;
};

/** Factory for FlatWarpAccountant; owns the fallback decode. */
class FlatAccounting final : public AccountingOf<FlatWarpAccountant>
{
  public:
    FlatAccounting(const Kernel &k, const ReplayDecode *dec,
                   AccessCounts &counts)
        : AccountingOf(counts)
    {
        dec_ = dec ? dec : &local_.emplace(k);
    }

  protected:
    std::unique_ptr<FlatWarpAccountant>
    newWarp() override
    {
        return std::make_unique<FlatWarpAccountant>(*dec_, counts_);
    }

  private:
    std::optional<ReplayDecode> local_;
    const ReplayDecode *dec_;
};

} // namespace

std::unique_ptr<PipelineAccounting>
makeFlatAccounting(const Kernel &k, const ReplayDecode *dec,
                   AccessCounts &counts)
{
    return std::make_unique<FlatAccounting>(k, dec, counts);
}

} // namespace rfh
