#include "sim/regdem.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "sim/pipeline_account.h"

namespace rfh {

namespace {

/**
 * Pure counting walk, the scheme's one counting model: everything the
 * counts depend on is (lin, enabled) plus the static demotion set.
 * Demoted operands bypass the MRF banks (they live in shared-memory
 * spill space).
 */
class RegDemWarpSim final : public WarpAccountant
{
  public:
    /** Stateless per record, so trivially reset at a deschedule. */
    static constexpr bool kResetsAtDeschedule = true;

    RegDemWarpSim(const ReplayDecode &dec, const RegSet &demoted,
                  AccessCounts &counts)
        : dec_(dec), demoted_(demoted), counts_(counts)
    {
    }

    void
    onIssue(int lin, bool enabled, bool /*taken*/,
            std::int32_t /*nextLin*/, OperandPlan &plan) override
    {
        const ReplayOp &o = dec_.op[lin];
        const Datapath dp = static_cast<Datapath>(o.dp);

        auto read_one = [&](Reg r) {
            if (demoted_.test(r)) {
                counts_.wbReads++;  // shared-memory spill read
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

        if (o.dst >= 0 && enabled) {
            for (int h = 0; h < o.halves; h++) {
                Reg r = static_cast<Reg>(o.dst + h);
                if (demoted_.test(r))
                    counts_.wbWrites++;  // shared-memory spill write
                else
                    counts_.write(Level::MRF, dp);
            }
        }

        counts_.instructions++;
    }

    /** Register demotion keeps no warp state and counts no deschedule. */
    void
    deschedule(int /*lin*/)
    {
    }

  private:
    const ReplayDecode &dec_;
    const RegSet &demoted_;
    AccessCounts &counts_;
};

/** Pipeline accounting factory for register demotion. */
class RegDemAccounting final : public AccountingOf<RegDemWarpSim>
{
  public:
    RegDemAccounting(const Kernel &k, const RegDemConfig &cfg,
                     const ReplayDecode *dec, AccessCounts &counts)
        : AccountingOf(counts),
          demoted_(regdemDemotedSet(k, kRegDemRegsPerEntry * cfg.entries))
    {
        dec_ = dec ? dec : &localDec_.emplace(k);
    }

  protected:
    std::unique_ptr<RegDemWarpSim>
    newWarp() override
    {
        return std::make_unique<RegDemWarpSim>(*dec_, demoted_, counts_);
    }

  private:
    RegSet demoted_;
    std::optional<ReplayDecode> localDec_;
    const ReplayDecode *dec_;
};

} // namespace

RegSet
regdemDemotedSet(const Kernel &k, int residentBudget)
{
    // Static access frequency per register: every named source,
    // predicate, and destination half counts one site.
    std::array<std::uint32_t, kMaxRegs> uses{};
    const int n = k.numInstrs();
    for (int lin = 0; lin < n; lin++) {
        const Instruction &in = k.instr(lin);
        for (int s = 0; s < in.numSrcs; s++)
            if (in.srcs[s].isReg)
                uses[in.srcs[s].reg]++;
        if (in.pred)
            uses[*in.pred]++;
        if (in.dst) {
            const int halves = in.wide ? 2 : 1;
            for (int h = 0; h < halves; h++)
                uses[static_cast<Reg>(*in.dst + h)]++;
        }
    }

    std::vector<int> regs;
    for (int r = 0; r < kMaxRegs; r++)
        if (uses[r] > 0)
            regs.push_back(r);
    // Hottest first; ties keep the lower register resident.
    std::stable_sort(regs.begin(), regs.end(), [&](int a, int b) {
        if (uses[a] != uses[b])
            return uses[a] > uses[b];
        return a < b;
    });

    RegSet demoted;
    for (std::size_t i = static_cast<std::size_t>(
             residentBudget < 0 ? 0 : residentBudget);
         i < regs.size(); i++)
        demoted.set(static_cast<std::size_t>(regs[i]));
    return demoted;
}

double
regdemSpillEnergyPJ(const AccessCounts &c, const EnergyParams &params)
{
    return static_cast<double>(c.wbReads) * kRegDemSpillFactor *
        params.mrfReadPJ +
        static_cast<double>(c.wbWrites) * kRegDemSpillFactor *
        params.mrfWritePJ;
}

std::unique_ptr<PipelineAccounting>
makeRegDemAccounting(const Kernel &k, const RegDemConfig &cfg,
                     const ReplayDecode *dec, AccessCounts &counts)
{
    return std::make_unique<RegDemAccounting>(k, cfg, dec, counts);
}

} // namespace rfh
