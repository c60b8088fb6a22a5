#include "compiler/limit_study.h"

#include <algorithm>

#include "compiler/allocator.h"
#include "core/experiment.h"
#include "core/memo.h"
#include "core/parallel.h"
#include "core/sweep.h"
#include "sim/baseline_exec.h"
#include "sim/sw_exec.h"

namespace rfh {

namespace {

/** Aggregate normalised energy of one configuration. */
double
normEnergy(const ExperimentConfig &cfg)
{
    return runAllWorkloads(cfg).normalizedEnergy();
}

} // namespace

LimitStudyResults
runLimitStudy(const EnergyParams &params)
{
    LimitStudyResults r;

    ExperimentConfig best;
    best.scheme = Scheme::SW_THREE_LEVEL;
    best.entries = 3;
    best.splitLRF = true;
    best.energy = params;
    r.realistic = normEnergy(best);

    // ---- Ideal systems: price the baseline traffic at one level ----
    AccessCounts bc = aggregateBaselineCounts();
    EnergyModel em3(params, 3);
    double base_pj = bc.totalEnergyPJ(em3);
    {
        // Every operand lives next to the ALUs in the LRF.
        EnergyModel em(params, 1);
        double e = bc.allReads() *
            em.readEnergy(Level::LRF, Datapath::PRIVATE) +
            bc.allWrites() * em.writeEnergy(Level::LRF,
                                            Datapath::PRIVATE);
        r.idealAllLrf = e / base_pj;
    }
    {
        // Every operand serviced by a 5-entry ORF (correct wire
        // distances per consuming datapath).
        EnergyModel em(params, 5);
        double e = 0.0;
        for (int d = 0; d < 2; d++) {
            Datapath dp = static_cast<Datapath>(d);
            e += bc.reads[static_cast<int>(Level::MRF)][d] *
                em.readEnergy(Level::ORF, dp);
            e += bc.writes[static_cast<int>(Level::MRF)][d] *
                em.writeEnergy(Level::ORF, dp);
        }
        r.idealAllOrf5 = e / base_pj;
    }

    // ---- Variable ORF allocation with an oracle scheduler ----
    // Each strand declares (in its header) the savings of being granted
    // 1..8 ORF entries; the oracle scheduler hands out entries so the
    // total storage stays at the physical structure's 3 entries/thread
    // average, and the allocator then compiles with those per-strand
    // budgets (Section 7).
    auto variable_energy = [&](int mean_budget) {
        const std::vector<Workload> &ws = allWorkloads();
        std::vector<double> e(ws.size(), 0.0), base(ws.size(), 0.0);
        // Workloads are independent; fan them out and fold the energy
        // sums in registry order for a thread-count-invariant result.
        globalPool().parallelFor(
            static_cast<int>(ws.size()), [&](int i) {
            const Workload &w = ws[i];
            ExperimentCache &cache = globalExperimentCache();
            // Every allocation below uses the default strand options,
            // so all of them read the kernel's one memoized plan.
            const ExperimentCache::Inputs in = cache.inputs(w.kernel);
            std::shared_ptr<const AnalysisBundle> analyses =
                in.analyses();
            std::shared_ptr<const AllocationPlan> plan =
                in.allocationPlan({});
            // Per-strand savings at every size, priced at the fixed
            // physical structure.
            std::vector<std::vector<double>> savings_by_size;
            int strands = 0;
            for (int entries = 1; entries <= kMaxOrfEntries; entries++) {
                Kernel kk = w.kernel;
                AllocOptions ao;
                ao.orfEntries = entries;
                ao.orfPriceEntries = 3;
                ao.useLRF = true;
                ao.splitLRF = true;
                HierarchyAllocator alloc(params, ao);
                AllocStats st =
                    alloc.run(kk, analyses.get(), plan.get());
                savings_by_size.push_back(st.strandSavings);
                strands = st.strands;
            }
            // Greedy marginal assignment under the storage budget.
            std::vector<int> budget(strands, 1);
            int pool = mean_budget * strands - strands;
            while (pool > 0) {
                int best_s = -1;
                double best_gain = 0.0;
                for (int s = 0; s < strands; s++) {
                    if (budget[s] >= kMaxOrfEntries)
                        continue;
                    double gain = savings_by_size[budget[s]][s] -
                        savings_by_size[budget[s] - 1][s];
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_s = s;
                    }
                }
                if (best_s < 0)
                    break;
                budget[best_s]++;
                pool--;
            }
            // Compile with the chosen budgets and execute.
            Kernel kk = w.kernel;
            AllocOptions ao;
            ao.orfEntries = kMaxOrfEntries;
            ao.orfPriceEntries = 3;
            ao.useLRF = true;
            ao.splitLRF = true;
            ao.perStrandEntries = budget;
            HierarchyAllocator alloc(params, ao);
            alloc.run(kk, analyses.get(), plan.get());
            SwExecResult res = runSwHierarchy(kk, ao, w.run, analyses.get(),
                                              &plan->strands);
            EnergyModel em(params, 3, true);
            e[i] = res.counts.totalEnergyPJ(em);
            base[i] = cache.baseline(w.kernel, w.run)
                .totalEnergyPJ(em);
        });
        double e_sum = 0.0, base_sum = 0.0;
        for (std::size_t i = 0; i < ws.size(); i++) {
            e_sum += e[i];
            base_sum += base[i];
        }
        return e_sum / base_sum;
    };
    r.variableOracle = variable_energy(3);

    // ---- Fewer active warps: 6 warps share the 8-warp ORF, giving
    // each 4 entries at the physical 3-entry-per-thread energy ----
    r.fewerActiveWarps = variable_energy(4);

    // ---- Hardware cache across backward branches ----
    {
        ExperimentConfig cfg;
        cfg.scheme = Scheme::HW_TWO_LEVEL;
        cfg.entries = 6;
        cfg.energy = params;
        cfg.hwFlushOnBackwardBranch = false;
        r.hwResidentPastBackward = normEnergy(cfg);
        cfg.hwFlushOnBackwardBranch = true;
        r.hwFlushAtBackward = normEnergy(cfg);
    }

    // ---- Idealised instruction scheduling ----
    {
        ExperimentConfig cfg = best;
        cfg.entries = 8;
        cfg.orfPriceEntries = 3;
        r.sched8EntriesAt3 = normEnergy(cfg);
        cfg.entries = 5;
        r.sched5EntriesAt3 = normEnergy(cfg);
    }

    // ---- Never flush across deschedules / strand boundaries ----
    {
        ExperimentConfig cfg = best;
        cfg.strandOptions.idealNoFlush = true;
        cfg.strandOptions.cutAtUncertainMerge = false;
        r.neverFlush = normEnergy(cfg);
    }

    return r;
}

} // namespace rfh
