#include "compiler/allocator.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "core/metrics.h"
#include "ir/reaching_defs.h"

namespace rfh {

namespace {

/**
 * Per-pass observability of the allocation pipeline: strand cuts and
 * instance dataflow once per AllocationPlan built, the LRF and ORF
 * passes once per allocation. Registered once; updates
 * are relaxed atomics, so the parallel sweep's concurrent allocator
 * runs never contend. Metrics never influence allocation decisions.
 */
struct AllocMetrics
{
    Counter &runs = globalMetrics().counter("alloc.runs");
    Timer &strands = globalMetrics().timer("alloc.phase.strands");
    Timer &instances = globalMetrics().timer("alloc.phase.instances");
    Timer &lrfPass = globalMetrics().timer("alloc.phase.lrf");
    Timer &orfPass = globalMetrics().timer("alloc.phase.orf");
    Counter &lrfValues = globalMetrics().counter("alloc.values.lrf");
    Counter &orfValuesFull =
        globalMetrics().counter("alloc.values.orf.full");
    Counter &orfValuesPartial =
        globalMetrics().counter("alloc.values.orf.partial");
    Counter &orfReads = globalMetrics().counter("alloc.reads.orf");
    Counter &mrfWritesElided =
        globalMetrics().counter("alloc.mrfWritesElided");
};

AllocMetrics &
allocMetrics()
{
    static AllocMetrics m;
    return m;
}

/** Priority of an allocation candidate: savings per occupied slot. */
double
priorityOf(double savings, std::pair<int, int> interval)
{
    int slots = std::max(1, interval.second - interval.first);
    return savings / slots;
}

ReadAnnotation &
annoForUse(Instruction &in, int slot)
{
    return slot == kPredSlot ? in.predAnno : in.readAnno[slot];
}

Reg
regOfUse(const Instruction &in, int slot)
{
    if (slot == kPredSlot)
        return *in.pred;
    assert(in.srcs[slot].isReg);
    return in.srcs[slot].reg;
}

void
annotateValueOrf(Kernel &k, const ValueInstance &vi, int entry,
                 int num_uses, bool mrf_write)
{
    for (int dl : vi.defLins) {
        Instruction &in = k.instr(dl);
        in.writeAnno.toORF = true;
        in.writeAnno.orfEntry = static_cast<std::uint8_t>(entry);
        in.writeAnno.toMRF = mrf_write;
    }
    int n = 0;
    for (const auto &u : vi.uses) {
        if (n++ >= num_uses)
            break;
        Instruction &in = k.instr(u.lin);
        ReadAnnotation &ra = annoForUse(in, u.slot);
        Reg r = regOfUse(in, u.slot);
        assert(r >= vi.reg && r < vi.reg + vi.width());
        ra.level = Level::ORF;
        ra.entry = static_cast<std::uint8_t>(entry + (r - vi.reg));
    }
}

void
annotateValueLrf(Kernel &k, const ValueInstance &vi, int bank,
                 bool mrf_write)
{
    for (int dl : vi.defLins) {
        Instruction &in = k.instr(dl);
        in.writeAnno.toLRF = true;
        in.writeAnno.lrfBank = static_cast<std::uint8_t>(bank);
        in.writeAnno.toMRF = mrf_write;
    }
    for (const auto &u : vi.uses) {
        Instruction &in = k.instr(u.lin);
        ReadAnnotation &ra = annoForUse(in, u.slot);
        ra.level = Level::LRF;
        ra.lrfBank = static_cast<std::uint8_t>(bank);
    }
}

void
annotateReadOrf(Kernel &k, const ReadInstance &ri, int entry, int num_uses)
{
    int first_lin = ri.firstUseLin();
    int n = 0;
    for (const auto &u : ri.uses) {
        if (n++ >= num_uses)
            break;
        Instruction &in = k.instr(u.lin);
        ReadAnnotation &ra = annoForUse(in, u.slot);
        if (n == 1) {
            // First read: fetch from the MRF, deposit into the ORF.
            ra.level = Level::MRF;
            ra.depositToORF = true;
            ra.entry = static_cast<std::uint8_t>(entry);
        } else if (u.lin == first_lin) {
            // Same instruction as the deposit: the value is not yet in
            // the ORF during this read phase; stay on the MRF.
            ra.level = Level::MRF;
        } else {
            ra.level = Level::ORF;
            ra.entry = static_cast<std::uint8_t>(entry);
        }
    }
}

/** @return @p make(), its duration added to @p timer. */
template <class Make>
auto
timed(Timer &timer, Make make)
{
    Stopwatch watch;
    auto value = make();
    timer.addSec(watch.lap());
    return value;
}

} // namespace

AllocationPlan::AllocationPlan(const Kernel &k, const Cfg &cfg,
                               const ReachingDefs &rd,
                               const StrandOptions &opts)
    : options(opts),
      strands(timed(allocMetrics().strands,
                    [&] { return StrandAnalysis(k, cfg, opts); })),
      instances(timed(allocMetrics().instances, [&] {
          return InstanceAnalysis(k, cfg, strands, rd,
                                  opts.idealNoFlush);
      }))
{
}

HierarchyAllocator::HierarchyAllocator(const EnergyParams &params,
                                       const AllocOptions &opts)
    : params_(params), opts_(opts)
{
    assert(opts.orfEntries >= 1 && opts.orfEntries <= kMaxOrfEntries);
}

AllocStats
HierarchyAllocator::run(Kernel &k, const AnalysisBundle *analyses,
                        const AllocationPlan *plan) const
{
    AllocMetrics &am = allocMetrics();
    am.runs.add();

    // The plan depends only on the kernel's structure, so a shared
    // precomputed one is equivalent to a local one.
    std::optional<AllocationPlan> localPlan;
    if (!plan) {
        std::optional<Cfg> localCfg;
        std::optional<ReachingDefs> localRd;
        const Cfg &cfg = analyses ? analyses->cfg : localCfg.emplace(k);
        const ReachingDefs &rd = analyses ? analyses->reachingDefs
                                          : localRd.emplace(k, cfg);
        plan = &localPlan.emplace(k, cfg, rd, opts_.strandOptions);
    }
    assert(plan->options == opts_.strandOptions);
    const StrandAnalysis &sa = plan->strands;
    const InstanceAnalysis &ia = plan->instances;

    k.clearAnnotations();
    sa.markEndOfStrand(k);
    Stopwatch phaseWatch;
    int price = opts_.orfPriceEntries ? opts_.orfPriceEntries
                                      : opts_.orfEntries;
    EnergyModel em(params_, price, opts_.splitLRF);

    AllocStats stats;
    stats.strands = sa.numStrands();
    stats.strandSavings.assign(sa.numStrands(), 0.0);
    stats.valueInstances = static_cast<int>(ia.values().size());
    stats.readInstances = static_cast<int>(ia.readInstances().size());

    EntryTimeline orf(opts_.orfEntries);
    EntryTimeline lrf(opts_.useLRF ? (opts_.splitLRF ? 3 : 1) : 0);

    const auto &values = ia.values();
    const auto &reads = ia.readInstances();
    std::vector<bool> value_done(values.size(), false);

    // ---- LRF pass (Section 4.6: fill the LRF first) ----
    if (opts_.useLRF) {
        struct LrfCand { int idx; double savings; double prio; };
        std::vector<LrfCand> cands;
        for (int i = 0; i < static_cast<int>(values.size()); i++) {
            const ValueInstance &vi = values[i];
            if (!lrfEligible(vi, k, opts_.splitLRF,
                             opts_.lrfAllowSharedProducers))
                continue;
            double s = lrfValueSavings(vi, em);
            if (s <= 0)
                continue;
            cands.push_back({i, s, priorityOf(s, valueInterval(
                vi, static_cast<int>(vi.uses.size())))});
        }
        std::stable_sort(cands.begin(), cands.end(),
                         [](const LrfCand &a, const LrfCand &b) {
                             return a.prio > b.prio;
                         });
        for (const LrfCand &c : cands) {
            const ValueInstance &vi = values[c.idx];
            auto [b, e] = valueInterval(vi,
                                        static_cast<int>(vi.uses.size()));
            int bank = 0;
            if (opts_.splitLRF && !vi.uses.empty())
                bank = vi.uses.front().slot;
            if (!lrf.available(bank, b, e))
                continue;
            lrf.allocate(bank, b, e);
            annotateValueLrf(k, vi, bank, vi.needsMrfWrite());
            value_done[c.idx] = true;
            stats.lrfValues++;
            if (!vi.needsMrfWrite())
                stats.mrfWritesElided +=
                    static_cast<int>(vi.defLins.size());
            stats.predictedSavingsPJ += c.savings;
            stats.strandSavings[vi.strand] += c.savings;
        }
    }
    am.lrfPass.addSec(phaseWatch.lap());

    // ---- ORF pass (Figure 7, plus Sections 4.3 and 4.4) ----
    struct OrfCand
    {
        bool isRead;
        int idx;
        double prio;
    };
    std::vector<OrfCand> cands;
    for (int i = 0; i < static_cast<int>(values.size()); i++) {
        if (value_done[i])
            continue;
        const ValueInstance &vi = values[i];
        int full = static_cast<int>(vi.uses.size());
        double s = orfValueSavings(vi, em, full);
        if (s <= 0 && !opts_.partialRanges)
            continue;
        if (s <= 0) {
            // A partial range may still be profitable only if the full
            // range is unprofitable purely because of long occupancy;
            // energy-wise shorter ranges save strictly less, so skip.
            continue;
        }
        cands.push_back({false, i, priorityOf(s, valueInterval(vi, full))});
    }
    if (opts_.readOperands) {
        for (int i = 0; i < static_cast<int>(reads.size()); i++) {
            const ReadInstance &ri = reads[i];
            int full = static_cast<int>(ri.uses.size());
            double s = orfReadSavings(ri, em, full);
            if (s <= 0)
                continue;
            cands.push_back({true, i, priorityOf(s, readInterval(ri,
                                                                 full))});
        }
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const OrfCand &a, const OrfCand &b) {
                         return a.prio > b.prio;
                     });

    auto budget_of = [&](int strand) {
        if (strand < static_cast<int>(opts_.perStrandEntries.size()))
            return std::min(opts_.perStrandEntries[strand],
                            opts_.orfEntries);
        return opts_.orfEntries;
    };

    for (const OrfCand &c : cands) {
        if (!c.isRead) {
            const ValueInstance &vi = values[c.idx];
            int budget = budget_of(vi.strand);
            int full = static_cast<int>(vi.uses.size());
            for (int n = full; n >= (full == 0 ? 0 : 1); n--) {
                double s = orfValueSavings(vi, em, n);
                if (s <= 0)
                    break;  // shorter ranges save strictly less
                auto [b, e] = valueInterval(vi, n);
                int entry = vi.wide ? orf.findFreePair(b, e, budget)
                                    : orf.findFree(b, e, budget);
                if (entry < 0) {
                    if (!opts_.partialRanges)
                        break;
                    continue;
                }
                orf.allocate(entry, b, e);
                if (vi.wide)
                    orf.allocate(entry + 1, b, e);
                bool mrf_write = vi.needsMrfWrite() || n < full;
                annotateValueOrf(k, vi, entry, n, mrf_write);
                if (!mrf_write)
                    stats.mrfWritesElided +=
                        static_cast<int>(vi.defLins.size()) * vi.width();
                if (n == full)
                    stats.orfValuesFull++;
                else
                    stats.orfValuesPartial++;
                stats.predictedSavingsPJ += s;
                stats.strandSavings[vi.strand] += s;
                break;
            }
        } else {
            const ReadInstance &ri = reads[c.idx];
            int budget = budget_of(ri.strand);
            int full = static_cast<int>(ri.uses.size());
            for (int n = full; n >= 2; n--) {
                double s = orfReadSavings(ri, em, n);
                if (s <= 0)
                    break;
                auto [b, e] = readInterval(ri, n);
                int entry = orf.findFree(b, e, budget);
                if (entry < 0) {
                    if (!opts_.partialRanges)
                        break;
                    continue;
                }
                orf.allocate(entry, b, e);
                annotateReadOrf(k, ri, entry, n);
                if (n == full)
                    stats.orfReadsFull++;
                else
                    stats.orfReadsPartial++;
                stats.predictedSavingsPJ += s;
                stats.strandSavings[ri.strand] += s;
                break;
            }
        }
    }
    am.orfPass.addSec(phaseWatch.lap());
    am.lrfValues.add(static_cast<std::uint64_t>(stats.lrfValues));
    am.orfValuesFull.add(
        static_cast<std::uint64_t>(stats.orfValuesFull));
    am.orfValuesPartial.add(
        static_cast<std::uint64_t>(stats.orfValuesPartial));
    am.orfReads.add(static_cast<std::uint64_t>(stats.orfReadsFull +
                                               stats.orfReadsPartial));
    am.mrfWritesElided.add(
        static_cast<std::uint64_t>(stats.mrfWritesElided));

    return stats;
}

} // namespace rfh
