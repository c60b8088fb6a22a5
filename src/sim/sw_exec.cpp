#include "sim/sw_exec.h"

#include <array>
#include <optional>
#include <sstream>

#include "compiler/strand.h"
#include "core/metrics.h"
#include "ir/liveness.h"
#include "sim/machine.h"
#include "sim/pipeline_account.h"
#include "sim/trace.h"

namespace rfh {

namespace {

/** One physical upper-level entry of a warp. */
struct Slot
{
    bool valid = false;
    Reg reg = 0;
    std::uint32_t value = 0;
};

/**
 * Software-scheme observability, fed by both execution drivers. Only
 * the direct executor checks values, so only it can fail.
 */
void
noteSwRun(const AccessCounts &counts, bool replay, bool failed)
{
    static Counter &runs = globalMetrics().counter("sim.sw.runs");
    static Counter &replays =
        globalMetrics().counter("sim.sw.runs.replay");
    static Counter &instrs = globalMetrics().counter("sim.sw.instrs");
    static Counter &deschedules =
        globalMetrics().counter("sim.sw.deschedules");
    static Counter &failures =
        globalMetrics().counter("sim.sw.verifyFailures");
    runs.add();
    if (replay)
        replays.add();
    instrs.add(counts.instructions);
    deschedules.add(counts.deschedules);
    if (failed)
        failures.add();
}

} // namespace

SwExecResult
runSwHierarchy(const Kernel &k, const AllocOptions &opts,
               const RunConfig &run, const AnalysisBundle *analyses,
               const StrandAnalysis *sharedStrands)
{
    SwExecResult result;
    AccessCounts &counts = result.counts;
    int lrf_banks = opts.useLRF ? (opts.splitLRF ? 3 : 1) : 0;
    const bool ideal = opts.strandOptions.idealNoFlush;
    std::optional<StrandAnalysis> localStrands;
    const StrandAnalysis &strands =
        strandsOf(k, opts.strandOptions, analyses ? &analyses->cfg : nullptr,
                  sharedStrands, localStrands);

    auto fail = [&](int lin, const std::string &msg) {
        std::ostringstream os;
        os << k.name << " @lin " << lin << ": " << msg;
        result.error = os.str();
    };

    // Read-operand deposits happen in the write phase, after every
    // source of an instruction has been fetched. Hoisted out of the
    // hot loop so the per-instruction cost is a clear(), not a heap
    // allocation.
    std::vector<std::pair<int, Reg>> deposits;
    deposits.reserve(kMaxSrcs + 1);

    for (int w = 0; w < run.numWarps && result.ok(); w++) {
        WarpContext warp;
        warp.reset(static_cast<std::uint32_t>(w));

        // Shadow of the values that actually reached the MRF.
        std::array<std::uint32_t, kMaxRegs> mrf = warp.regs;
        std::vector<Slot> orf(opts.orfEntries);
        std::vector<Slot> lrf(lrf_banks);
        RegSet pending;
        std::uint64_t executed = 0;

        while (!warp.done && executed < run.maxInstrsPerWarp &&
               result.ok()) {
            int lin = warp.pc(k);
            const Instruction &in = k.instr(lin);
            Datapath dp = datapathOf(in.unit());
            bool shared = isSharedUnit(in.unit());

            // A well-formed strand never stalls mid-strand: any use of
            // an outstanding long-latency value must sit right after an
            // end-of-strand marker.
            RegSet touched = usedRegs(in) | definedRegs(in);
            if ((touched & pending).any()) {
                if (ideal) {
                    // Warp deschedules; entries persist (Section 7).
                    counts.deschedules++;
                    pending.reset();
                } else {
                    fail(lin, "instruction touches an outstanding "
                         "long-latency register inside a strand");
                    break;
                }
            }

            // ---- Operand reads ----
            deposits.clear();
            auto read_one = [&](Reg r, const ReadAnnotation &ra) {
                std::uint32_t arch = warp.regs[r];
                if ((ra.level == Level::ORF || ra.depositToORF) &&
                    ra.entry >= orf.size()) {
                    fail(lin, "ORF entry out of range");
                    return;
                }
                switch (ra.level) {
                  case Level::MRF:
                    counts.read(Level::MRF, dp);
                    if (mrf[r] != arch) {
                        fail(lin, "MRF read of R" + std::to_string(r) +
                             " returns a stale value");
                        return;
                    }
                    if (ra.depositToORF) {
                        deposits.emplace_back(ra.entry, r);
                        counts.write(Level::ORF, dp);
                    }
                    break;
                  case Level::ORF: {
                    const Slot &s = orf[ra.entry];
                    counts.read(Level::ORF, dp);
                    if (!s.valid || s.reg != r || s.value != arch) {
                        fail(lin, "ORF entry " +
                             std::to_string(ra.entry) +
                             " does not hold R" + std::to_string(r) +
                             " (valid=" + std::to_string(s.valid) +
                             " reg=R" + std::to_string(s.reg) +
                             " value=" + std::to_string(s.value) +
                             " arch=" + std::to_string(arch) + ")");
                    }
                    break;
                  }
                  case Level::LRF: {
                    if (shared) {
                        fail(lin, "shared-datapath LRF read");
                        return;
                    }
                    if (ra.lrfBank >= lrf.size()) {
                        fail(lin, "LRF bank out of range");
                        return;
                    }
                    const Slot &s = lrf[ra.lrfBank];
                    counts.read(Level::LRF, dp);
                    if (!s.valid || s.reg != r || s.value != arch) {
                        fail(lin, "LRF bank " +
                             std::to_string(ra.lrfBank) +
                             " does not hold R" + std::to_string(r));
                    }
                    break;
                  }
                }
            };
            for (int s = 0; s < in.numSrcs && result.ok(); s++)
                if (in.srcs[s].isReg)
                    read_one(in.srcs[s].reg, in.readAnno[s]);
            if (in.pred && result.ok())
                read_one(*in.pred, in.predAnno);
            if (!result.ok())
                break;
            for (auto [entry, r] : deposits) {
                Slot &s = orf[entry];
                s.valid = true;
                s.reg = r;
                s.value = warp.regs[r];
            }

            // ---- Execute ----
            bool enabled = !in.pred || warp.regs[*in.pred] != 0;
            counts.instructions++;
            step(k, warp);
            executed++;

            // ---- Result writes (suppressed when predicated off) ----
            if (in.dst && enabled) {
                const WriteAnnotation &wa = in.writeAnno;
                int halves = in.wide ? 2 : 1;
                if (in.longLatency() && wa.anyUpper() && !ideal) {
                    fail(lin, "long-latency result annotated to an "
                         "upper level");
                    break;
                }
                if (wa.toLRF) {
                    if (in.wide || lrf.empty()) {
                        fail(lin, "invalid LRF write annotation");
                        break;
                    }
                    if (wa.lrfBank >= lrf.size()) {
                        fail(lin, "LRF bank out of range");
                        break;
                    }
                    Slot &s = lrf[wa.lrfBank];
                    s.valid = true;
                    s.reg = *in.dst;
                    s.value = warp.regs[*in.dst];
                    counts.write(Level::LRF, dp);
                }
                if (wa.toORF) {
                    for (int h = 0; h < halves; h++) {
                        if (wa.orfEntry + h >=
                            static_cast<int>(orf.size())) {
                            fail(lin, "ORF entry out of range");
                            break;
                        }
                        Slot &s = orf[wa.orfEntry + h];
                        s.valid = true;
                        s.reg = static_cast<Reg>(*in.dst + h);
                        s.value = warp.regs[*in.dst + h];
                        counts.write(Level::ORF, dp);
                    }
                }
                if (wa.toLRF && wa.toORF) {
                    fail(lin, "value written to both LRF and ORF");
                    break;
                }
                if (wa.toMRF) {
                    for (int h = 0; h < halves; h++) {
                        mrf[*in.dst + h] = warp.regs[*in.dst + h];
                        counts.write(Level::MRF, dp);
                    }
                }
                if (in.longLatency())
                    pending |= definedRegs(in);
            }

            // ---- Strand boundary ----
            // Control passing into a different strand — or re-entering
            // the current strand through a backward edge — invalidates
            // the upper levels and deschedules the warp if a
            // long-latency operation is outstanding.
            if (!warp.done && strands.crosses(lin, warp.pc(k))) {
                if (pending.any()) {
                    counts.deschedules++;
                    pending.reset();
                }
                for (auto &s : orf)
                    s.valid = false;
                for (auto &s : lrf)
                    s.valid = false;
            }
        }

    }
    noteSwRun(counts, /*replay=*/false, !result.ok());
    return result;
}

namespace {

/**
 * Per-record counting deltas of one static instruction under its
 * current annotations: reads happen on every dynamic record (operands
 * are fetched before the predicate squashes the instruction), writes
 * only on executed records with a destination. All deltas land on the
 * instruction's own datapath.
 */
struct SwLinCost
{
    std::uint8_t reads[3] = {0, 0, 0};  ///< Per level.
    std::uint8_t depositWrites = 0;     ///< ORF writes from deposits.
    std::uint8_t wLRF = 0, wORF = 0, wMRF = 0;  ///< Executed-only.
};

/** Scan the annotated kernel once: the cost of each instruction. */
std::vector<SwLinCost>
scanSwAnnotations(const Kernel &k)
{
    std::vector<SwLinCost> cost(static_cast<std::size_t>(k.numInstrs()));
    for (int lin = 0; lin < k.numInstrs(); lin++) {
        const Instruction &in = k.instr(lin);
        SwLinCost &c = cost[static_cast<std::size_t>(lin)];
        auto scan_read = [&](const ReadAnnotation &ra) {
            c.reads[static_cast<int>(ra.level)]++;
            if (ra.level == Level::MRF && ra.depositToORF)
                c.depositWrites++;
        };
        for (int s = 0; s < in.numSrcs; s++)
            if (in.srcs[s].isReg)
                scan_read(in.readAnno[s]);
        if (in.pred)
            scan_read(in.predAnno);
        if (in.dst) {
            const WriteAnnotation &wa = in.writeAnno;
            const auto halves = static_cast<std::uint8_t>(in.wide ? 2 : 1);
            c.wLRF = wa.toLRF;
            c.wORF = wa.toORF ? halves : 0;
            c.wMRF = wa.toMRF ? halves : 0;
        }
    }
    return cost;
}

/** First set bit of @p words in [@p from, @p end), or @p end. */
std::uint32_t
nextSetBit(const std::vector<std::uint64_t> &words, std::uint32_t from,
           std::uint32_t end)
{
    if (from >= end)
        return end;
    std::uint32_t w = from / 64;
    const std::uint32_t last = (end - 1) / 64;
    std::uint64_t word = words[w] & (~std::uint64_t{0} << (from % 64));
    while (true) {
        if (word) {
            std::uint32_t t = w * 64 + __builtin_ctzll(word);
            return t < end ? t : end;
        }
        if (w == last)
            return end;
        word = words[++w];
    }
}

/**
 * Per-record accounting of the software hierarchy over an allocation
 * that passed checkAllocationInvariants: annotated-level counting,
 * one warp per accountant, for the cycle-level pipeline at issue. The
 * check has ruled out every structural fault, so a touch of an
 * outstanding long-latency value can only be the ideal model's
 * deschedule. Annotated-MRF operands enter the collector; ORF/LRF
 * operands bypass the banks (the single-cycle upper levels of
 * Section 4).
 */
class SwWarpAccountant final : public WarpAccountant
{
  public:
    SwWarpAccountant(const Kernel &k, const ReplayDecode &dec,
                     const StrandAnalysis &strands, AccessCounts &counts)
        : k_(k), dec_(dec), strands_(strands), counts_(counts)
    {
    }

    void
    onIssue(int lin, bool enabled, bool /*taken*/, std::int32_t nextLin,
            OperandPlan &plan) override
    {
        // Annotations come from the annotated kernel, structure from
        // the (possibly shared) decode.
        const Instruction &in = k_.instr(lin);
        const ReplayOp &o = dec_.op[static_cast<std::size_t>(lin)];
        const Datapath dp = static_cast<Datapath>(o.dp);

        if ((dec_.touched[static_cast<std::size_t>(lin)] & pending_)
                .any()) {
            counts_.deschedules++;
            pending_.reset();
        }

        // ---- Operand reads: annotated level accounting ----
        auto read_one = [&](Reg r, const ReadAnnotation &ra) {
            counts_.read(ra.level, dp);
            if (ra.level == Level::MRF) {
                plan.mrfReg[plan.numMrf++] = r;
                if (ra.depositToORF)
                    counts_.write(Level::ORF, dp);
            } else {
                plan.numBypass++;
            }
        };
        for (int s = 0; s < in.numSrcs; s++)
            if (in.srcs[s].isReg)
                read_one(in.srcs[s].reg, in.readAnno[s]);
        if (in.pred)
            read_one(*in.pred, in.predAnno);

        counts_.instructions++;

        // ---- Result writes (suppressed when predicated off) ----
        if (o.dst >= 0 && enabled) {
            const WriteAnnotation &wa = in.writeAnno;
            if (wa.toLRF)
                counts_.write(Level::LRF, dp);
            if (wa.toORF)
                counts_.write(Level::ORF, dp, o.halves);
            if (wa.toMRF)
                counts_.write(Level::MRF, dp, o.halves);
            if (o.flags & kOpLongLat)
                pending_ |= dec_.defined[static_cast<std::size_t>(lin)];
        }

        // ---- Strand boundary ----
        if (pending_.any() && nextLin >= 0 &&
            strands_.crosses(lin, nextLin)) {
            counts_.deschedules++;
            pending_.reset();
        }
    }

  private:
    const Kernel &k_;
    const ReplayDecode &dec_;
    const StrandAnalysis &strands_;
    AccessCounts &counts_;
    RegSet pending_;
};

/** Accounting factory for the software hierarchy. */
class SwAccounting final : public AccountingOf<SwWarpAccountant>
{
  public:
    SwAccounting(const Kernel &k, const AllocOptions &opts,
                 const AnalysisBundle *analyses, const ReplayDecode *dec,
                 const StrandAnalysis *strands, AccessCounts &counts)
        : AccountingOf(counts), k_(k),
          strands_(strandsOf(k, opts.strandOptions,
                             analyses ? &analyses->cfg : nullptr, strands,
                             localStrands_)),
          dec_(dec ? dec : &localDec_.emplace(k))
    {
    }

  protected:
    std::unique_ptr<SwWarpAccountant>
    newWarp() override
    {
        return std::make_unique<SwWarpAccountant>(k_, *dec_, strands_,
                                                  counts_);
    }

  private:
    const Kernel &k_;
    std::optional<StrandAnalysis> localStrands_;
    const StrandAnalysis &strands_;
    std::optional<ReplayDecode> localDec_;
    const ReplayDecode *dec_;
};

} // namespace

AccessCounts
replaySwHierarchy(const Kernel &k, const AllocOptions &opts,
                  const DecodedTrace &trace,
                  const AnalysisBundle *analyses,
                  const ReplayDecode *sharedDec,
                  const StrandAnalysis *sharedStrands)
{
    // Every count is a sum over dynamic records of a per-instruction
    // delta, so instead of walking the stream doing per-record
    // annotation dispatch, apply each instruction's delta once, scaled
    // by the trace's weighted per-instruction record counts —
    // byte-identical totals in O(instrs) work. Only the deschedule
    // count is order-dependent; a dedicated pass handles it once per
    // distinct warp stream, by bit-scanning directly between the rare
    // records that can make a long-latency register outstanding.
    const int n = k.numInstrs();
    std::optional<ReplayDecode> localDec;
    const ReplayDecode &dec = sharedDec ? *sharedDec : localDec.emplace(k);
    std::optional<StrandAnalysis> localStrands;
    const StrandAnalysis &strands =
        strandsOf(k, opts.strandOptions, analyses ? &analyses->cfg : nullptr,
                  sharedStrands, localStrands);
    const std::vector<SwLinCost> cost = scanSwAnnotations(k);
    AccessCounts counts;

    // ---- Deschedule pass, once per stream ----
    // pending can only become non-empty at an executed long-latency
    // record with a destination (llWords); while it is empty every
    // other record is a no-op for this pass, so skip between set bits.
    // The allocation check leaves a mid-strand touch of an outstanding
    // register to the ideal model, where it deschedules.
    for (int s = 0; s < trace.numStreams(); s++) {
        const std::uint32_t end = trace.streamBegin[s + 1];
        std::uint32_t t = trace.streamBegin[s];
        std::uint64_t deschedules = 0;
        RegSet pending;
        while (t < end) {
            const bool first_ll = pending.none();
            if (first_ll) {
                t = nextSetBit(trace.llWords, t, end);
                if (t == end)
                    break;
            }
            const int lin = trace.lin[t];
            if (!first_ll && (dec.touched[lin] & pending).any()) {
                deschedules++;
                pending.reset();
            }
            if ((trace.llWords[t / 64] >> (t % 64)) & 1u)
                pending |= dec.defined[lin];
            if (pending.any()) {
                const std::int32_t next = trace.nextLin(s, t);
                if (next >= 0 && strands.crosses(lin, next)) {
                    deschedules++;
                    pending.reset();
                }
            }
            t++;
        }
        counts.deschedules += deschedules * trace.multiplicity[s];
    }

    // ---- Access counting: per-instruction deltas ----
    for (int lin = 0; lin < n; lin++) {
        const std::uint64_t all = trace.linRecords[lin];
        if (all == 0)
            continue;
        const std::uint64_t ex = trace.linExecuted[lin];
        const SwLinCost &c = cost[lin];
        const Datapath dp = static_cast<Datapath>(dec.op[lin].dp);
        for (int l = 0; l < 3; l++)
            counts.read(static_cast<Level>(l), dp, c.reads[l] * all);
        counts.write(Level::ORF, dp,
                     c.depositWrites * all + c.wORF * ex);
        if (c.wLRF)
            counts.write(Level::LRF, dp, c.wLRF * ex);
        if (c.wMRF)
            counts.write(Level::MRF, dp, c.wMRF * ex);
    }
    counts.instructions = trace.instructions();
    noteSwRun(counts, /*replay=*/true, /*failed=*/false);
    return counts;
}

std::unique_ptr<PipelineAccounting>
makeSwHierarchyAccounting(const Kernel &k, const AllocOptions &opts,
                          const AnalysisBundle *analyses,
                          const ReplayDecode *dec, AccessCounts &counts,
                          const StrandAnalysis *strands)
{
    return std::make_unique<SwAccounting>(k, opts, analyses, dec, strands,
                                          counts);
}

} // namespace rfh
