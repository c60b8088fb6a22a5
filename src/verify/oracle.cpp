#include "verify/oracle.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "compiler/allocator.h"
#include "compiler/strand.h"
#include "core/experiment.h"
#include "core/json.h"
#include "core/memo.h"
#include "core/scheme.h"
#include "ir/liveness.h"
#include "sim/sw_exec.h"
#include "sim/sw_exec_simt.h"
#include "sim/trace.h"

namespace rfh {

namespace {

/** First byte where two JSON documents differ, with context. */
std::string
describeJsonDiff(const std::string &a, const std::string &b)
{
    std::size_t n = std::min(a.size(), b.size());
    std::size_t i = 0;
    while (i < n && a[i] == b[i])
        i++;
    if (i == a.size() && i == b.size())
        return "";
    std::size_t from = i > 30 ? i - 30 : 0;
    std::ostringstream os;
    os << "JSON differs at byte " << i << ": ..."
       << a.substr(from, 60) << "... vs ..." << b.substr(from, 60)
       << "...";
    return os.str();
}

ExperimentConfig
configFor(Scheme scheme, const OracleOptions &opts, ExecEngine engine)
{
    ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.entries = opts.entries;
    cfg.engine = engine;
    return cfg;
}

void
applyPerturbation(OraclePerturb perturb, AccessCounts &counts)
{
    switch (perturb) {
      case OraclePerturb::NONE:
        break;
      case OraclePerturb::EXTRA_MRF_READ:
        counts.read(Level::MRF, Datapath::PRIVATE);
        break;
      case OraclePerturb::DROP_ORF_WRITE:
        if (counts.writes[static_cast<int>(Level::ORF)][0] > 0)
            counts.writes[static_cast<int>(Level::ORF)][0]--;
        else
            counts.write(Level::ORF, Datapath::PRIVATE);
        break;
    }
}

/** Binding state of one physical upper-level entry during the walk. */
struct Bind
{
    bool valid = false;
    Reg reg = 0;
    bool consumed = false;
    int defLin = -1;
    /**
     * The binding must be read before it dies. Only read-operand
     * deposits qualify: a deposit exists solely to feed later ORF
     * reads of the same instance, and the entry timeline holds the
     * entry until that happens. Definition writes cannot carry this
     * obligation — a dead value parks upper-level-only to elide its
     * MRF write, and a hammock-group member can share the group's
     * entry (and its MRF copy) while its own reads are MRF-pinned.
     */
    bool mustConsume = false;
};

/**
 * The instructions that may touch an outstanding long-latency register
 * inside a strand, on any CFG path. Like StrandAnalysis, the pending
 * set of a block is the union over its predecessor edges that do not
 * cross (StrandAnalysis::crosses), and a strand change inside a block
 * synchronises too. Outside the ideal model every back edge crosses,
 * so every in-strand predecessor comes first in layout and one pass in
 * layout order joins every path.
 */
std::vector<bool>
pendingTouches(const Kernel &k, const Cfg &cfg,
               const StrandAnalysis &strands)
{
    auto last_lin = [&](int b) {
        return k.blockStart(b) +
            static_cast<int>(k.blocks[b].instrs.size()) - 1;
    };
    std::vector<RegSet> pending_out(cfg.numBlocks());
    std::vector<bool> touches(k.numInstrs(), false);
    for (int b = 0; b < cfg.numBlocks(); b++) {
        RegSet pending;
        for (int p : cfg.preds(b))
            if (!strands.crosses(last_lin(p), k.blockStart(b)))
                pending |= pending_out[p];
        for (int lin = k.blockStart(b); lin <= last_lin(b); lin++) {
            if (lin > k.blockStart(b) && strands.crosses(lin - 1, lin))
                pending.reset();
            const Instruction &in = k.instr(lin);
            if (pending.any() &&
                ((usedRegs(in) | definedRegs(in)) & pending).any())
                touches[lin] = true;
            if (in.longLatency() && in.dst)
                pending |= definedRegs(in);
        }
        pending_out[b] = pending;
    }
    return touches;
}

} // namespace

std::string_view
findingKindName(FindingKind kind)
{
    switch (kind) {
      case FindingKind::EXEC_ERROR: return "exec-error";
      case FindingKind::DISCREPANCY: return "discrepancy";
      case FindingKind::INVARIANT: return "invariant";
    }
    return "?";
}

std::string
OracleReport::summary() const
{
    std::ostringstream os;
    if (truncated)
        return "oracle skipped: execution truncated by the "
               "instruction cap";
    if (ok()) {
        os << "oracle OK: " << pairsChecked << " pairs, "
           << invariantSites << " invariant sites";
        return os.str();
    }
    os << findings.size() << " finding(s):";
    for (const OracleFinding &f : findings)
        os << "\n  [" << findingKindName(f.kind) << "] " << f.check
           << ": " << f.detail;
    return os.str();
}

std::string
describeCountsDiff(const AccessCounts &a, const AccessCounts &b)
{
    static const char *kLevels[] = {"MRF", "ORF", "LRF"};
    static const char *kPaths[] = {"private", "shared"};
    std::ostringstream os;
    for (int l = 0; l < 3; l++) {
        for (int d = 0; d < 2; d++) {
            if (a.reads[l][d] != b.reads[l][d]) {
                os << "reads[" << kLevels[l] << "][" << kPaths[d]
                   << "]: " << a.reads[l][d] << " vs " << b.reads[l][d];
                return os.str();
            }
            if (a.writes[l][d] != b.writes[l][d]) {
                os << "writes[" << kLevels[l] << "][" << kPaths[d]
                   << "]: " << a.writes[l][d] << " vs "
                   << b.writes[l][d];
                return os.str();
            }
        }
    }
    if (a.wbReads != b.wbReads)
        return "wbReads: " + std::to_string(a.wbReads) + " vs " +
            std::to_string(b.wbReads);
    if (a.wbWrites != b.wbWrites)
        return "wbWrites: " + std::to_string(a.wbWrites) + " vs " +
            std::to_string(b.wbWrites);
    if (a.instructions != b.instructions)
        return "instructions: " + std::to_string(a.instructions) +
            " vs " + std::to_string(b.instructions);
    if (a.deschedules != b.deschedules)
        return "deschedules: " + std::to_string(a.deschedules) +
            " vs " + std::to_string(b.deschedules);
    return "";
}

std::vector<std::string>
checkAllocationInvariants(const Kernel &k, const AllocOptions &opts,
                          const AnalysisBundle &analyses,
                          const StrandAnalysis *shared,
                          int *sites_checked)
{
    std::vector<std::string> violations;
    int sites = 0;
    const int lrf_banks = opts.useLRF ? (opts.splitLRF ? 3 : 1) : 0;
    std::optional<StrandAnalysis> local;
    const StrandAnalysis &strands =
        strandsOf(k, opts.strandOptions, &analyses.cfg, shared, local);

    auto violate = [&](int lin, const std::string &msg) {
        violations.push_back("@lin " + std::to_string(lin) + ": " + msg);
    };
    // Outside the ideal model a touch of an outstanding long-latency
    // value must sit behind a strand crossing.
    const bool ideal = opts.strandOptions.idealNoFlush;
    const std::vector<bool> touches = ideal
        ? std::vector<bool>(k.numInstrs(), false)
        : pendingTouches(k, analyses.cfg, strands);

    for (int s = 0; s < strands.numStrands(); s++) {
        const Strand &st = strands.strand(s);
        std::vector<Bind> orf(opts.orfEntries);
        std::vector<Bind> lrf(lrf_banks);

        for (int lin = st.firstLin; lin <= st.lastLin; lin++) {
            const Instruction &in = k.instr(lin);
            const bool shared = isSharedUnit(in.unit());

            // End-of-strand bit: exactly the last instruction.
            bool wantEos = lin == st.lastLin;
            if (in.endOfStrand != wantEos)
                violate(lin, wantEos
                        ? "strand " + std::to_string(s) +
                          " ends without the end-of-strand bit"
                        : "end-of-strand bit set mid-strand");
            if (touches[lin])
                violate(lin, "instruction touches an outstanding "
                        "long-latency register inside a strand");

            // ---- Reads ----
            std::vector<std::pair<int, Reg>> deposits;
            auto check_read = [&](Reg r, const ReadAnnotation &ra) {
                sites++;
                switch (ra.level) {
                  case Level::MRF:
                    if (ra.depositToORF) {
                        if (ra.entry >=
                            static_cast<std::uint8_t>(opts.orfEntries)) {
                            violate(lin, "deposit to ORF entry " +
                                    std::to_string(ra.entry) +
                                    " exceeds capacity " +
                                    std::to_string(opts.orfEntries));
                            return;
                        }
                        deposits.emplace_back(ra.entry, r);
                    }
                    break;
                  case Level::ORF: {
                    if (ra.depositToORF) {
                        violate(lin, "deposit annotation on a non-MRF "
                                "read");
                        return;
                    }
                    if (ra.entry >=
                        static_cast<std::uint8_t>(opts.orfEntries)) {
                        violate(lin, "read from ORF entry " +
                                std::to_string(ra.entry) +
                                " exceeds capacity " +
                                std::to_string(opts.orfEntries));
                        return;
                    }
                    Bind &b = orf[ra.entry];
                    if (!b.valid || b.reg != r) {
                        violate(lin, "read of R" + std::to_string(r) +
                                " from ORF entry " +
                                std::to_string(ra.entry) +
                                " which holds " +
                                (b.valid ? "R" + std::to_string(b.reg)
                                         : std::string("nothing")));
                        return;
                    }
                    b.consumed = true;
                    break;
                  }
                  case Level::LRF: {
                    if (shared) {
                        violate(lin, "LRF read on the shared datapath");
                        return;
                    }
                    if (lrf_banks == 0 ||
                        ra.lrfBank >=
                            static_cast<std::uint8_t>(lrf_banks)) {
                        violate(lin, "read from LRF bank " +
                                std::to_string(ra.lrfBank) +
                                " exceeds capacity " +
                                std::to_string(lrf_banks));
                        return;
                    }
                    Bind &b = lrf[ra.lrfBank];
                    if (!b.valid || b.reg != r) {
                        violate(lin, "read of R" + std::to_string(r) +
                                " from LRF bank " +
                                std::to_string(ra.lrfBank) +
                                " which holds " +
                                (b.valid ? "R" + std::to_string(b.reg)
                                         : std::string("nothing")));
                        return;
                    }
                    b.consumed = true;
                    break;
                  }
                }
            };
            for (int slot = 0; slot < in.numSrcs; slot++)
                if (in.srcs[slot].isReg)
                    check_read(in.srcs[slot].reg, in.readAnno[slot]);
            if (in.pred)
                check_read(*in.pred, in.predAnno);
            for (auto [entry, r] : deposits) {
                Bind &b = orf[entry];
                if (b.valid && !b.consumed && b.mustConsume &&
                    b.reg != r)
                    violate(lin, "deposit rebinds ORF entry " +
                            std::to_string(entry) + " while R" +
                            std::to_string(b.reg) + " (def @lin " +
                            std::to_string(b.defLin) +
                            ") was never read from it");
                b.valid = true;
                b.reg = r;
                b.consumed = false;
                b.defLin = lin;
                b.mustConsume = true;
            }

            // ---- Writes ----
            if (!in.dst)
                continue;
            const WriteAnnotation &wa = in.writeAnno;
            sites++;
            if (!wa.toMRF && !wa.toORF && !wa.toLRF) {
                violate(lin, "definition written to no level at all");
                continue;
            }
            if (wa.toORF && wa.toLRF)
                violate(lin, "value written to both ORF and LRF");
            if (in.longLatency() && wa.anyUpper() && !ideal)
                violate(lin,
                        "long-latency result annotated to an upper "
                        "level");
            if (wa.toLRF) {
                if (in.wide) {
                    violate(lin, "wide value written to the LRF");
                } else if (shared && !opts.lrfAllowSharedProducers) {
                    violate(lin, "shared-datapath producer written to "
                            "the LRF");
                } else if (lrf_banks == 0 ||
                           wa.lrfBank >=
                               static_cast<std::uint8_t>(lrf_banks)) {
                    violate(lin, "write to LRF bank " +
                            std::to_string(wa.lrfBank) +
                            " exceeds capacity " +
                            std::to_string(lrf_banks));
                } else {
                    Bind &b = lrf[wa.lrfBank];
                    // Rebinding to the same register is a hammock-group
                    // refresh; a different register evicts, which is
                    // only legal once any must-read value has been
                    // read.
                    if (b.valid && !b.consumed && b.mustConsume &&
                        b.reg != *in.dst)
                        violate(lin, "LRF bank " +
                                std::to_string(wa.lrfBank) +
                                " rebound while R" +
                                std::to_string(b.reg) + " (def @lin " +
                                std::to_string(b.defLin) +
                                ") was never read from it");
                    b.valid = true;
                    b.reg = *in.dst;
                    b.consumed = false;
                    b.defLin = lin;
                    b.mustConsume = false;
                }
            }
            if (wa.toORF) {
                int halves = in.wide ? 2 : 1;
                for (int h = 0; h < halves; h++) {
                    int entry = wa.orfEntry + h;
                    if (entry >= opts.orfEntries) {
                        violate(lin, "write to ORF entry " +
                                std::to_string(entry) +
                                " exceeds capacity " +
                                std::to_string(opts.orfEntries));
                        continue;
                    }
                    Bind &b = orf[entry];
                    Reg r = static_cast<Reg>(*in.dst + h);
                    if (b.valid && !b.consumed && b.mustConsume &&
                        b.reg != r)
                        violate(lin, "ORF entry " +
                                std::to_string(entry) +
                                " rebound while R" +
                                std::to_string(b.reg) + " (def @lin " +
                                std::to_string(b.defLin) +
                                ") was never read from it");
                    b.valid = true;
                    b.reg = r;
                    b.consumed = false;
                    b.defLin = lin;
                    b.mustConsume = false;
                }
            }
            if (!wa.toMRF) {
                // MRF elision is only sound when no actual read of
                // this definition happens outside the strand: upper
                // levels flush at strand crossings, so such a read
                // could only be served by the MRF. Reaching defs give
                // exactly this definition's reachable use sites —
                // unlike liveness, whose merge semantics mark the
                // destination of a later *predicated* redefinition as
                // a use even though a predicated-off instruction
                // performs no read. A use earlier in the strand than
                // the def is a read reached around a backward edge,
                // which also leaves the strand (backward branches cut
                // strands).
                int halves = in.wide ? 2 : 1;
                for (int h = 0; h < halves; h++) {
                    Reg r = static_cast<Reg>(*in.dst + h);
                    bool read_outside = false;
                    for (DefId g : analyses.reachingDefs.defsAt(lin)) {
                        if (analyses.reachingDefs.defReg(g) != r)
                            continue;
                        for (const UseSite &u :
                             analyses.reachingDefs.uses(g))
                            if (u.lin <= lin || u.lin > st.lastLin)
                                read_outside = true;
                    }
                    if (read_outside)
                        violate(lin, "MRF write of R" +
                                std::to_string(r) +
                                " elided although the value is read "
                                "outside strand " + std::to_string(s));
                }
            }
        }

        // ---- Strand end: every upper-level value must be consumed ----
        for (int e = 0; e < static_cast<int>(orf.size()); e++)
            if (orf[e].valid && !orf[e].consumed &&
                orf[e].mustConsume)
                violate(st.lastLin, "R" + std::to_string(orf[e].reg) +
                        " (def @lin " + std::to_string(orf[e].defLin) +
                        ") written to ORF entry " + std::to_string(e) +
                        " but never read before the end of strand " +
                        std::to_string(s));
        for (int bank = 0; bank < static_cast<int>(lrf.size()); bank++)
            if (lrf[bank].valid && !lrf[bank].consumed &&
                lrf[bank].mustConsume)
                violate(st.lastLin, "R" +
                        std::to_string(lrf[bank].reg) + " (def @lin " +
                        std::to_string(lrf[bank].defLin) +
                        ") written to LRF bank " +
                        std::to_string(bank) +
                        " but never read before the end of strand " +
                        std::to_string(s));
    }

    if (sites_checked)
        *sites_checked = sites;
    return violations;
}

OracleReport
runOracle(const Kernel &k, const OracleOptions &opts)
{
    OracleReport report;
    auto finding = [&](FindingKind kind, std::string check,
                       std::string detail) {
        report.findings.push_back(
            {kind, std::move(check), std::move(detail)});
    };

    Workload w;
    w.name = k.name;
    w.suite = "fuzz";
    w.kernel = k;
    w.run = opts.run;

    // A kernel whose trace has a stream cut by the per-warp cap (one
    // with an end lin) is truncated: the engines cut the dynamic
    // stream at slightly different points, so counts are not
    // comparable and there is no verdict. Generated fuzz kernels
    // always terminate; a shrink candidate whose loop exit got demoted
    // away lands here and is rejected as "not failing" rather than
    // producing a bogus repro.
    const std::shared_ptr<const DecodedTrace> trace =
        globalExperimentCache().trace(k, opts.run);
    if (std::any_of(trace->streamEndLin.begin(), trace->streamEndLin.end(),
                    [](std::int32_t end) { return end >= 0; })) {
        report.truncated = true;
        return report;
    }

    // ---- Direct vs replay for every registered scheme ----
    // The registry enumerates in registration order, which keeps the
    // paper schemes in their historic sequence (base, hw2, hw3, sw2,
    // sw3) ahead of the contributed backends. New backends join the
    // sweep automatically the moment they register.
    AccessCounts baselineCounts;
    std::vector<std::pair<const SchemeInfo *, AccessCounts>>
        directCounts;
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes()) {
        if (si->caps.hwManaged && !opts.checkHwSchemes)
            continue;
        std::string tag(si->tag);
        RunOutcome direct = runScheme(
            w, configFor(si->scheme, opts, ExecEngine::DIRECT));
        RunOutcome replay = runScheme(
            w, configFor(si->scheme, opts, ExecEngine::REPLAY));
        if (si->scheme == Scheme::BASELINE)
            baselineCounts = direct.counts;
        if (!direct.ok())
            finding(FindingKind::EXEC_ERROR, tag + "/direct",
                    direct.error);
        if (!replay.ok())
            finding(FindingKind::EXEC_ERROR, tag + "/replay",
                    replay.error);
        if (si->scheme == Scheme::SW_THREE_LEVEL)
            applyPerturbation(opts.perturb, replay.counts);
        std::string diff = describeJsonDiff(outcomeToJson(direct),
                                            outcomeToJson(replay));
        if (!diff.empty())
            finding(FindingKind::DISCREPANCY,
                    tag + "/direct-vs-replay", diff);
        report.pairsChecked++;
        directCounts.emplace_back(si, direct.counts);
    }

    // ---- Pipeline vs functional for every pipelined scheme ----
    // The cycle-level pipeline accounts accesses at issue
    // (sim/pipeline_account.h), so its totals must equal the
    // functional path's exactly — for any scheduler interleaving. A
    // REPLAY perf run's counts are the pipeline's (it is that run's
    // execute pass). Compressed latencies keep the fuzz battery fast;
    // counts are timing-invariant by construction, which is exactly
    // the property under test.
    ExperimentConfig timedCfg =
        configFor(Scheme::BASELINE, opts, ExecEngine::REPLAY);
    timedCfg.perf = true;
    timedCfg.pipeline.aluLatency = 2;
    timedCfg.pipeline.sfuLatency = 3;
    timedCfg.pipeline.sharedMemLatency = 3;
    timedCfg.pipeline.texLatency = 6;
    timedCfg.pipeline.dramLatency = 6;
    for (const auto &[si, counts] : directCounts) {
        if (!si->caps.pipelined)
            continue;
        std::string tag(si->tag);
        timedCfg.scheme = si->scheme;
        RunOutcome timed = runScheme(w, timedCfg);
        report.pairsChecked++;
        if (!timed.ok())
            finding(FindingKind::EXEC_ERROR, tag + "/pipeline",
                    timed.error);
        else if (std::string diff =
                     describeCountsDiff(timed.counts, counts);
                 !diff.empty())
            finding(FindingKind::DISCREPANCY,
                    tag + "/pipeline-vs-functional", diff);
    }

    // ---- Per-backend conservation against the flat baseline ----
    // Allocator-based schemes run their conservation check below on
    // the freshly annotated kernel; everything else checks the direct
    // counts from the differential sweep here.
    for (const auto &[si, counts] : directCounts) {
        if (si->caps.usesAllocator || si->scheme == Scheme::BASELINE)
            continue;
        for (const std::string &v :
             si->backend->checkConservation(counts, baselineCounts))
            finding(FindingKind::INVARIANT,
                    std::string(si->tag) + "/conservation", v);
        report.pairsChecked++;
    }

    // ---- Software schemes: invariants, conservation, SIMT pairs ----
    auto bundle = globalExperimentCache().analyses(k);
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes()) {
        if (!si->caps.usesAllocator)
            continue;
        const Scheme scheme = si->scheme;
        std::string tag(si->tag);
        ExperimentConfig cfg = configFor(scheme, opts, ExecEngine::AUTO);
        AllocOptions ao = cfg.allocOptions();
        Kernel annotated = k;
        HierarchyAllocator(cfg.energy, ao).run(annotated, bundle.get());

        int sites = 0;
        for (const std::string &v : checkAllocationInvariants(
                 annotated, ao, *bundle, nullptr, &sites))
            finding(FindingKind::INVARIANT, tag + "/invariants", v);
        report.invariantSites += sites;

        SwExecResult scalar =
            runSwHierarchy(annotated, ao, opts.run, bundle.get());
        if (!scalar.ok())
            finding(FindingKind::EXEC_ERROR, tag + "/scalar",
                    scalar.error);

        // Dynamic conservation against the flat MRF, as defined by
        // the backend (for the paper's software hierarchy: every
        // register operand read is serviced at exactly one level,
        // every enabled definition lands in at least one level, and
        // the MRF sees no more writes than the baseline).
        for (const std::string &v : si->backend->checkConservation(
                 scalar.counts, baselineCounts))
            finding(FindingKind::INVARIANT, tag + "/conservation", v);
        report.pairsChecked++;

        if (!opts.checkSimt)
            continue;

        // Scalar vs SIMT at width 1: identical seeding, identical
        // paths, identical warp-level counts.
        SimtExecConfig width1;
        width1.numWarps = opts.run.numWarps;
        width1.width = 1;
        width1.maxInstrsPerWarp = opts.run.maxInstrsPerWarp;
        SwExecResult simt1 = runSwHierarchySimt(annotated, ao, width1);
        if (!simt1.ok())
            finding(FindingKind::EXEC_ERROR, tag + "/simt-w1",
                    simt1.error);
        std::string diff1 = describeCountsDiff(scalar.counts,
                                               simt1.counts);
        if (!diff1.empty())
            finding(FindingKind::DISCREPANCY,
                    tag + "/scalar-vs-simt-w1", diff1);
        report.pairsChecked++;

        // Full-width SIMT: per-lane verification of divergent warps
        // (an allocation only correct for converged warps fails here).
        SimtExecConfig wide = width1;
        wide.width = opts.simtWidth;
        SwExecResult simtW = runSwHierarchySimt(annotated, ao, wide);
        if (!simtW.ok())
            finding(FindingKind::EXEC_ERROR, tag + "/simt-direct",
                    simtW.error);
    }

    return report;
}

} // namespace rfh
