/**
 * @file
 * The in-tree scheme backends: the paper's five register-file
 * organisations plus the competing designs from the literature
 * (compiler-assisted RFC, RegDem shared-memory spilling, GREENER
 * power-gated banks), registered by registerBuiltinSchemes() in the
 * fixed order that gives the paper schemes their historic ids.
 */

#include <string>

#include "compiler/allocator.h"
#include "core/experiment.h"
#include "core/scheme.h"
#include "sim/cc_rfc.h"
#include "sim/greener.h"
#include "sim/hw_cache.h"
#include "sim/pipeline_account.h"
#include "sim/regdem.h"
#include "sim/sw_exec.h"

namespace rfh {

namespace {

/** Flat single-level MRF: the memoized baseline counts verbatim. */
class BaselineScheme : public SchemeBackend
{
  public:
    SchemeSimResult
    simulate(const SchemeRunContext &ctx) const override
    {
        SchemeSimResult r;
        r.counts = *ctx.baseline;
        return r;
    }

    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        return makeFlatAccounting(*ctx.kernel, ctx.decode, *ctx.counts);
    }
};

/**
 * Conservation laws of a hardware-managed cache over the flat MRF.
 * Demand traffic (everything except the wb-tagged writeback overhead)
 * must match the baseline access for access. With @p exactWrites the
 * write law is an equality (two-level caches: every untagged write is
 * a demand write); the three-level cache's LRF-to-RFC spill counts an
 * untagged movement write into the RFC, so there the law weakens to a
 * lower bound plus an MRF-side upper bound.
 */
std::vector<std::string>
hwConservation(const AccessCounts &c, const AccessCounts &baseline,
               bool exactWrites)
{
    std::vector<std::string> v;
    const std::uint64_t demandReads = c.allReads() - c.wbReads;
    const std::uint64_t demandWrites = c.allWrites() - c.wbWrites;
    if (demandReads != baseline.totalReads(Level::MRF))
        v.push_back("demand reads " + std::to_string(demandReads) +
                    " != baseline reads " +
                    std::to_string(baseline.totalReads(Level::MRF)));
    if (c.instructions != baseline.instructions)
        v.push_back("instructions " + std::to_string(c.instructions) +
                    " != baseline " +
                    std::to_string(baseline.instructions));
    if (exactWrites) {
        if (demandWrites != baseline.totalWrites(Level::MRF))
            v.push_back(
                "demand writes " + std::to_string(demandWrites) +
                " != baseline writes " +
                std::to_string(baseline.totalWrites(Level::MRF)));
    } else if (demandWrites < baseline.totalWrites(Level::MRF)) {
        v.push_back("demand writes " + std::to_string(demandWrites) +
                    " below baseline writes " +
                    std::to_string(baseline.totalWrites(Level::MRF)) +
                    " (a definition reached no level)");
    }
    // Every MRF write is either a demand write (bounded by the
    // baseline) or a tagged writeback.
    if (c.totalWrites(Level::MRF) >
        baseline.totalWrites(Level::MRF) + c.wbWrites)
        v.push_back(
            "MRF writes " + std::to_string(c.totalWrites(Level::MRF)) +
            " exceed baseline writes " +
            std::to_string(baseline.totalWrites(Level::MRF)) +
            " plus writebacks " + std::to_string(c.wbWrites));
    return v;
}

/** Hardware-managed RFC (two-level) / RFC+LRF (three-level). */
class HwCacheScheme : public SchemeBackend
{
  public:
    explicit HwCacheScheme(bool threeLevel) : threeLevel_(threeLevel) {}

    std::vector<std::string>
    checkConservation(const AccessCounts &c,
                      const AccessCounts &baseline) const override
    {
        return hwConservation(c, baseline,
                              /*exactWrites=*/!threeLevel_);
    }

    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        HwCacheConfig hc;
        hc.rfcEntries = ctx.cfg->entries;
        hc.useLRF = threeLevel_;
        hc.flushOnBackwardBranch = ctx.cfg->hwFlushOnBackwardBranch;
        return makeHwCacheAccounting(*ctx.kernel, hc, ctx.analyses,
                                     ctx.decode, *ctx.counts);
    }

  private:
    bool threeLevel_;
};

/** Compiler-managed ORF (two-level) / ORF+LRF (three-level). */
class SwHierarchyScheme : public SchemeBackend
{
  public:
    explicit SwHierarchyScheme(bool threeLevel)
        : threeLevel_(threeLevel)
    {
    }

    AllocOptions
    allocOptions(const ExperimentConfig &cfg) const override
    {
        AllocOptions a = SchemeBackend::allocOptions(cfg);
        a.useLRF = threeLevel_;
        a.splitLRF = a.useLRF && cfg.splitLRF;
        return a;
    }

    AllocStats
    allocate(Kernel &k, const ExperimentConfig &cfg,
             const AnalysisBundle *analyses) const override
    {
        HierarchyAllocator alloc(cfg.energy, allocOptions(cfg));
        return alloc.run(k, analyses);
    }

    SchemeSimResult
    simulate(const SchemeRunContext &ctx) const override
    {
        SwExecConfig sc;
        sc.run = ctx.workload->run;
        sc.idealNoFlush = ctx.cfg->idealNoFlush;
        const AllocOptions ao = allocOptions(*ctx.cfg);
        // Annotations never change the dynamic path, so the pristine
        // kernel's trace replays the annotated copy exactly.
        SwExecResult res =
            ctx.trace ? replaySwHierarchy(*ctx.kernel, ao, *ctx.trace,
                                          sc, ctx.analyses)
                      : runSwHierarchy(*ctx.kernel, ao, sc,
                                       ctx.analyses);
        SchemeSimResult r;
        r.counts = res.counts;
        r.error = res.error;
        return r;
    }

    bool
    splitLrfEnergy(const ExperimentConfig &cfg) const override
    {
        return threeLevel_ && cfg.splitLRF;
    }

    std::vector<std::string>
    checkConservation(const AccessCounts &c,
                      const AccessCounts &baseline) const override
    {
        // Every register operand read is serviced at exactly one
        // level, every enabled definition lands in at least one
        // level, and the MRF sees no more writes than the baseline.
        std::vector<std::string> v;
        if (c.allReads() != baseline.totalReads(Level::MRF))
            v.push_back(
                "total reads " + std::to_string(c.allReads()) +
                " != baseline reads " +
                std::to_string(baseline.totalReads(Level::MRF)));
        if (c.instructions != baseline.instructions)
            v.push_back("instructions " +
                        std::to_string(c.instructions) +
                        " != baseline " +
                        std::to_string(baseline.instructions));
        if (c.totalWrites(Level::MRF) >
            baseline.totalWrites(Level::MRF))
            v.push_back(
                "MRF writes " +
                std::to_string(c.totalWrites(Level::MRF)) +
                " exceed baseline writes " +
                std::to_string(baseline.totalWrites(Level::MRF)));
        if (c.allWrites() < baseline.totalWrites(Level::MRF))
            v.push_back(
                "total writes " + std::to_string(c.allWrites()) +
                " below baseline writes " +
                std::to_string(baseline.totalWrites(Level::MRF)) +
                " (a definition reached no level)");
        if (c.wbReads != 0 || c.wbWrites != 0)
            v.push_back("software scheme reported writeback traffic");
        return v;
    }

    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        SwExecConfig sc;
        sc.idealNoFlush = ctx.cfg->idealNoFlush;
        return makeSwHierarchyAccounting(*ctx.kernel,
                                         allocOptions(*ctx.cfg), sc,
                                         ctx.analyses, *ctx.counts);
    }

  private:
    bool threeLevel_;
};

/** Compiler-assisted RFC (Shoushtary et al., arXiv:2310.17501). */
class CcRfcScheme : public SchemeBackend
{
  public:
    std::vector<std::string>
    checkConservation(const AccessCounts &c,
                      const AccessCounts &baseline) const override
    {
        return hwConservation(c, baseline, /*exactWrites=*/true);
    }

    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        CcRfcConfig cc;
        cc.entries = ctx.cfg->entries;
        return makeCcRfcAccounting(*ctx.kernel, cc, ctx.analyses,
                                   ctx.decode, *ctx.counts);
    }
};

/** RegDem shared-memory spilling (Sakdhnagool et al., 1907.02894). */
class RegDemScheme : public SchemeBackend
{
  public:
    double
    accountEnergyPJ(const SchemeRunContext &ctx, const AccessCounts &c,
                    const EnergyModel &em) const override
    {
        return c.totalEnergyPJ(em) +
            regdemSpillEnergyPJ(c, ctx.cfg->energy);
    }

    std::vector<std::string>
    checkConservation(const AccessCounts &c,
                      const AccessCounts &baseline) const override
    {
        // Demoted accesses live in the writeback (spill) counters;
        // resident accesses stay MRF traffic. Together they must
        // reproduce the baseline access for access.
        std::vector<std::string> v;
        if (c.allReads() + c.wbReads !=
            baseline.totalReads(Level::MRF))
            v.push_back(
                "resident reads " + std::to_string(c.allReads()) +
                " + spill reads " + std::to_string(c.wbReads) +
                " != baseline reads " +
                std::to_string(baseline.totalReads(Level::MRF)));
        if (c.instructions != baseline.instructions)
            v.push_back("instructions " +
                        std::to_string(c.instructions) +
                        " != baseline " +
                        std::to_string(baseline.instructions));
        if (c.allWrites() + c.wbWrites !=
            baseline.totalWrites(Level::MRF))
            v.push_back(
                "resident writes " + std::to_string(c.allWrites()) +
                " + spill writes " + std::to_string(c.wbWrites) +
                " != baseline writes " +
                std::to_string(baseline.totalWrites(Level::MRF)));
        if (c.totalReads(Level::ORF) != 0 ||
            c.totalReads(Level::LRF) != 0 ||
            c.totalWrites(Level::ORF) != 0 ||
            c.totalWrites(Level::LRF) != 0)
            v.push_back("register demotion reported upper-level "
                        "traffic");
        return v;
    }

    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        RegDemConfig rc;
        rc.entries = ctx.cfg->entries;
        return makeRegDemAccounting(*ctx.kernel, rc, ctx.decode,
                                    *ctx.counts);
    }
};

/**
 * GREENER power-gated MRF banks: the baseline's traffic and flat
 * accounting, with the gated banks priced by accountEnergyPJ.
 */
class GreenerScheme : public BaselineScheme
{
  public:
    double
    accountEnergyPJ(const SchemeRunContext &ctx, const AccessCounts &c,
                    const EnergyModel &em) const override
    {
        return greenerEnergyPJ(c, em,
                               greenerActiveBanks(*ctx.kernel));
    }

    std::vector<std::string>
    checkConservation(const AccessCounts &c,
                      const AccessCounts &baseline) const override
    {
        // Power gating changes no dynamic behaviour at all: the
        // counts must be the flat baseline's, field for field.
        std::vector<std::string> v;
        for (int l = 0; l < 3; l++)
            for (int d = 0; d < 2; d++)
                if (c.reads[l][d] != baseline.reads[l][d] ||
                    c.writes[l][d] != baseline.writes[l][d]) {
                    v.push_back("gated-bank counts differ from the "
                                "flat baseline");
                    return v;
                }
        if (c.wbReads != baseline.wbReads ||
            c.wbWrites != baseline.wbWrites ||
            c.instructions != baseline.instructions ||
            c.deschedules != baseline.deschedules)
            v.push_back("gated-bank counts differ from the flat "
                        "baseline");
        return v;
    }
};

/** Flat-MRF traffic: no analyses, no trace path, no entries axis. */
SchemeCaps
flatCaps()
{
    SchemeCaps c;
    c.usesAnalyses = false;
    c.usesTrace = false;
    c.sweepsEntries = false;
    c.pipelined = true;
    return c;
}

SchemeCaps
hwCaps()
{
    SchemeCaps c;
    c.wantsDecode = true;
    c.hwManaged = true;
    c.pipelined = true;
    return c;
}

SchemeCaps
swCaps()
{
    SchemeCaps c;
    c.usesAllocator = true;
    c.pipelined = true;
    return c;
}

SchemeSpec
spec(std::string token, std::string display, std::string tag,
     std::string summary, bool paper, SchemeCaps caps)
{
    SchemeSpec s;
    s.token = std::move(token);
    s.display = std::move(display);
    s.tag = std::move(tag);
    s.summary = std::move(summary);
    s.paper = paper;
    s.caps = caps;
    return s;
}

} // namespace

void
registerBuiltinSchemes(SchemeRegistry &registry)
{
    // The paper's five organisations first, in the fixed order that
    // assigns the historic ids of the Scheme constants (0..4).
    registry.add(spec("baseline", "Baseline", "base",
                      "flat single-level MRF (the paper's baseline)",
                      true, flatCaps()),
                 std::make_unique<BaselineScheme>());
    registry.add(
        spec("hw2", "HW", "hw2",
             "hardware-managed RFC + MRF (Section 2.2)", true,
             hwCaps()),
        std::make_unique<HwCacheScheme>(/*threeLevel=*/false));
    registry.add(
        spec("hw3", "HW LRF", "hw3",
             "hardware-managed LRF + RFC + MRF (Section 6.2)", true,
             hwCaps()),
        std::make_unique<HwCacheScheme>(/*threeLevel=*/true));
    registry.add(
        spec("sw2", "SW", "sw2",
             "compiler-managed ORF + MRF (Section 3.1)", true,
             swCaps()),
        std::make_unique<SwHierarchyScheme>(/*threeLevel=*/false));
    registry.add(
        spec("sw3", "SW LRF", "sw3",
             "compiler-managed LRF + ORF + MRF (Section 3.2)", true,
             swCaps()),
        std::make_unique<SwHierarchyScheme>(/*threeLevel=*/true));

    // Competing designs from the literature (PAPERS.md).
    registry.add(spec("ccrfc", "CC RFC", "ccrfc",
                      "compiler-assisted RF cache with allocation and "
                      "last-read hints (arXiv:2310.17501)",
                      false, hwCaps()),
                 std::make_unique<CcRfcScheme>());
    {
        SchemeCaps c;
        c.usesAnalyses = false;
        c.wantsDecode = true;
        c.pipelined = true;
        registry.add(
            spec("regdem", "RegDem", "regdem",
                 "register demotion to shared-memory spill space "
                 "(arXiv:1907.02894)",
                 false, c),
            std::make_unique<RegDemScheme>());
    }
    registry.add(spec("greener", "GREENER", "greener",
                      "power-gated MRF banks: baseline traffic, "
                      "footprint-scaled array energy",
                      false, flatCaps()),
                 std::make_unique<GreenerScheme>());
}

} // namespace rfh
