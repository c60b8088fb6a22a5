#include "core/scheme.h"

#include <mutex>
#include <stdexcept>

#include "core/experiment.h"
#include "sim/pipeline_account.h"

namespace rfh {

AllocOptions
SchemeBackend::allocOptions(const ExperimentConfig &cfg) const
{
    AllocOptions a;
    a.orfEntries = cfg.entries;
    a.orfPriceEntries = cfg.orfPriceEntries;
    a.useLRF = false;
    a.splitLRF = false;
    a.lrfAllowSharedProducers = cfg.lrfAllowSharedProducers;
    a.partialRanges = cfg.partialRanges;
    a.readOperands = cfg.readOperands;
    a.strandOptions = cfg.strandOptions;
    return a;
}

AllocStats
SchemeBackend::allocate(Kernel &, const ExperimentConfig &,
                        const AnalysisBundle *,
                        const AllocationPlan *) const
{
    return AllocStats{};
}

SchemeSimResult
SchemeBackend::simulate(const SchemeRunContext &ctx) const
{
    SchemeSimResult r;
    PipelineBuildContext build;
    build.kernel = ctx.kernel;
    build.cfg = ctx.cfg;
    build.analyses = ctx.analyses;
    build.decode = ctx.decode;
    build.plan = ctx.plan;
    build.counts = &r.counts;
    std::unique_ptr<PipelineAccounting> acct =
        makePipelineAccounting(build);
    if (!acct)
        r.error = "scheme builds no accounting";
    else if (ctx.engine == ResolvedEngine::REPLAY)
        acct->replay(*ctx.trace);
    else
        acct->execute(*ctx.kernel, ctx.workload->run);
    return r;
}

bool
SchemeBackend::splitLrfEnergy(const ExperimentConfig &) const
{
    return false;
}

double
SchemeBackend::accountEnergyPJ(const SchemeRunContext &,
                               const AccessCounts &c,
                               const EnergyModel &em) const
{
    return c.totalEnergyPJ(em);
}

std::vector<std::string>
SchemeBackend::checkConservation(const AccessCounts &,
                                 const AccessCounts &) const
{
    return {};
}

// Out of line so scheme.h needs only a forward declaration of
// PipelineAccounting (unique_ptr of an incomplete type cannot be
// destroyed in an inline default).
std::unique_ptr<PipelineAccounting>
SchemeBackend::makePipelineAccounting(const PipelineBuildContext &) const
{
    return nullptr;
}

SchemeRegistry::SchemeRegistry() = default;

SchemeRegistry &
SchemeRegistry::instance()
{
    static SchemeRegistry *reg = [] {
        auto *r = new SchemeRegistry();
        registerBuiltinSchemes(*r);
        return r;
    }();
    return *reg;
}

Scheme
SchemeRegistry::add(SchemeSpec spec,
                    std::unique_ptr<SchemeBackend> backend)
{
    if (spec.token.empty())
        throw std::invalid_argument(
            "scheme registration needs a non-empty token");
    if (!backend)
        throw std::invalid_argument("scheme '" + spec.token +
                                    "' registered without a backend");
    std::unique_lock lock(mu_);
    for (const SchemeInfo &si : infos_)
        if (si.token == spec.token)
            throw std::invalid_argument(
                "duplicate scheme token '" + spec.token +
                "' (already registered as #" +
                std::to_string(si.scheme.id()) + ", display '" +
                si.display + "')");
    SchemeInfo info;
    info.scheme = Scheme(static_cast<std::uint8_t>(infos_.size()));
    info.token = std::move(spec.token);
    info.display = std::move(spec.display);
    info.tag = spec.tag.empty() ? info.token : std::move(spec.tag);
    info.summary = std::move(spec.summary);
    info.paper = spec.paper;
    info.caps = spec.caps;
    info.backend = std::move(backend);
    infos_.push_back(std::move(info));
    return infos_.back().scheme;
}

const SchemeInfo *
SchemeRegistry::find(Scheme s) const
{
    std::shared_lock lock(mu_);
    if (s.id() >= infos_.size())
        return nullptr;
    return &infos_[s.id()];
}

const SchemeInfo *
SchemeRegistry::findToken(std::string_view token) const
{
    std::shared_lock lock(mu_);
    for (const SchemeInfo &si : infos_)
        if (si.token == token)
            return &si;
    return nullptr;
}

std::vector<const SchemeInfo *>
SchemeRegistry::schemes() const
{
    std::shared_lock lock(mu_);
    std::vector<const SchemeInfo *> out;
    out.reserve(infos_.size());
    for (const SchemeInfo &si : infos_)
        out.push_back(&si);
    return out;
}

std::size_t
SchemeRegistry::size() const
{
    std::shared_lock lock(mu_);
    return infos_.size();
}

std::string
SchemeRegistry::tokenList() const
{
    std::shared_lock lock(mu_);
    std::string out;
    for (const SchemeInfo &si : infos_) {
        if (!out.empty())
            out += ", ";
        out += si.token;
    }
    return out;
}

} // namespace rfh
