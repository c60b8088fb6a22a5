#include "workloads.h"

#include <cstdio>

#include "ir/printer.h"
#include "service/protocol.h"
#include "workloads/profiles.h"

namespace perfbench {

namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The serve-cold scheme mix: mostly the paper's three-level hierarchy. */
struct MixEntry
{
    rfh::Scheme scheme;
    int entries;
};

const MixEntry kServeMix[] = {
    {rfh::Scheme::SW_THREE_LEVEL, 3}, {rfh::Scheme::SW_THREE_LEVEL, 3},
    {rfh::Scheme::SW_THREE_LEVEL, 2}, {rfh::Scheme::SW_THREE_LEVEL, 4},
    {rfh::Scheme::SW_TWO_LEVEL, 3},   {rfh::Scheme::HW_TWO_LEVEL, 3},
    {rfh::Scheme::HW_THREE_LEVEL, 3}, {rfh::Scheme::BASELINE, 3},
};

} // namespace

bool
parseWorkloadKind(const std::string &name, WorkloadKind &out)
{
    for (WorkloadKind k : {WorkloadKind::CORPUS_SWEEP,
                           WorkloadKind::CORPUS_PERF,
                           WorkloadKind::SERVE_COLD}) {
        if (name == workloadName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::CORPUS_SWEEP: return "corpus-sweep";
      case WorkloadKind::CORPUS_PERF: return "corpus-perf";
      case WorkloadKind::SERVE_COLD: return "serve-cold";
    }
    return "?";
}

rfh::CorpusConfig
corpusConfig(WorkloadKind kind, std::uint64_t seed,
             std::vector<std::string> profiles, int kernelsPerProfile)
{
    rfh::CorpusConfig cfg;
    cfg.profiles = std::move(profiles);
    cfg.kernelsPerProfile = kernelsPerProfile;
    cfg.seed = seed;
    if (kind == WorkloadKind::CORPUS_PERF) {
        cfg.perf = true;
        cfg.cells = {{rfh::Scheme::SW_THREE_LEVEL, 3},
                     {rfh::Scheme::HW_TWO_LEVEL, 3},
                     {rfh::Scheme::BASELINE, 3}};
    }
    return cfg;
}

ServeRequestSpec
serveRequestSpec(std::uint64_t seed, std::uint64_t g)
{
    // Only the synthetic-generator profiles are served: about one in
    // 30k fuzz-grammar kernels (`wild`, `high-pressure`) fails the
    // value-verifying direct executor with an ORF entry holding the
    // wrong register, and a workload must not fail. The corpus
    // workloads replay without value checks and keep every profile.
    static const std::vector<int> served = [] {
        std::vector<int> v;
        const auto &all = rfh::allProfiles();
        for (std::size_t i = 0; i < all.size(); i++)
            if (all[i].gen == rfh::ProfileGen::SYNTH)
                v.push_back(static_cast<int>(i));
        return v;
    }();
    const std::uint64_t n = served.size();
    ServeRequestSpec s;
    s.profile = served[static_cast<std::size_t>(g % n)];
    s.index = static_cast<int>(g / n);
    std::uint64_t h = splitmix64(seed * 0x100000001b3ull ^ splitmix64(g));
    const MixEntry &m = kServeMix[h % std::size(kServeMix)];
    s.scheme = m.scheme;
    s.entries = m.entries;
    return s;
}

std::vector<rfh::CorpusCell>
serveMixCells()
{
    std::vector<rfh::CorpusCell> cells;
    for (const MixEntry &m : kServeMix) {
        bool seen = false;
        for (const rfh::CorpusCell &c : cells)
            seen |= c.scheme == m.scheme && c.entries == m.entries;
        if (!seen)
            cells.push_back({m.scheme, m.entries});
    }
    return cells;
}

rfh::Workload
serveWorkload(std::uint64_t seed, const ServeRequestSpec &spec)
{
    return rfh::corpusWorkload(
        rfh::allProfiles()[static_cast<std::size_t>(spec.profile)], seed,
        spec.index);
}

std::string
requestLineFor(const rfh::Workload &w, const ServeRequestSpec &spec,
               std::uint64_t g)
{
    rfh::ServiceRequest req;
    req.idJson = std::to_string(g);
    req.kernelText = rfh::printKernel(w.kernel);
    req.scheme = spec.scheme;
    req.entries = spec.entries;
    req.warps = w.run.numWarps;
    return rfh::serviceRequestToJson(req);
}

std::string
serveRequestLine(std::uint64_t seed, std::uint64_t g)
{
    ServeRequestSpec spec = serveRequestSpec(seed, g);
    return requestLineFor(serveWorkload(seed, spec), spec, g);
}

std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
