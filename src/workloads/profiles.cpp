#include "workloads/profiles.h"

#include <algorithm>
#include <cmath>

#include "core/json.h"
#include "ir/printer.h"

namespace rfh {

namespace {

/** splitmix64 stream (the repo's standard deterministic RNG). */
class Jitter
{
  public:
    explicit Jitter(std::uint64_t seed)
        : state_(seed + 0x9e3779b97f4a7c15ULL)
    {
    }

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** One scale factor in [1 - amp, 1 + amp]. */
    double
    factor(double amp)
    {
        return 1.0 + amp * (2.0 * uniform() - 1.0);
    }

  private:
    std::uint64_t state_;
};

int
scaleCount(int base, double f, int floor = 1)
{
    return std::max(floor,
                    static_cast<int>(std::llround(base * f)));
}

double
scaleProb(double base, double f)
{
    return std::clamp(base * f, 0.0, 0.95);
}

/** Per-kernel RNG: profile centre seed x corpus seed x index. */
std::uint64_t
kernelSeed(std::uint64_t profileSeed, std::uint64_t corpusSeed,
           int index)
{
    Jitter j(profileSeed ^ (corpusSeed * 0x9e3779b97f4a7c15ULL));
    j.next();
    return j.next() ^
        (static_cast<std::uint64_t>(index) * 0xbf58476d1ce4e5b9ULL);
}

std::vector<ScenarioProfile>
buildProfiles()
{
    std::vector<ScenarioProfile> v;

    {
        ScenarioProfile p;
        p.name = "balanced";
        p.summary = "Figure-2-calibrated generic compute kernels "
                    "(the synthetic generator's centre)";
        p.gen = ProfileGen::SYNTH;
        v.push_back(p);
    }
    {
        ScenarioProfile p;
        p.name = "divergent";
        p.summary = "hammock- and predication-heavy control flow "
                    "(SIMT divergence stress)";
        p.gen = ProfileGen::SYNTH;
        p.synth.pHammock = 0.45;
        p.synth.pPredicated = 0.18;
        p.synth.pPairOps = 0.12;
        v.push_back(p);
    }
    {
        ScenarioProfile p;
        p.name = "sfu-heavy";
        p.summary = "shared-datapath producers dominate (SFU density "
                    "stresses the LRF eligibility rules)";
        p.gen = ProfileGen::SYNTH;
        p.synth.fracSfu = 0.35;
        p.synth.pPairOps = 0.10;
        v.push_back(p);
    }
    {
        ScenarioProfile p;
        p.name = "long-strands";
        p.summary = "few long strands with wide reuse windows "
                    "(ORF-friendly lifetimes)";
        p.gen = ProfileGen::SYNTH;
        p.synth.strandsPerBody = 1;
        p.synth.opsPerStrand = 18;
        p.synth.loadsPerStrand = 1;
        p.synth.recencyWindow = 8;
        v.push_back(p);
    }
    {
        ScenarioProfile p;
        p.name = "short-strands";
        p.summary = "many short strands broken by long-latency loads "
                    "(frequent ORF flushes)";
        p.gen = ProfileGen::SYNTH;
        p.synth.strandsPerBody = 4;
        p.synth.opsPerStrand = 4;
        p.synth.loadsPerStrand = 3;
        p.synth.recencyWindow = 3;
        v.push_back(p);
    }
    {
        ScenarioProfile p;
        p.name = "persistent";
        p.summary = "long-lived values read repeatedly over long "
                    "ranges (persistence mix)";
        p.gen = ProfileGen::SYNTH;
        p.synth.pPersistent = 0.30;
        p.synth.recencyWindow = 6;
        p.synth.prologueOps = 10;
        v.push_back(p);
    }
    {
        ScenarioProfile p;
        p.name = "high-pressure";
        p.summary = "fuzz-grammar kernels drawing defs from nearly "
                    "the whole architectural file";
        p.gen = ProfileGen::FUZZ;
        p.fuzz.highPressure = true;
        p.fuzz.maxInstrs = 128;
        v.push_back(p);
    }
    {
        ScenarioProfile p;
        p.name = "wild";
        p.summary = "unconstrained fuzz grammar: nested hammocks, "
                    "forward branches, degenerate blocks";
        p.gen = ProfileGen::FUZZ;
        v.push_back(p);
    }
    return v;
}

} // namespace

std::string_view
profileGenName(ProfileGen g)
{
    return g == ProfileGen::SYNTH ? "synth" : "fuzz";
}

bool
profileGenFromName(std::string_view name, ProfileGen &out)
{
    if (name == "synth") {
        out = ProfileGen::SYNTH;
        return true;
    }
    if (name == "fuzz") {
        out = ProfileGen::FUZZ;
        return true;
    }
    return false;
}

const std::vector<ScenarioProfile> &
allProfiles()
{
    static const std::vector<ScenarioProfile> v = buildProfiles();
    return v;
}

const ScenarioProfile *
findProfile(std::string_view name)
{
    for (const ScenarioProfile &p : allProfiles())
        if (p.name == name)
            return &p;
    return nullptr;
}

std::string
profileNameList()
{
    std::string out;
    for (const ScenarioProfile &p : allProfiles()) {
        if (!out.empty())
            out += ", ";
        out += p.name;
    }
    return out;
}

bool
resolveProfiles(const std::vector<std::string> &names,
                std::vector<ScenarioProfile> &out, std::string *err)
{
    out.clear();
    for (const std::string &name : names) {
        if (name == "all") {
            for (const ScenarioProfile &p : allProfiles())
                out.push_back(p);
            continue;
        }
        const ScenarioProfile *p = findProfile(name);
        if (!p) {
            if (err)
                *err = "unknown profile '" + name +
                    "' (valid: " + profileNameList() + ")";
            return false;
        }
        out.push_back(*p);
    }
    return true;
}

std::string
profileToJson(const ScenarioProfile &p)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value(p.name);
    w.key("summary").value(p.summary);
    w.key("generator").value(std::string(profileGenName(p.gen)));
    w.key("warps").value(p.warps);
    w.key("jitter").value(p.jitter);
    w.key("synth");
    w.beginObject();
    w.key("seed").value(static_cast<std::uint64_t>(p.synth.seed));
    w.key("loopIters").value(p.synth.loopIters);
    w.key("strandsPerBody").value(p.synth.strandsPerBody);
    w.key("loadsPerStrand").value(p.synth.loadsPerStrand);
    w.key("opsPerStrand").value(p.synth.opsPerStrand);
    w.key("fracSfu").value(p.synth.fracSfu);
    w.key("useTex").value(p.synth.useTex);
    w.key("storesPerStrand").value(p.synth.storesPerStrand);
    w.key("pImmediate").value(p.synth.pImmediate);
    w.key("pPairOps").value(p.synth.pPairOps);
    w.key("pPersistent").value(p.synth.pPersistent);
    w.key("recencyWindow").value(p.synth.recencyWindow);
    w.key("pHammock").value(p.synth.pHammock);
    w.key("pPredicated").value(p.synth.pPredicated);
    w.key("prologueOps").value(p.synth.prologueOps);
    w.endObject();
    w.key("fuzz");
    w.beginObject();
    w.key("seed").value(static_cast<std::uint64_t>(p.fuzz.seed));
    w.key("maxInstrs").value(p.fuzz.maxInstrs);
    w.key("maxLoopDepth").value(p.fuzz.maxLoopDepth);
    w.key("maxHammockDepth").value(p.fuzz.maxHammockDepth);
    w.key("maxLoopIters").value(p.fuzz.maxLoopIters);
    w.key("allowWide").value(p.fuzz.allowWide);
    w.key("allowTex").value(p.fuzz.allowTex);
    w.key("highPressure").value(p.fuzz.highPressure);
    w.key("pPredicatedStore").value(p.fuzz.pPredicatedStore);
    w.key("pDuplicateOperand").value(p.fuzz.pDuplicateOperand);
    w.key("pForwardBranch").value(p.fuzz.pForwardBranch);
    w.key("pDegenerateBlock").value(p.fuzz.pDegenerateBlock);
    w.key("pSfuTail").value(p.fuzz.pSfuTail);
    w.endObject();
    w.endObject();
    return w.str();
}

namespace {

/** Strict field cursor over one JSON object. */
struct FieldReader
{
    const JsonValue &obj;
    std::string scope;
    std::string *err;
    bool ok = true;

    bool
    fail(const std::string &msg)
    {
        if (err && ok)
            *err = scope + msg;
        ok = false;
        return false;
    }

    bool
    checkKnown(const std::vector<std::string_view> &known)
    {
        for (const auto &[k, v] : obj.object) {
            bool found = false;
            for (std::string_view s : known)
                if (k == s)
                    found = true;
            if (!found)
                return fail("unknown field '" + k + "'");
        }
        return ok;
    }

    bool
    number(std::string_view key, double &out, bool required = true)
    {
        const JsonValue *v = obj.find(std::string(key));
        if (!v)
            return required
                ? fail("missing field '" + std::string(key) + "'")
                : true;
        if (!v->isNumber())
            return fail("field '" + std::string(key) +
                        "' must be a number");
        out = v->number;
        return true;
    }

    bool
    integer(std::string_view key, int &out, int lo, int hi,
            bool required = true)
    {
        double d = out;
        if (!number(key, d, required) || !ok)
            return ok;
        if (d != std::floor(d) || d < lo || d > hi)
            return fail("field '" + std::string(key) +
                        "' out of range");
        out = static_cast<int>(d);
        return true;
    }

    bool
    probability(std::string_view key, double &out,
                bool required = true)
    {
        if (!number(key, out, required) || !ok)
            return ok;
        if (out < 0.0 || out > 1.0)
            return fail("field '" + std::string(key) +
                        "' must be in [0, 1]");
        return true;
    }

    bool
    boolean(std::string_view key, bool &out, bool required = true)
    {
        const JsonValue *v = obj.find(std::string(key));
        if (!v)
            return required
                ? fail("missing field '" + std::string(key) + "'")
                : true;
        if (v->type != JsonValue::Type::BOOL)
            return fail("field '" + std::string(key) +
                        "' must be a boolean");
        out = v->boolean;
        return true;
    }
};

} // namespace

bool
profileFromJson(const JsonValue &v, ScenarioProfile &out,
                std::string *err)
{
    if (!v.isObject()) {
        if (err)
            *err = "profile must be a JSON object";
        return false;
    }
    FieldReader r{v, "profile: ", err};
    r.checkKnown({"name", "summary", "generator", "warps", "jitter",
                  "synth", "fuzz"});
    if (!r.ok)
        return false;

    const JsonValue *name = v.find("name");
    if (!name || !name->isString())
        return r.fail("field 'name' must be a string");
    out.name = name->string;
    out.summary = v.stringOr("summary", "");
    const JsonValue *gen = v.find("generator");
    if (!gen || !gen->isString() ||
        !profileGenFromName(gen->string, out.gen))
        return r.fail("field 'generator' must be "
                      "\"synth\" or \"fuzz\"");
    r.integer("warps", out.warps, 1, 64, false);
    r.number("jitter", out.jitter, false);
    if (r.ok && (out.jitter < 0.0 || out.jitter > 1.0))
        return r.fail("field 'jitter' must be in [0, 1]");
    if (!r.ok)
        return false;

    if (const JsonValue *s = v.find("synth")) {
        if (!s->isObject())
            return r.fail("field 'synth' must be an object");
        FieldReader sr{*s, "profile synth: ", err};
        sr.checkKnown({"seed", "loopIters", "strandsPerBody",
                       "loadsPerStrand", "opsPerStrand", "fracSfu",
                       "useTex", "storesPerStrand", "pImmediate",
                       "pPairOps", "pPersistent", "recencyWindow",
                       "pHammock", "pPredicated", "prologueOps"});
        SynthParams &sp = out.synth;
        double seed = static_cast<double>(sp.seed);
        sr.number("seed", seed, false);
        sp.seed = static_cast<std::uint64_t>(seed);
        sr.integer("loopIters", sp.loopIters, 1, 1 << 20, false);
        sr.integer("strandsPerBody", sp.strandsPerBody, 1, 64, false);
        sr.integer("loadsPerStrand", sp.loadsPerStrand, 0, 64, false);
        sr.integer("opsPerStrand", sp.opsPerStrand, 1, 256, false);
        sr.probability("fracSfu", sp.fracSfu, false);
        sr.boolean("useTex", sp.useTex, false);
        sr.integer("storesPerStrand", sp.storesPerStrand, 0, 64,
                   false);
        sr.probability("pImmediate", sp.pImmediate, false);
        sr.probability("pPairOps", sp.pPairOps, false);
        sr.probability("pPersistent", sp.pPersistent, false);
        sr.integer("recencyWindow", sp.recencyWindow, 1, 64, false);
        sr.probability("pHammock", sp.pHammock, false);
        sr.probability("pPredicated", sp.pPredicated, false);
        sr.integer("prologueOps", sp.prologueOps, 0, 256, false);
        if (!sr.ok)
            return false;
    }
    if (const JsonValue *f = v.find("fuzz")) {
        if (!f->isObject())
            return r.fail("field 'fuzz' must be an object");
        FieldReader fr{*f, "profile fuzz: ", err};
        fr.checkKnown({"seed", "maxInstrs", "maxLoopDepth",
                       "maxHammockDepth", "maxLoopIters", "allowWide",
                       "allowTex", "highPressure", "pPredicatedStore",
                       "pDuplicateOperand", "pForwardBranch",
                       "pDegenerateBlock", "pSfuTail"});
        FuzzParams &fp = out.fuzz;
        double seed = static_cast<double>(fp.seed);
        fr.number("seed", seed, false);
        fp.seed = static_cast<std::uint64_t>(seed);
        fr.integer("maxInstrs", fp.maxInstrs, 8, 4096, false);
        fr.integer("maxLoopDepth", fp.maxLoopDepth, 0, 8, false);
        fr.integer("maxHammockDepth", fp.maxHammockDepth, 0, 8,
                   false);
        fr.integer("maxLoopIters", fp.maxLoopIters, 1, 64, false);
        fr.boolean("allowWide", fp.allowWide, false);
        fr.boolean("allowTex", fp.allowTex, false);
        fr.boolean("highPressure", fp.highPressure, false);
        fr.probability("pPredicatedStore", fp.pPredicatedStore,
                       false);
        fr.probability("pDuplicateOperand", fp.pDuplicateOperand,
                       false);
        fr.probability("pForwardBranch", fp.pForwardBranch, false);
        fr.probability("pDegenerateBlock", fp.pDegenerateBlock,
                       false);
        fr.probability("pSfuTail", fp.pSfuTail, false);
        if (!fr.ok)
            return false;
    }
    return true;
}

SynthParams
synthParamsFor(const ScenarioProfile &p, std::uint64_t seed,
               int index)
{
    SynthParams sp = p.synth;
    Jitter j(kernelSeed(sp.seed, seed, index));
    sp.seed = j.next();
    double amp = p.jitter;
    sp.loopIters = scaleCount(p.synth.loopIters, j.factor(amp));
    sp.strandsPerBody =
        scaleCount(p.synth.strandsPerBody, j.factor(amp));
    sp.loadsPerStrand =
        scaleCount(p.synth.loadsPerStrand, j.factor(amp), 0);
    sp.opsPerStrand = scaleCount(p.synth.opsPerStrand, j.factor(amp));
    sp.prologueOps = scaleCount(p.synth.prologueOps, j.factor(amp), 0);
    sp.recencyWindow =
        scaleCount(p.synth.recencyWindow, j.factor(amp), 2);
    sp.fracSfu = scaleProb(p.synth.fracSfu, j.factor(amp));
    sp.pImmediate = scaleProb(p.synth.pImmediate, j.factor(amp));
    sp.pPairOps = scaleProb(p.synth.pPairOps, j.factor(amp));
    sp.pPersistent = scaleProb(p.synth.pPersistent, j.factor(amp));
    sp.pHammock = scaleProb(p.synth.pHammock, j.factor(amp));
    sp.pPredicated = scaleProb(p.synth.pPredicated, j.factor(amp));
    return sp;
}

FuzzParams
fuzzParamsFor(const ScenarioProfile &p, std::uint64_t seed, int index)
{
    FuzzParams fp = p.fuzz;
    Jitter j(kernelSeed(fp.seed, seed, index));
    fp.seed = j.next();
    double amp = p.jitter;
    fp.maxInstrs = scaleCount(p.fuzz.maxInstrs, j.factor(amp), 16);
    fp.maxLoopIters =
        scaleCount(p.fuzz.maxLoopIters, j.factor(amp));
    fp.pPredicatedStore =
        scaleProb(p.fuzz.pPredicatedStore, j.factor(amp));
    fp.pDuplicateOperand =
        scaleProb(p.fuzz.pDuplicateOperand, j.factor(amp));
    fp.pForwardBranch =
        scaleProb(p.fuzz.pForwardBranch, j.factor(amp));
    fp.pDegenerateBlock =
        scaleProb(p.fuzz.pDegenerateBlock, j.factor(amp));
    fp.pSfuTail = scaleProb(p.fuzz.pSfuTail, j.factor(amp));
    return fp;
}

Workload
corpusWorkload(const ScenarioProfile &p, std::uint64_t seed,
               int index)
{
    Workload w;
    w.name = p.name + "_" + std::to_string(seed) + "_" +
        std::to_string(index);
    w.suite = "corpus";
    if (p.gen == ProfileGen::SYNTH)
        w.kernel = generateSynthetic(w.name,
                                     synthParamsFor(p, seed, index));
    else
        w.kernel =
            generateFuzzKernel(w.name, fuzzParamsFor(p, seed, index));
    // Only the warp count deviates from the default run configuration:
    // the service builds inline-kernel workloads with default limits,
    // so a printed corpus kernel sent to `rfhc serve` with the
    // profile's warp count runs exactly as it does here.
    w.run.numWarps = p.warps;
    return w;
}

std::uint64_t
corpusSliceFingerprint(const ScenarioProfile &p, std::uint64_t seed,
                       int n)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
    for (int i = 0; i < n; i++) {
        Workload w = corpusWorkload(p, seed, i);
        std::string text = printKernel(w.kernel);
        for (unsigned char c : text) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

} // namespace rfh
