/**
 * @file
 * Corpus-tier statistical golden bands (ctest label: corpus).
 *
 * Where test_golden.cpp pins the paper's figures over the ~20
 * hand-written workloads, this suite pins them over generated kernel
 * *populations*: per-profile energy-ratio confidence bands, per-level
 * access-share medians, the profile round-trip contract, the seed
 * corpus drift guard, and the byte-identity of the aggregate document
 * across thread counts. The bands were measured at the exact
 * configurations used here (seed 1); a legitimate generator or engine
 * change that moves them must update the constants in this file and
 * the population table in EXPERIMENTS.md in the same commit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/corpus.h"
#include "core/experiment.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "workloads/profiles.h"

namespace rfh {
namespace {

Scheme
schemeOf(const std::string &token)
{
    const SchemeInfo *info = SchemeRegistry::instance().findToken(token);
    EXPECT_NE(info, nullptr) << token;
    return info ? info->scheme : Scheme::BASELINE;
}

CorpusResult
runOrDie(const CorpusConfig &cfg, ThreadPool *pool = nullptr)
{
    CorpusResult r;
    std::string err;
    bool ok = runCorpus(cfg, r, pool, &err);
    EXPECT_TRUE(ok) << err;
    return r;
}

// ---- scenario-profile registry and round trip ----

TEST(CorpusProfiles, JsonRoundTripIsAFixpoint)
{
    for (const ScenarioProfile &p : allProfiles()) {
        std::string doc = profileToJson(p);
        JsonParseResult parsed = parseJson(doc);
        ASSERT_TRUE(parsed.ok) << p.name << ": " << parsed.error;
        ScenarioProfile back;
        std::string err;
        ASSERT_TRUE(profileFromJson(parsed.value, back, &err))
            << p.name << ": " << err;
        // name -> params -> JSON -> params -> JSON closes exactly.
        EXPECT_EQ(profileToJson(back), doc) << p.name;
        EXPECT_EQ(back.name, p.name);
        EXPECT_EQ(back.warps, p.warps);
    }
}

TEST(CorpusProfiles, UnknownProfileErrorListsValidNames)
{
    std::vector<ScenarioProfile> out;
    std::string err;
    EXPECT_FALSE(resolveProfiles({"no-such-profile"}, out, &err));
    EXPECT_NE(err.find("unknown profile 'no-such-profile'"),
              std::string::npos)
        << err;
    // Mirrors the service's unknown_scheme contract: the error quotes
    // every valid name so the caller can self-correct.
    for (const ScenarioProfile &p : allProfiles())
        EXPECT_NE(err.find(p.name), std::string::npos)
            << err << " missing " << p.name;
}

TEST(CorpusProfiles, RunCorpusSurfacesConfigErrors)
{
    CorpusConfig cfg;
    cfg.profiles = {"bogus"};
    CorpusResult r;
    std::string err;
    EXPECT_FALSE(runCorpus(cfg, r, nullptr, &err));
    EXPECT_NE(err.find("unknown profile"), std::string::npos) << err;

    CorpusConfig bad;
    bad.cells = {{schemeOf("sw3"), 0}};
    err.clear();
    EXPECT_FALSE(runCorpus(bad, r, nullptr, &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(CorpusProfiles, ResolveRejectsBadBandConfig)
{
    std::vector<ScenarioProfile> profiles;
    std::vector<CorpusCell> cells;
    std::string err;
    for (double c : {std::nan(""), 0.0, 1.0, -0.5, 1.5,
                     std::numeric_limits<double>::infinity()}) {
        CorpusConfig cfg;
        cfg.confidence = c;
        err.clear();
        EXPECT_FALSE(resolveCorpusConfig(cfg, profiles, cells, &err)) << c;
        EXPECT_NE(err.find("confidence must be in (0,1)"),
                  std::string::npos)
            << c << ": " << err;
    }
    for (int n : {0, -1}) {
        CorpusConfig cfg;
        cfg.bootstrapResamples = n;
        err.clear();
        EXPECT_FALSE(resolveCorpusConfig(cfg, profiles, cells, &err)) << n;
        EXPECT_NE(err.find("bootstrapResamples must be >= 1"),
                  std::string::npos)
            << n << ": " << err;
    }
    CorpusConfig ok;
    ok.confidence = 0.5;
    ok.bootstrapResamples = 1;
    EXPECT_TRUE(resolveCorpusConfig(ok, profiles, cells, &err)) << err;
}

// ---- seed corpus drift guard ----

TEST(CorpusProfiles, SeedCorpusSliceFingerprintsArePinned)
{
    // FNV-1a over the printed text of each profile's first 64 kernels
    // at corpus seed 1. A generator, jitter, or printer change that
    // shifts the population must update this table deliberately —
    // silent drift would invalidate every band below.
    struct Pin
    {
        const char *profile;
        std::uint64_t fingerprint;
    };
    const Pin pins[] = {
        {"balanced", 0xb38637a0f7d61991ull},
        {"divergent", 0xef2cb4b34b90e1ccull},
        {"sfu-heavy", 0xbabffd42fbcdbc94ull},
        {"long-strands", 0x11a0eae45e92d643ull},
        {"short-strands", 0x119d842b3d8f5da0ull},
        {"persistent", 0x44fa5d19f4c22e9dull},
        {"high-pressure", 0x9bfd1dd575ed685eull},
        {"wild", 0xc29f0a8f12f17e0eull},
    };
    ASSERT_EQ(std::size(pins), allProfiles().size())
        << "profile set changed: re-pin the drift guard";
    for (const Pin &pin : pins) {
        const ScenarioProfile *p = findProfile(pin.profile);
        ASSERT_NE(p, nullptr) << pin.profile;
        EXPECT_EQ(corpusSliceFingerprint(*p, 1, 64), pin.fingerprint)
            << pin.profile << " seed corpus drifted";
    }
}

// ---- sample extraction: local == wire ----

TEST(CorpusSamples, OutcomeAndResultJsonExtractIdentically)
{
    // The corpus client folds samples parsed from service result
    // documents; the local runner folds them straight from
    // RunOutcome. Byte-identity of the aggregates requires the two
    // extractions to agree exactly — in particular the wire's
    // per-level "reads"/"writes" are already datapath totals and must
    // not have the shared component added again.
    ExperimentConfig cfg;
    cfg.scheme = schemeOf("sw3");
    cfg.entries = 3;
    RunOutcome o = runAllWorkloads(cfg);
    ASSERT_TRUE(o.ok()) << o.error;

    JsonWriter w;
    writeJson(w, o);
    JsonParseResult parsed = parseJson(w.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;

    CorpusSample local = corpusSampleFromOutcome(o);
    CorpusSample wire;
    std::string err;
    ASSERT_TRUE(corpusSampleFromResultJson(parsed.value, wire, &err))
        << err;

    EXPECT_EQ(local.normalizedEnergy, wire.normalizedEnergy);
    for (int l = 0; l < 3; l++) {
        EXPECT_EQ(local.reads[l], wire.reads[l]) << "level " << l;
        EXPECT_EQ(local.writes[l], wire.writes[l]) << "level " << l;
    }
    EXPECT_EQ(local.instructions, wire.instructions);
    EXPECT_EQ(local.valueInstances, wire.valueInstances);
    EXPECT_EQ(local.lrfValues, wire.lrfValues);
    EXPECT_EQ(local.orfValues, wire.orfValues);
    EXPECT_EQ(local.mrfWritesElided, wire.mrfWritesElided);
    EXPECT_EQ(local.hasPerf, wire.hasPerf);
}

// ---- aggregate byte-identity across thread counts ----

TEST(CorpusDeterminism, AggregateJsonIsByteIdenticalAcrossThreadCounts)
{
    CorpusConfig cfg;
    cfg.profiles = {"balanced", "divergent"};
    cfg.kernelsPerProfile = 64;
    cfg.cells = {{schemeOf("sw3"), 2}, {schemeOf("hw2"), 4}};
    cfg.chunk = 16;

    ThreadPool one(1);
    ThreadPool four(4);
    std::string a = corpusToJson(runOrDie(cfg, &one));
    std::string b = corpusToJson(runOrDie(cfg, &four));
    EXPECT_EQ(a, b) << "corpus aggregate depends on thread count";

    // And across repeated runs with the default pool.
    std::string c = corpusToJson(runOrDie(cfg));
    EXPECT_EQ(a, c) << "corpus aggregate is not reproducible";
}

// ---- population golden bands ----

/**
 * The corpus-scale Figure 13 statement: over 1000 balanced-profile
 * kernels, SW_THREE_LEVEL at 3 entries saves about half the register
 * file energy, and the population confidence band overlaps the
 * deterministic golden point measured on the hand-written suite.
 */
TEST(CorpusGolden, Fig13Sw3PopulationBandBracketsGoldenValue)
{
    CorpusConfig cfg;
    cfg.profiles = {"balanced"};
    cfg.kernelsPerProfile = 1000;
    cfg.cells = {{schemeOf("sw3"), 3}};
    CorpusResult r = runOrDie(cfg);
    ASSERT_EQ(r.profiles.size(), 1u);
    const CorpusCellStats &cell = r.profiles[0].cells[0];
    EXPECT_EQ(cell.runs, 1000u);
    EXPECT_EQ(cell.errors, 0u) << cell.firstError;

    StatBand band = cell.energyRatio.bootstrapMeanBand(
        r.config.confidence, r.config.bootstrapResamples,
        r.config.seed);
    // Measured at this exact config: mean 0.5248, band
    // [0.5216, 0.5280]. The hand-written-suite golden point is 0.522
    // (47.8% savings, EXPERIMENTS.md Fig 13); the population band
    // must overlap it within a 1.5 pp margin.
    const double kGolden = 0.522;
    EXPECT_LE(band.lo, kGolden + 0.015) << "population moved high";
    EXPECT_GE(band.hi, kGolden - 0.015) << "population moved low";
    // The band itself stays tight and inside the deterministic
    // golden-test ratio band [0.48, 0.56] (savings 44-52%).
    EXPECT_LT(band.hi - band.lo, 0.03) << "band degenerated";
    EXPECT_GT(band.lo, 0.48);
    EXPECT_LT(band.hi, 0.56);
    EXPECT_TRUE(band.contains(cell.energyRatio.mean()));
}

/**
 * Per-level access-share medians of SW_THREE_LEVEL at 3 entries
 * across four profiles, 256 kernels each. Centres measured at this
 * exact config (seed 1); the +/-0.05 slack absorbs quantile bucket
 * resolution, not population drift — the drift guard above pins the
 * kernels themselves.
 */
TEST(CorpusGolden, Sw3AccessShareMediansStayInBandAcrossProfiles)
{
    struct ProfileBand
    {
        const char *profile;
        double read[3];  // median read share, MRF/ORF/LRF
        double write[3]; // median write share, MRF/ORF/LRF
    };
    const ProfileBand centres[] = {
        {"balanced", {0.432, 0.258, 0.313}, {0.314, 0.256, 0.430}},
        {"divergent", {0.405, 0.284, 0.306}, {0.294, 0.297, 0.401}},
        {"long-strands", {0.267, 0.320, 0.410}, {0.173, 0.276, 0.550}},
        {"short-strands", {0.543, 0.230, 0.231}, {0.429, 0.239, 0.333}},
    };
    const double kSlack = 0.05;

    CorpusConfig cfg;
    cfg.kernelsPerProfile = 256;
    cfg.cells = {{schemeOf("sw3"), 3}};
    cfg.profiles.clear();
    for (const ProfileBand &pb : centres)
        cfg.profiles.push_back(pb.profile);
    CorpusResult r = runOrDie(cfg);
    ASSERT_EQ(r.profiles.size(), std::size(centres));

    for (std::size_t i = 0; i < std::size(centres); i++) {
        const ProfileBand &pb = centres[i];
        const CorpusProfileStats &ps = r.profiles[i];
        ASSERT_EQ(ps.profile.name, pb.profile);
        const CorpusCellStats &cell = ps.cells[0];
        EXPECT_EQ(cell.errors, 0u)
            << pb.profile << ": " << cell.firstError;
        for (int l = 0; l < 3; l++) {
            EXPECT_NEAR(cell.readShare[l].quantile(0.5), pb.read[l],
                        kSlack)
                << pb.profile << " read level " << l;
            EXPECT_NEAR(cell.writeShare[l].quantile(0.5), pb.write[l],
                        kSlack)
                << pb.profile << " write level " << l;
        }
    }

    // Shape claims that must hold whatever the exact centres: long
    // strands keep values in registers longest, so the LRF+ORF soak
    // up most reads; short strands leave the MRF dominant.
    const CorpusCellStats &longs = r.profiles[2].cells[0];
    const CorpusCellStats &shorts = r.profiles[3].cells[0];
    EXPECT_GT(longs.readShare[2].quantile(0.5),
              longs.readShare[0].quantile(0.5))
        << "long-strands: LRF median read share below MRF";
    EXPECT_GT(shorts.readShare[0].quantile(0.5),
              shorts.readShare[2].quantile(0.5))
        << "short-strands: MRF median read share below LRF";
}

/**
 * The population ordering claims behind Figure 13 that survive the
 * move from the hand-written suite to generated populations: software
 * control beats hardware caching at equal depth, and a third level
 * beats two at equal control, per profile, on mean energy ratio.
 * (The cross claim sw2 < hw3 is suite-specific — on divergent and
 * long-strand populations the extra level outweighs compile-time
 * control, so it is deliberately not asserted here.)
 */
TEST(CorpusGolden, SchemeOrderingHoldsPerProfile)
{
    CorpusConfig cfg;
    cfg.profiles = {"balanced", "divergent", "long-strands"};
    cfg.kernelsPerProfile = 128;
    cfg.cells = {{schemeOf("sw3"), 3},
                 {schemeOf("sw2"), 3},
                 {schemeOf("hw3"), 3},
                 {schemeOf("hw2"), 3}};
    CorpusResult r = runOrDie(cfg);
    for (const CorpusProfileStats &ps : r.profiles) {
        double sw3 = ps.cells[0].energyRatio.mean();
        double sw2 = ps.cells[1].energyRatio.mean();
        double hw3 = ps.cells[2].energyRatio.mean();
        double hw2 = ps.cells[3].energyRatio.mean();
        EXPECT_LT(sw3, sw2) << ps.profile.name;  // control, 3 levels
        EXPECT_LT(sw2, hw2) << ps.profile.name;  // control, 2 levels
        EXPECT_LT(sw3, hw3) << ps.profile.name;  // depth, software
        EXPECT_LT(hw3, hw2) << ps.profile.name;  // depth, hardware
    }
}

} // namespace
} // namespace rfh
