/**
 * @file
 * Tests for the pluggable scheme registry: registration rules
 * (duplicate tokens, empty tokens, missing backends), token lookups,
 * the capability flags the engine layers branch on, byte-identity of
 * the paper schemes through registry dispatch, oracle coverage of the
 * contributed backends at several warp counts, the dynamic oracle
 * pair count, and the cross-scheme leaderboard.
 *
 * One extra backend ("testecho") is registered through the
 * RFH_REGISTER_SCHEME macro at static initialisation, so every test
 * in this binary also exercises the third-party extension path: the
 * echo scheme must show up in enumeration, the oracle sweep, and the
 * leaderboard without any engine-layer change. It is written as one
 * per-warp accountant and nothing else, so the oracle also holds the
 * default simulate() to that accountant on both engines and under the
 * pipeline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/json.h"
#include "core/leaderboard.h"
#include "core/memo.h"
#include "core/scheme.h"
#include "service/protocol.h"
#include "sim/pipeline_account.h"
#include "verify/oracle.h"
#include "verify/rptx_fuzz.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

/**
 * Flat-MRF counting of one warp: every register operand is an MRF
 * access. The echo scheme's whole model — the default simulate()
 * drives it on both engines, and the pipeline at issue.
 */
class EchoWarp final : public WarpAccountant
{
  public:
    EchoWarp(const Kernel &k, AccessCounts &counts)
        : k_(k), counts_(counts)
    {
    }

    void
    onIssue(int lin, bool enabled, bool /*taken*/,
            std::int32_t /*nextLin*/, OperandPlan &plan) override
    {
        const Instruction &in = k_.instr(lin);
        const Datapath dp = datapathOf(in.unit());
        counts_.read(Level::MRF, dp, in.numRegReads());
        if (enabled)
            counts_.write(Level::MRF, dp, in.numRegWrites());
        counts_.instructions++;
        for (int s = 0; s < in.numSrcs; s++)
            if (in.srcs[s].isReg)
                plan.mrfReg[plan.numMrf++] = in.srcs[s].reg;
        if (in.pred)
            plan.mrfReg[plan.numMrf++] = *in.pred;
    }

  private:
    const Kernel &k_;
    AccessCounts &counts_;
};

class EchoAccounting final : public AccountingOf<EchoWarp>
{
  public:
    EchoAccounting(const Kernel &k, AccessCounts &counts)
        : k_(k), counts_(counts)
    {
    }

  protected:
    std::unique_ptr<EchoWarp>
    newWarp(int /*warp*/) override
    {
        return std::make_unique<EchoWarp>(k_, counts_);
    }

  private:
    const Kernel &k_;
    AccessCounts &counts_;
};

/** Trivial backend: recounts the flat baseline. */
class EchoScheme : public SchemeBackend
{
  public:
    std::unique_ptr<PipelineAccounting>
    makePipelineAccounting(const PipelineBuildContext &ctx) const override
    {
        return std::make_unique<EchoAccounting>(*ctx.kernel,
                                                *ctx.counts);
    }
};

SchemeSpec
echoSpec()
{
    SchemeSpec s;
    s.token = "testecho";
    s.display = "Echo";
    s.summary = "test-only baseline echo";
    s.caps.usesAnalyses = false;
    s.caps.sweepsEntries = false;
    s.caps.pipelined = true;
    return s;
}

std::unique_ptr<SchemeBackend>
makeEcho()
{
    return std::make_unique<EchoScheme>();
}

} // namespace

// Static-registration extension path (see file comment).
RFH_REGISTER_SCHEME(echoRegistrar, echoSpec(), makeEcho);

namespace {

// ---- Registration rules ----

TEST(SchemeRegistry, PaperSchemesHaveFixedIdsAndTokens)
{
    SchemeRegistry &reg = SchemeRegistry::instance();
    struct Expect
    {
        Scheme scheme;
        const char *token;
        const char *display;
    };
    const Expect expected[] = {
        {Scheme::BASELINE, "baseline", "Baseline"},
        {Scheme::HW_TWO_LEVEL, "hw2", "HW"},
        {Scheme::HW_THREE_LEVEL, "hw3", "HW LRF"},
        {Scheme::SW_TWO_LEVEL, "sw2", "SW"},
        {Scheme::SW_THREE_LEVEL, "sw3", "SW LRF"},
    };
    for (const Expect &e : expected) {
        const SchemeInfo *si = reg.find(e.scheme);
        ASSERT_NE(si, nullptr) << e.token;
        EXPECT_EQ(si->token, e.token);
        EXPECT_EQ(si->display, e.display);
        EXPECT_TRUE(si->paper);
        EXPECT_EQ(reg.findToken(e.token), si);
    }
}

TEST(SchemeRegistry, ContributedBackendsAreRegistered)
{
    SchemeRegistry &reg = SchemeRegistry::instance();
    for (const char *token : {"ccrfc", "regdem", "greener"}) {
        const SchemeInfo *si = reg.findToken(token);
        ASSERT_NE(si, nullptr) << token;
        EXPECT_FALSE(si->paper) << token;
        EXPECT_EQ(reg.find(si->scheme), si) << token;
    }
}

TEST(SchemeRegistry, DuplicateTokenThrowsWithPositionContext)
{
    SchemeSpec dup;
    dup.token = "baseline";
    dup.display = "Imposter";
    try {
        SchemeRegistry::instance().add(dup,
                                       std::make_unique<EchoScheme>());
        FAIL() << "duplicate registration was accepted";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate scheme token 'baseline'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("#0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("Baseline"), std::string::npos) << msg;
    }
}

TEST(SchemeRegistry, EmptyTokenAndMissingBackendAreRejected)
{
    SchemeSpec empty;
    EXPECT_THROW(SchemeRegistry::instance().add(
                     empty, std::make_unique<EchoScheme>()),
                 std::invalid_argument);
    SchemeSpec nobackend;
    nobackend.token = "nobackend-test";
    EXPECT_THROW(SchemeRegistry::instance().add(nobackend, nullptr),
                 std::invalid_argument);
    // Neither failed registration may leave a record behind.
    EXPECT_EQ(SchemeRegistry::instance().findToken("nobackend-test"),
              nullptr);
}

TEST(SchemeRegistry, UnknownLookupsReturnNull)
{
    SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_EQ(reg.findToken("bogus"), nullptr);
    EXPECT_EQ(reg.find(Scheme(255)), nullptr);
    EXPECT_EQ(schemeName(Scheme(255)), "?");
}

TEST(SchemeRegistry, TokenListMatchesRegistrationOrder)
{
    std::string list = SchemeRegistry::instance().tokenList();
    // Paper schemes first, in historic order, then the contribs.
    EXPECT_EQ(list.rfind("baseline, hw2, hw3, sw2, sw3, ccrfc, "
                         "regdem, greener",
                         0),
              0u)
        << list;
    EXPECT_NE(list.find("testecho"), std::string::npos) << list;
}

TEST(SchemeRegistry, MacroRegisteredSchemeIsEnumerated)
{
    const SchemeInfo *si =
        SchemeRegistry::instance().findToken("testecho");
    ASSERT_NE(si, nullptr);
    EXPECT_EQ(si->display, "Echo");
    EXPECT_FALSE(si->caps.sweepsEntries);
    bool enumerated = false;
    for (const SchemeInfo *s : SchemeRegistry::instance().schemes())
        enumerated |= s == si;
    EXPECT_TRUE(enumerated);
}

// ---- Capability flags ----

TEST(SchemeCapsTest, BuiltinsDescribeTheirEngineNeeds)
{
    SchemeRegistry &reg = SchemeRegistry::instance();
    const SchemeCaps base = reg.find(Scheme::BASELINE)->caps;
    EXPECT_FALSE(base.usesTrace);
    EXPECT_FALSE(base.usesAllocator);
    EXPECT_FALSE(base.sweepsEntries);

    const SchemeCaps hw = reg.find(Scheme::HW_TWO_LEVEL)->caps;
    EXPECT_TRUE(hw.hwManaged);
    EXPECT_TRUE(hw.usesTrace);
    EXPECT_TRUE(hw.wantsDecode);
    EXPECT_FALSE(hw.usesAllocator);

    const SchemeCaps sw = reg.find(Scheme::SW_THREE_LEVEL)->caps;
    EXPECT_TRUE(sw.usesAllocator);
    EXPECT_TRUE(sw.pipelined);
    EXPECT_FALSE(sw.hwManaged);

    EXPECT_TRUE(reg.findToken("ccrfc")->caps.hwManaged);
    EXPECT_FALSE(reg.findToken("regdem")->caps.hwManaged);
    EXPECT_FALSE(reg.findToken("greener")->caps.usesTrace);
}

TEST(SchemeCapsTest, AllocOptionsComeFromTheBackend)
{
    ExperimentConfig cfg;
    cfg.scheme = Scheme::SW_THREE_LEVEL;
    EXPECT_TRUE(cfg.allocOptions().useLRF);
    cfg.scheme = Scheme::SW_TWO_LEVEL;
    EXPECT_FALSE(cfg.allocOptions().useLRF);
    cfg.scheme = Scheme::HW_TWO_LEVEL;
    EXPECT_FALSE(cfg.allocOptions().useLRF);
    cfg.scheme = Scheme::SW_THREE_LEVEL;
    cfg.splitLRF = false;
    EXPECT_FALSE(cfg.allocOptions().splitLRF);
}

// ---- Service protocol through the registry ----

TEST(SchemeProtocol, EveryRegisteredTokenRoundTrips)
{
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes()) {
        auto s = schemeFromToken(si->token);
        ASSERT_TRUE(s.has_value()) << si->token;
        EXPECT_EQ(*s, si->scheme);
        EXPECT_EQ(schemeToken(*s), si->token);
    }
    EXPECT_FALSE(schemeFromToken("bogus").has_value());
}

TEST(SchemeProtocol, UnknownSchemeErrorListsRegistryTokens)
{
    ParsedRequest p = parseServiceRequest(
        "{\"op\":\"run\",\"workload\":\"vectoradd\","
        "\"scheme\":\"bogus\"}");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::UNKNOWN_SCHEME);
    // The valid-token list is generated from the registry, so every
    // registered backend (including the macro-registered test one)
    // appears in the message.
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes())
        EXPECT_NE(p.error.message.find(si->token), std::string::npos)
            << si->token << " missing from: " << p.error.message;
}

// ---- Dispatch byte-identity and engine selection ----

TEST(SchemeDispatch, PaperSchemesAreEngineByteIdentical)
{
    const Workload &w = workloadByName("vectoradd");
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes()) {
        ExperimentConfig cfg;
        cfg.scheme = si->scheme;
        cfg.engine = ExecEngine::DIRECT;
        RunOutcome direct = runScheme(w, cfg);
        cfg.engine = ExecEngine::REPLAY;
        RunOutcome replay = runScheme(w, cfg);
        ASSERT_TRUE(direct.ok()) << si->token << ": " << direct.error;
        ASSERT_TRUE(replay.ok()) << si->token << ": " << replay.error;
        EXPECT_EQ(outcomeToJson(direct), outcomeToJson(replay))
            << si->token;
    }
}

TEST(SchemeDispatch, UnregisteredSchemeFailsWithTokenList)
{
    const Workload &w = workloadByName("vectoradd");
    ExperimentConfig cfg;
    cfg.scheme = Scheme(250);
    RunOutcome o = runScheme(w, cfg);
    ASSERT_FALSE(o.ok());
    EXPECT_NE(o.error.find("unregistered scheme id 250"),
              std::string::npos)
        << o.error;
    EXPECT_NE(o.error.find("baseline"), std::string::npos) << o.error;
}

// ---- Oracle: dynamic pair count and contributed backends ----

/** The pair count runOracle must report, derived from the caps. */
int
expectedOraclePairs(const OracleOptions &oo)
{
    int pairs = 0;
    for (const SchemeInfo *si : SchemeRegistry::instance().schemes()) {
        if (si->caps.hwManaged && !oo.checkHwSchemes)
            continue;
        pairs++;  // direct vs replay
        if (si->caps.pipelined)
            pairs++;  // pipeline vs functional
        if (si->caps.usesAllocator) {
            pairs++;  // conservation on the scalar run
            if (oo.checkSimt)
                pairs++;  // scalar-vs-simt-w1
        } else if (si->scheme != Scheme::BASELINE) {
            pairs++;  // conservation on the direct counts
        }
    }
    return pairs;
}

TEST(SchemeOracle, PairCountFollowsTheRegistry)
{
    Kernel k = generateFuzzKernel("pairs", fuzzCase(11, 0));
    OracleOptions oo;
    oo.run.numWarps = 2;
    oo.run.maxInstrsPerWarp = 1u << 16;
    oo.simtWidth = 4;
    OracleReport rep = runOracle(k, oo);
    ASSERT_FALSE(rep.truncated);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.pairsChecked, expectedOraclePairs(oo));
    // The registry grew the sweep well past the historic 11 pairs of
    // the five-scheme era.
    EXPECT_GE(rep.pairsChecked, 19);

    oo.checkHwSchemes = false;
    globalExperimentCache().clear();
    OracleReport nohw = runOracle(k, oo);
    EXPECT_EQ(nohw.pairsChecked, expectedOraclePairs(oo));
    EXPECT_LT(nohw.pairsChecked, rep.pairsChecked);
    globalExperimentCache().clear();
}

TEST(SchemeOracle, ContributedBackendsCleanAtSeveralWarpCounts)
{
    for (int warps : {1, 3, 8}) {
        for (int seed : {21, 22}) {
            Kernel k = generateFuzzKernel(
                "w" + std::to_string(warps) + "s" +
                    std::to_string(seed),
                fuzzCase(static_cast<std::uint64_t>(seed), 0));
            OracleOptions oo;
            oo.run.numWarps = warps;
            oo.run.maxInstrsPerWarp = 1u << 16;
            oo.simtWidth = 4;
            OracleReport rep = runOracle(k, oo);
            ASSERT_FALSE(rep.truncated);
            EXPECT_TRUE(rep.ok())
                << "warps=" << warps << " seed=" << seed << "\n"
                << rep.summary();
            globalExperimentCache().clear();
        }
    }
}

// ---- Leaderboard ----

/** One shared board: the full sweep is too expensive to run twice. */
const Leaderboard &
sharedLeaderboard()
{
    static const Leaderboard lb = runLeaderboard();
    return lb;
}

TEST(SchemeLeaderboard, RanksEveryRegisteredScheme)
{
    const Leaderboard &lb = sharedLeaderboard();
    ASSERT_EQ(lb.rows.size(), SchemeRegistry::instance().size());
    for (std::size_t i = 1; i < lb.rows.size(); i++)
        EXPECT_LE(lb.rows[i - 1].outcome.normalizedEnergy(),
                  lb.rows[i].outcome.normalizedEnergy());
    // The paper's best scheme must win the board, and the flat
    // baseline must sit at normalised energy 1.
    EXPECT_EQ(lb.rows.front().token, "sw3");
    for (const LeaderboardRow &row : lb.rows) {
        if (row.token == "baseline")
            EXPECT_DOUBLE_EQ(row.outcome.normalizedEnergy(), 1.0);
        EXPECT_TRUE(row.outcome.ok())
            << row.token << ": " << row.outcome.error;
    }
}

TEST(SchemeLeaderboard, JsonDocumentParsesWithRankedRows)
{
    const Leaderboard &lb = sharedLeaderboard();
    JsonParseResult doc = parseJson(leaderboardToJson(lb));
    ASSERT_TRUE(doc.ok) << doc.error;
    const JsonValue *rows = doc.value.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->isArray());
    ASSERT_EQ(rows->array.size(), lb.rows.size());
    for (std::size_t i = 0; i < rows->array.size(); i++) {
        const JsonValue &row = rows->array[i];
        EXPECT_EQ(row.numberOr("rank", 0), static_cast<double>(i + 1));
        EXPECT_EQ(row.stringOr("scheme", ""), lb.rows[i].token);
        EXPECT_NE(row.find("normalizedEnergy"), nullptr);
        EXPECT_NE(row.find("reads"), nullptr);
        EXPECT_NE(row.find("writes"), nullptr);
    }
    std::string table = renderLeaderboard(lb);
    for (const LeaderboardRow &row : lb.rows)
        EXPECT_NE(table.find(row.token), std::string::npos)
            << row.token;
}

} // namespace
} // namespace rfh
