/**
 * @file
 * Tests of the benchmark's own ledger: the work counts repeat exactly
 * and match the engine at any thread count, spans nest, the traced
 * replicas reproduce the untraced outputs byte for byte, and the
 * traced layers account for the untraced one-thread wall time.
 */

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "core/corpus.h"
#include "core/experiment.h"
#include "core/memo.h"
#include "core/parallel.h"
#include "ledger.h"
#include "process.h"
#include "workloads.h"
#include "workloads/profiles.h"

using namespace perfbench;

namespace {

rfh::CorpusConfig
smallCorpus(WorkloadKind kind)
{
    return corpusConfig(kind, 7, {"all"}, 2);
}

/**
 * The work counts of the engine's own runs of @p cfg on @p threads
 * threads: the (kernel, cell) batch runCorpus builds, through
 * replayBatch, summed the way the ledger counts them.
 */
WorkCounts
engineCounts(const rfh::CorpusConfig &cfg, int threads)
{
    std::vector<rfh::ScenarioProfile> profiles;
    std::vector<rfh::CorpusCell> cells;
    std::string err;
    EXPECT_TRUE(rfh::resolveCorpusConfig(cfg, profiles, cells, &err)) << err;
    rfh::ThreadPool pool(threads);
    std::vector<rfh::Workload> ws;
    for (const rfh::ScenarioProfile &p : profiles)
        for (int k = 0; k < cfg.kernelsPerProfile; k++)
            ws.push_back(rfh::corpusWorkload(p, cfg.seed, k));
    std::vector<rfh::BatchItem> items;
    for (const rfh::Workload &w : ws) {
        for (const rfh::CorpusCell &c : cells) {
            rfh::BatchItem item;
            item.workload = &w;
            item.cfg.scheme = c.scheme;
            item.cfg.entries = c.entries;
            item.cfg.perf = cfg.perf;
            items.push_back(item);
        }
    }
    std::vector<rfh::RunOutcome> outs = rfh::replayBatch(items, &pool);
    WorkCounts wc;
    for (std::size_t k = 0; k < ws.size(); k++) {
        wc.staticInstrs += static_cast<std::uint64_t>(ws[k].kernel.numInstrs());
        wc.dynInstrs += outs[k * cells.size()].counts.instructions;
        for (std::size_t c = 0; c < cells.size(); c++) {
            const rfh::RunOutcome &o = outs[k * cells.size() + c];
            EXPECT_TRUE(o.ok()) << o.error;
            wc.valueInstances +=
                static_cast<std::uint64_t>(o.alloc.valueInstances);
            if (o.hasPerf)
                wc.pipelineCycles += o.perf.cycles;
        }
    }
    rfh::globalExperimentCache().clear();
    return wc;
}

std::string
runCorpusDoc(const rfh::CorpusConfig &cfg, int threads)
{
    rfh::ThreadPool pool(threads);
    rfh::CorpusResult res;
    std::string err;
    EXPECT_TRUE(rfh::runCorpus(cfg, res, &pool, &err)) << err;
    EXPECT_EQ(res.totalErrors, 0u);
    return rfh::corpusToJson(res);
}

} // namespace

TEST(Ledger, WorkCountsRepeatExactly)
{
    for (WorkloadKind kind :
         {WorkloadKind::CORPUS_SWEEP, WorkloadKind::CORPUS_PERF}) {
        rfh::CorpusConfig cfg = smallCorpus(kind);
        Tracer a, b;
        WorkCounts ca, cb;
        std::string da = tracedCorpus(cfg, a, ca);
        std::string db = tracedCorpus(cfg, b, cb);
        EXPECT_EQ(da, db);
        EXPECT_TRUE(ca == cb) << workloadName(kind);
        EXPECT_GT(ca.staticInstrs, 0u);
        EXPECT_GT(ca.dynInstrs, 0u);
        EXPECT_GT(ca.valueInstances, 0u);
        EXPECT_EQ(ca.pipelineCycles > 0, kind == WorkloadKind::CORPUS_PERF);
    }
    Tracer a, b;
    WorkCounts ca, cb;
    for (std::uint64_t g = 0; g < 8; g++) {
        std::string line = serveRequestLine(3, g);
        tracedServeRequest(line, a, ca);
        tracedServeRequest(line, b, cb);
    }
    EXPECT_TRUE(ca == cb);
    EXPECT_GT(ca.dynInstrs, 0u);
}

TEST(Ledger, WorkCountsMatchTheEngineAtOneAndAllThreads)
{
    const int nproc =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
    for (WorkloadKind kind :
         {WorkloadKind::CORPUS_SWEEP, WorkloadKind::CORPUS_PERF}) {
        rfh::CorpusConfig cfg = smallCorpus(kind);
        Tracer tr;
        WorkCounts traced;
        tracedCorpus(cfg, tr, traced);
        WorkCounts one = engineCounts(cfg, 1);
        WorkCounts all = engineCounts(cfg, nproc);
        EXPECT_TRUE(traced == one) << workloadName(kind);
        EXPECT_TRUE(one == all) << workloadName(kind);
    }
}

TEST(Ledger, TracedReplicasReproduceTheUntracedOutputs)
{
    for (WorkloadKind kind :
         {WorkloadKind::CORPUS_SWEEP, WorkloadKind::CORPUS_PERF}) {
        rfh::CorpusConfig cfg = smallCorpus(kind);
        Tracer tr;
        WorkCounts wc;
        std::string traced = tracedCorpus(cfg, tr, wc);
        EXPECT_EQ(traced, runCorpusDoc(cfg, 1)) << workloadName(kind);
        EXPECT_EQ(traced, runCorpusDoc(cfg, 4)) << workloadName(kind);
    }
    Tracer tr;
    WorkCounts wc;
    for (std::uint64_t g = 0; g < 16; g++) {
        std::string line = serveRequestLine(5, g);
        std::string reply = tracedServeRequest(line, tr, wc);
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
        EXPECT_EQ(reply, serveRequestOracle(line)) << "request " << g;
    }
}

TEST(Ledger, SpansNestInsideTheirParents)
{
    Tracer tr;
    WorkCounts wc;
    tracedCorpus(smallCorpus(WorkloadKind::CORPUS_PERF), tr, wc);
    for (std::uint64_t g = 0; g < 8; g++)
        tracedServeRequest(serveRequestLine(1, g), tr, wc);
    EXPECT_EQ(checkNesting(tr.spans()), "");

    // The pipeline runs nest two deep: run_scheme > scheme_pipeline >
    // pipeline; every child lies inside its parent's interval.
    int nested = 0;
    for (const Span &s : tr.spans()) {
        if (std::string(s.name) != "sim.pipeline")
            continue;
        const Span &p = tr.spans()[static_cast<std::size_t>(s.parent)];
        EXPECT_STREQ(p.name, "core.scheme_pipeline");
        EXPECT_STREQ(tr.spans()[static_cast<std::size_t>(p.parent)].name,
                     "core.run_scheme");
        EXPECT_GE(s.startNs, p.startNs);
        EXPECT_LE(s.endNs, p.endNs);
        nested++;
    }
    EXPECT_GT(nested, 0);
    for (const auto &[name, t] : layerTotals(tr.spans()))
        EXPECT_GE(t.selfSec, 0.0) << name;
}

TEST(Ledger, CheckNestingReportsAnEscapingChild)
{
    std::vector<Span> spans(2);
    spans[0].name = "core.run_scheme";
    spans[0].startNs = 100;
    spans[0].endNs = 200;
    spans[1].name = "sim.replay";
    spans[1].parent = 0;
    spans[1].startNs = 150;
    spans[1].endNs = 250;
    EXPECT_NE(checkNesting(spans), "");
    spans[1].endNs = 190;
    EXPECT_EQ(checkNesting(spans), "");
    std::map<std::string, LayerTotal> t = layerTotals(spans);
    EXPECT_NEAR(t["core.run_scheme"].selfSec, 60e-9, 1e-15);
    EXPECT_NEAR(t["sim.replay"].selfSec, 40e-9, 1e-15);
    EXPECT_NEAR(rootSpanSec(spans, 0, 2), 100e-9, 1e-15);
}

TEST(Ledger, TracedLayersAccountForTheUntracedWall)
{
    // Best of three on each side damps scheduling noise; the traced
    // layer sum plus the unattributed share must rebuild the untraced
    // one-thread wall, with the layers covering most of it.
    rfh::CorpusConfig cfg =
        corpusConfig(WorkloadKind::CORPUS_SWEEP, 11, {"all"}, 4);
    rfh::ThreadPool one(1);
    double untraced = 1e9, layers = 1e9;
    for (int rep = 0; rep < 3; rep++) {
        double t0 = nowSec();
        rfh::CorpusResult res;
        ASSERT_TRUE(rfh::runCorpus(cfg, res, &one));
        rfh::corpusToJson(res);
        untraced = std::min(untraced, nowSec() - t0);
        Tracer tr;
        WorkCounts wc;
        tracedCorpus(cfg, tr, wc);
        layers = std::min(layers, layerSum(layerTotals(tr.spans())));
    }
    const double unattributed = 1.0 - layers / untraced;
    EXPECT_NEAR(layers + unattributed * untraced, untraced, 1e-9);
    EXPECT_GT(layers, 0.5 * untraced);
    EXPECT_LT(layers, 1.25 * untraced);
}
