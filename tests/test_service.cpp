/**
 * @file
 * Tests for the batch compile/sim service (src/service/).
 *
 * The protocol tests pin the request schema: structured errors carry
 * position/context (JSON parse offsets, RPTX line numbers, the valid
 * scheme set, the queue capacity). The service tests drive a real
 * BatchService on its own small pool through the inference-server
 * paths — deadline expiry, load shedding, graceful drain — and the
 * concurrency test requires every response's result document to be
 * byte-identical to a direct runScheme() of the same configuration,
 * the invariant that lets clients switch between the CLI and the
 * service without re-baselining.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/parallel.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads/profiles.h"
#include "workloads/registry.h"

namespace rfh {
namespace {

// ---- Protocol ----

TEST(ServiceProtocol, RunRequestDefaultsAndFields)
{
    ParsedRequest p = parseServiceRequest(
        R"({"id":7,"op":"run","workload":"vectoradd"})");
    ASSERT_TRUE(p.ok) << p.error.message;
    EXPECT_EQ(p.request.idJson, "7");
    EXPECT_EQ(p.request.op, ServiceOp::RUN);
    EXPECT_EQ(p.request.workload, "vectoradd");
    EXPECT_EQ(p.request.scheme, Scheme::SW_THREE_LEVEL);
    EXPECT_EQ(p.request.entries, 3);
    EXPECT_EQ(p.request.warps, 8);
    EXPECT_TRUE(p.request.splitLRF);
    EXPECT_FALSE(p.request.deadlineMs.has_value());

    p = parseServiceRequest(
        R"({"id":"abc","workload":"lu","scheme":"hw2","entries":4,)"
        R"("warps":2,"split_lrf":false,)"
        R"("partial_ranges":false,"read_operands":false,)"
        R"("deadline_ms":250})");
    ASSERT_TRUE(p.ok) << p.error.message;
    EXPECT_EQ(p.request.idJson, "\"abc\"");
    EXPECT_EQ(p.request.scheme, Scheme::HW_TWO_LEVEL);
    EXPECT_EQ(p.request.entries, 4);
    EXPECT_EQ(p.request.warps, 2);
    EXPECT_FALSE(p.request.splitLRF);
    EXPECT_FALSE(p.request.partialRanges);
    EXPECT_FALSE(p.request.readOperands);
    ASSERT_TRUE(p.request.deadlineMs.has_value());
    EXPECT_DOUBLE_EQ(*p.request.deadlineMs, 250.0);
}

TEST(ServiceProtocol, ParseErrorCarriesOffset)
{
    ParsedRequest p = parseServiceRequest(R"({"op":"run",})");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::PARSE_ERROR);
    EXPECT_NE(p.error.message.find("offset"), std::string::npos)
        << p.error.message;
}

TEST(ServiceProtocol, UnknownFieldIsNamed)
{
    ParsedRequest p = parseServiceRequest(
        R"({"id":1,"workload":"lu","schem":"sw3"})");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::BAD_REQUEST);
    EXPECT_NE(p.error.message.find("'schem'"), std::string::npos)
        << p.error.message;
    EXPECT_EQ(p.request.idJson, "1");  // id still echoed
}

TEST(ServiceProtocol, EngineIsAnUnknownField)
{
    // Every request runs on the one production engine, so a line
    // naming an engine is rejected like any other unknown field,
    // whatever the value.
    for (const char *value : {"\"auto\"", "\"direct\"", "\"replay\"",
                              "\"warp\"", "7"}) {
        ParsedRequest p = parseServiceRequest(
            std::string(R"({"id":1,"workload":"lu","engine":)") + value +
            "}");
        ASSERT_FALSE(p.ok) << value;
        EXPECT_EQ(p.error.code, ServiceErrorCode::BAD_REQUEST) << value;
        EXPECT_EQ(p.error.message, "unknown field 'engine'") << value;
        EXPECT_EQ(p.request.idJson, "1");
    }
}

TEST(ServiceProtocol, RunNeedsExactlyOneKernelSource)
{
    ParsedRequest neither = parseServiceRequest(R"({"op":"run"})");
    ASSERT_FALSE(neither.ok);
    EXPECT_EQ(neither.error.code, ServiceErrorCode::BAD_REQUEST);
    EXPECT_NE(neither.error.message.find("neither"),
              std::string::npos);

    ParsedRequest both = parseServiceRequest(
        R"({"workload":"lu","kernel":".kernel k\nentry:\n    exit\n"})");
    ASSERT_FALSE(both.ok);
    EXPECT_EQ(both.error.code, ServiceErrorCode::BAD_REQUEST);
    EXPECT_NE(both.error.message.find("both"), std::string::npos);
}

TEST(ServiceProtocol, UnknownSchemeListsValidTokens)
{
    ParsedRequest p = parseServiceRequest(
        R"({"workload":"lu","scheme":"sw4"})");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::UNKNOWN_SCHEME);
    // The valid-token list comes straight from the scheme registry,
    // so contributed backends appear without protocol changes.
    EXPECT_NE(p.error.message.find(
                  "baseline, hw2, hw3, sw2, sw3, ccrfc, regdem, "
                  "greener"),
              std::string::npos)
        << p.error.message;
}

TEST(ServiceProtocol, EntriesRangeIsEnforced)
{
    ParsedRequest p = parseServiceRequest(
        R"({"workload":"lu","entries":9})");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::BAD_REQUEST);
    EXPECT_NE(p.error.message.find("entries"), std::string::npos);
}

TEST(ServiceProtocol, NonFiniteDeadlineIsRejected)
{
    // 1e999 overflows to +inf in the JSON number parser.
    ParsedRequest p = parseServiceRequest(
        R"({"workload":"lu","deadline_ms":1e999})");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::BAD_REQUEST);
    EXPECT_NE(p.error.message.find("deadline_ms"), std::string::npos);
}

TEST(ServiceProtocol, NegativeDeadlineIsRejected)
{
    ParsedRequest p = parseServiceRequest(
        R"({"workload":"lu","deadline_ms":-1})");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::BAD_REQUEST);
    EXPECT_NE(p.error.message.find("deadline_ms"), std::string::npos);
}

TEST(ServiceProtocol, OversizedDeadlineIsRejected)
{
    ParsedRequest p = parseServiceRequest(
        R"({"workload":"lu","deadline_ms":1e300})");
    ASSERT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, ServiceErrorCode::BAD_REQUEST);
    EXPECT_NE(p.error.message.find("deadline_ms"), std::string::npos);

    // The bound itself is accepted.
    ParsedRequest edge = parseServiceRequest(
        R"({"workload":"lu","deadline_ms":1e9})");
    ASSERT_TRUE(edge.ok) << edge.error.message;
    EXPECT_EQ(*edge.request.deadlineMs, kMaxDeadlineMs);
}

TEST(ServiceProtocol, EnvelopesAreExactBytes)
{
    EXPECT_EQ(makeResultLine("7", "{\"x\":1}"),
              R"({"id":7,"ok":true,"result":{"x":1}})");
    EXPECT_EQ(makeAckLine("null", "pong"),
              R"({"id":null,"ok":true,"op":"pong"})");
    ServiceError err;
    err.code = ServiceErrorCode::OVERLOADED;
    err.message = "full";
    err.context.emplace_back("queue_capacity", "64");
    EXPECT_EQ(makeErrorLine("\"c1\"", err),
              R"({"id":"c1","ok":false,"error":{"code":"overloaded",)"
              R"("message":"full","queue_capacity":64}})");
}

TEST(ServiceProtocol, CanonicalSerializationRoundTrips)
{
    // perfbench and the tests build request lines with
    // serviceRequestToJson, so parse(toJson(parse(line))) must
    // reproduce every field exactly — regardless of the original key
    // order.
    const char *lines[] = {
        R"({"id":7,"op":"run","workload":"vectoradd"})",
        R"({"scheme":"hw2","id":"abc","op":"run","entries":4,)"
        R"("kernel":"k","warps":2,)"
        R"("split_lrf":false,"partial_ranges":false,)"
        R"("read_operands":false,"deadline_ms":250})",
        R"({"op":"ping"})",
        R"({"id":1,"op":"stats"})",
    };
    for (const char *line : lines) {
        ParsedRequest first = parseServiceRequest(line);
        ASSERT_TRUE(first.ok) << line;
        std::string canonical = serviceRequestToJson(first.request);
        ParsedRequest second = parseServiceRequest(canonical);
        ASSERT_TRUE(second.ok) << canonical;
        EXPECT_EQ(serviceRequestToJson(second.request), canonical);
        EXPECT_EQ(second.request.op, first.request.op);
        EXPECT_EQ(second.request.idJson, first.request.idJson);
        EXPECT_EQ(second.request.workload, first.request.workload);
        EXPECT_EQ(second.request.kernelText, first.request.kernelText);
        EXPECT_EQ(second.request.scheme, first.request.scheme);
        EXPECT_EQ(second.request.entries, first.request.entries);
        EXPECT_EQ(second.request.warps, first.request.warps);
        EXPECT_EQ(second.request.deadlineMs, first.request.deadlineMs);
    }
}

// ---- BatchService ----

/** Submit one line and wait for its (possibly async) response. */
std::string
runOne(BatchService &svc, const std::string &line)
{
    auto p = std::make_shared<std::promise<std::string>>();
    auto f = p->get_future();
    svc.submit(line, [p](const std::string &r) { p->set_value(r); });
    return f.get();
}

/** The result document a run of (workload, scheme, entries) must yield. */
std::string
expectedResult(const std::string &workload, const std::string &scheme,
               int entries, int warps = 8)
{
    Workload w = *findWorkload(workload);
    w.run.numWarps = warps;
    ExperimentConfig cfg;
    cfg.scheme = *schemeFromToken(scheme);
    cfg.entries = entries;
    RunOutcome o = runScheme(w, cfg);
    EXPECT_TRUE(o.ok()) << o.error;
    return outcomeToJson(o);
}

TEST(ServiceServer, ResultIsByteIdenticalToDirectRun)
{
    ThreadPool pool(2);
    ServiceOptions so;
    so.pool = &pool;
    BatchService svc(so);
    svc.start();
    std::string resp = runOne(
        svc, R"({"id":1,"workload":"vectoradd","scheme":"sw3"})");
    svc.drain();
    EXPECT_EQ(resp, makeResultLine(
                        "1", expectedResult("vectoradd", "sw3", 3)));
}

TEST(ServiceServer, StatsOpReportsServiceAndCacheCounters)
{
    ThreadPool pool(2);
    ServiceOptions so;
    so.pool = &pool;
    BatchService svc(so);
    svc.start();
    runOne(svc, R"({"id":1,"workload":"vectoradd","scheme":"hw2"})");
    std::string resp = runOne(svc, R"({"id":2,"op":"stats"})");
    svc.drain();

    JsonParseResult parsed = parseJson(resp);
    ASSERT_TRUE(parsed.ok) << resp;
    EXPECT_TRUE(parsed.value.boolOr("ok", false));
    const JsonValue *stats = parsed.value.find("stats");
    ASSERT_NE(stats, nullptr) << resp;
    const JsonValue *service = stats->find("service");
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->numberOr("completed", -1.0), 1.0);
    EXPECT_EQ(service->numberOr("ok", -1.0), 1.0);
    const JsonValue *memo = stats->find("memo");
    ASSERT_NE(memo, nullptr);
    // All four memo maps report; the replay run consulted the decode map.
    for (const char *map : {"baseline", "analysis", "trace", "decode"}) {
        EXPECT_NE(memo->find(std::string(map) + "_hits"), nullptr) << map;
        EXPECT_NE(memo->find(std::string(map) + "_misses"), nullptr)
            << map;
    }
    EXPECT_GE(memo->numberOr("decode_hits", 0.0) +
                  memo->numberOr("decode_misses", 0.0),
              1.0);
    // The reply carries exactly the service and memo objects.
    EXPECT_EQ(stats->object.size(), 2u) << resp;
}

TEST(ServiceServer, KernelTextAndStructuredErrors)
{
    ThreadPool pool(1);
    ServiceOptions so;
    so.pool = &pool;
    BatchService svc(so);
    svc.start();

    // Inline kernel text runs through the ordinary parser.
    std::string ok = runOne(
        svc,
        R"({"id":1,"kernel":".kernel tiny\nentry:\n    iadd R1, R0, #1\n    exit\n"})");
    EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;

    // A broken kernel comes back with the parser's line number.
    std::string bad = runOne(
        svc, R"({"id":2,"kernel":".kernel k\nentry:\n    frob R1\n"})");
    EXPECT_NE(bad.find("\"code\":\"bad_kernel\""), std::string::npos)
        << bad;
    EXPECT_NE(bad.find("line 3"), std::string::npos) << bad;

    std::string unknown =
        runOne(svc, R"({"id":3,"workload":"not_a_workload"})");
    EXPECT_NE(unknown.find("\"code\":\"unknown_workload\""),
              std::string::npos)
        << unknown;

    std::string ping = runOne(svc, R"({"id":4,"op":"ping"})");
    EXPECT_EQ(ping, R"({"id":4,"ok":true,"op":"pong"})");
    svc.drain();
}

TEST(ServiceServer, ExpiredDeadlineDoesNotPoisonTheWorker)
{
    ThreadPool pool(1);
    ServiceOptions so;
    so.pool = &pool;
    BatchService svc(so);
    svc.start();

    // An already-expired deadline must come back as a structured
    // timeout without executing anything...
    std::string timedOut = runOne(
        svc,
        R"({"id":1,"workload":"vectoradd","deadline_ms":0.000001})");
    EXPECT_NE(timedOut.find("\"code\":\"deadline_exceeded\""),
              std::string::npos)
        << timedOut;

    // ...and the same worker must then serve the next request.
    std::string after = runOne(
        svc, R"({"id":2,"workload":"vectoradd","scheme":"sw2"})");
    EXPECT_EQ(after, makeResultLine(
                         "2", expectedResult("vectoradd", "sw2", 3)));
    svc.drain();

    ServiceStats s = svc.stats();
    EXPECT_EQ(s.timeouts, 1u);
    EXPECT_EQ(s.ok, 1u);
    EXPECT_EQ(s.completed, 2u);
}

TEST(ServiceServer, FullQueueShedsWithCapacityContext)
{
    ThreadPool pool(1);
    ServiceOptions so;
    so.pool = &pool;
    so.workers = 1;
    so.queueCapacity = 1;

    // Gate the single worker so the queue state is deterministic:
    // request A blocks in the gate, B fills the queue, C sheds.
    std::mutex gateMu;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::promise<void> handling;
    std::atomic<bool> handlingSignalled{false};
    so.onBeforeHandle = [&] {
        if (!handlingSignalled.exchange(true))
            handling.set_value();
        std::unique_lock<std::mutex> lk(gateMu);
        gateCv.wait(lk, [&] { return gateOpen; });
    };

    BatchService svc(so);
    svc.start();

    auto pa = std::make_shared<std::promise<std::string>>();
    auto fa = pa->get_future();
    svc.submit(R"({"id":"a","workload":"vectoradd"})",
               [pa](const std::string &r) { pa->set_value(r); });
    handling.get_future().wait();  // A is now inside the worker

    auto pb = std::make_shared<std::promise<std::string>>();
    auto fb = pb->get_future();
    svc.submit(R"({"id":"b","workload":"vectoradd"})",
               [pb](const std::string &r) { pb->set_value(r); });

    // Queue is full (B); C must be answered inline with `overloaded`
    // and the capacity in the error context.
    std::string c = runOne(svc, R"({"id":"c","workload":"vectoradd"})");
    EXPECT_NE(c.find("\"code\":\"overloaded\""), std::string::npos)
        << c;
    EXPECT_NE(c.find("\"queue_capacity\":1"), std::string::npos) << c;

    {
        std::lock_guard<std::mutex> lk(gateMu);
        gateOpen = true;
    }
    gateCv.notify_all();
    // Shedding must not have cost A or B their answers.
    EXPECT_NE(fa.get().find("\"ok\":true"), std::string::npos);
    EXPECT_NE(fb.get().find("\"ok\":true"), std::string::npos);
    svc.drain();

    ServiceStats s = svc.stats();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.ok, 2u);
}

TEST(ServiceServer, ConcurrentClientsMatchDirectRunByteForByte)
{
    ThreadPool pool(4);
    ServiceOptions so;
    so.pool = &pool;
    BatchService svc(so);
    svc.start();

    const char *workloads[] = {"vectoradd", "reduction", "matrixmul"};
    const char *schemes[] = {"baseline", "hw2", "hw3", "sw2", "sw3"};
    const int kClients = 4, kPerClient = 10;

    std::vector<std::string> responses(kClients * kPerClient);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++)
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; i++) {
                int id = c * kPerClient + i;
                JsonWriter w;
                w.beginObject();
                w.key("id").value(id);
                w.key("workload").value(workloads[id % 3]);
                w.key("scheme").value(schemes[id % 5]);
                w.key("entries").value(1 + id % 4);
                w.endObject();
                responses[id] = runOne(svc, w.str());
            }
        });
    for (std::thread &t : clients)
        t.join();
    svc.drain();

    for (int id = 0; id < kClients * kPerClient; id++) {
        std::string expected = makeResultLine(
            std::to_string(id),
            expectedResult(workloads[id % 3], schemes[id % 5],
                           1 + id % 4));
        EXPECT_EQ(responses[id], expected) << "request " << id;
    }
    EXPECT_EQ(svc.stats().ok,
              static_cast<std::uint64_t>(kClients * kPerClient));
}

TEST(ServiceServer, BatchedSliceMatchesDirectRunByteForByte)
{
    ThreadPool pool(1);
    ServiceOptions so;
    so.pool = &pool;
    so.workers = 1;
    so.queueCapacity = 16;
    so.batchMax = 8;

    // Hold the single worker on the first request so the next five
    // pile up behind it and are drained as one batched slice.
    std::mutex gateMu;
    std::condition_variable gateCv;
    bool gateOpen = false;
    std::promise<void> handling;
    std::atomic<bool> handlingSignalled{false};
    so.onBeforeHandle = [&] {
        if (!handlingSignalled.exchange(true))
            handling.set_value();
        std::unique_lock<std::mutex> lk(gateMu);
        gateCv.wait(lk, [&] { return gateOpen; });
    };

    BatchService svc(so);
    svc.start();

    const char *workloads[] = {"vectoradd", "reduction", "matrixmul"};
    const char *schemes[] = {"baseline", "hw2", "hw3", "sw2", "sw3"};

    auto p0 = std::make_shared<std::promise<std::string>>();
    auto f0 = p0->get_future();
    svc.submit(R"({"id":0,"workload":"vectoradd"})",
               [p0](const std::string &r) { p0->set_value(r); });
    handling.get_future().wait();  // worker parked at the gate

    const int kBatched = 5;
    std::vector<std::future<std::string>> futs;
    for (int i = 1; i <= kBatched; i++) {
        auto p = std::make_shared<std::promise<std::string>>();
        futs.push_back(p->get_future());
        JsonWriter w;
        w.beginObject();
        w.key("id").value(i);
        w.key("workload").value(workloads[i % 3]);
        w.key("scheme").value(schemes[i % 5]);
        w.key("entries").value(1 + i % 4);
        w.endObject();
        svc.submit(w.str(),
                   [p](const std::string &r) { p->set_value(r); });
    }
    {
        std::lock_guard<std::mutex> lk(gateMu);
        gateOpen = true;
    }
    gateCv.notify_all();

    EXPECT_NE(f0.get().find("\"ok\":true"), std::string::npos);
    // The batched responses must be byte-identical to lone runs.
    for (int i = 1; i <= kBatched; i++) {
        std::string expected = makeResultLine(
            std::to_string(i),
            expectedResult(workloads[i % 3], schemes[i % 5],
                           1 + i % 4));
        EXPECT_EQ(futs[i - 1].get(), expected) << "request " << i;
    }
    svc.drain();
    EXPECT_EQ(svc.stats().ok, 6u);
}

TEST(ServiceServer, InlineKernelPerfRunMatchesRunScheme)
{
    // Inline RPTX with "perf":true: each response must equal a local
    // runScheme() of the parsed kernel byte for byte, both when the
    // worker runs a request alone (batchMax 1) and when it drains
    // every queued request as one batched slice (batchMax 8, lines
    // queued before start()).
    const ScenarioProfile *profile = findProfile("balanced");
    ASSERT_NE(profile, nullptr);
    std::vector<std::string> lines, expected;
    for (int k = 0; k < 2; k++) {
        std::string text =
            printKernel(corpusWorkload(*profile, 1, k).kernel);
        ParseResult parsed = parseKernel(text);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        // The workload the service builds from inline text.
        Workload w;
        w.name = parsed.kernel.name;
        w.suite = "service";
        w.kernel = parsed.kernel;
        w.run.numWarps = 4;
        for (const char *token : {"sw3", "hw2"}) {
            ServiceRequest req;
            req.idJson = std::to_string(lines.size());
            req.kernelText = text;
            req.scheme = *schemeFromToken(token);
            req.warps = w.run.numWarps;
            req.perf = true;
            lines.push_back(serviceRequestToJson(req));
            RunOutcome o = runScheme(w, req.config());
            ASSERT_TRUE(o.ok()) << token << ": " << o.error;
            ASSERT_TRUE(o.hasPerf) << token;
            expected.push_back(
                makeResultLine(req.idJson, outcomeToJson(o)));
        }
    }
    for (int batchMax : {1, 8}) {
        ThreadPool pool(1);
        ServiceOptions so;
        so.pool = &pool;
        so.workers = 1;
        so.batchMax = batchMax;
        BatchService svc(so);
        std::vector<std::future<std::string>> futs;
        for (const std::string &line : lines) {
            auto p = std::make_shared<std::promise<std::string>>();
            futs.push_back(p->get_future());
            svc.submit(line,
                       [p](const std::string &r) { p->set_value(r); });
        }
        svc.start();
        for (std::size_t i = 0; i < lines.size(); i++)
            EXPECT_EQ(futs[i].get(), expected[i])
                << "batchMax " << batchMax << ", request " << i;
        svc.drain();
    }
}

TEST(ServiceServer, ShutdownDrainsAndRejectsLateRequests)
{
    ThreadPool pool(2);
    ServiceOptions so;
    so.pool = &pool;
    BatchService svc(so);
    svc.start();

    std::string first =
        runOne(svc, R"({"id":1,"workload":"vectoradd"})");
    EXPECT_NE(first.find("\"ok\":true"), std::string::npos);

    std::string ack;
    bool keepGoing = svc.submit(
        R"({"id":2,"op":"shutdown"})",
        [&ack](const std::string &r) { ack = r; });
    EXPECT_FALSE(keepGoing);
    EXPECT_EQ(ack, R"({"id":2,"ok":true,"op":"shutdown"})");
    svc.drain();

    std::string late = runOne(svc, R"({"id":3,"workload":"lu"})");
    EXPECT_NE(late.find("\"code\":\"shutting_down\""),
              std::string::npos)
        << late;
}

TEST(ServiceServer, CacheEvictionKeepsResultsIdentical)
{
    ThreadPool pool(1);
    ServiceOptions so;
    so.pool = &pool;
    // A one-entry budget forces an eviction after essentially every
    // request; results must not change.
    so.cacheMaxEntries = 1;
    BatchService svc(so);
    svc.start();
    const char *workloads[] = {"vectoradd", "reduction", "histogram"};
    for (int round = 0; round < 2; round++)
        for (const char *wl : workloads) {
            std::string resp = runOne(
                svc, std::string(R"({"id":1,"workload":")") + wl +
                         R"(","scheme":"sw3"})");
            EXPECT_EQ(resp, makeResultLine(
                                "1", expectedResult(wl, "sw3", 3)))
                << wl;
        }
    svc.drain();
    EXPECT_EQ(svc.stats().ok, 6u);
}

} // namespace
} // namespace rfh
