#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <list>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/json.h"
#include "core/manifest.h"
#include "core/memo.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/timing.h"
#include "core/trace_events.h"
#include "ir/parser.h"
#include "workloads/registry.h"

namespace rfh {

namespace {

/** Sharded hot-path metrics, registered once. */
struct ServiceMetrics
{
    Counter &requests = globalMetrics().counter("service.requests");
    Counter &ok = globalMetrics().counter("service.ok");
    Counter &errors = globalMetrics().counter("service.errors");
    Counter &shed = globalMetrics().counter("service.shed");
    Counter &timeouts = globalMetrics().counter("service.timeouts");
    Counter &evictions =
        globalMetrics().counter("service.cacheEvictions");
    Timer &handle = globalMetrics().timer("service.handleSec");
    Histogram &queueDepth =
        globalMetrics().histogram("service.queueDepth");
    Histogram &batchSize =
        globalMetrics().histogram("service.batch_size");
};

ServiceMetrics &
serviceMetrics()
{
    static ServiceMetrics m;
    return m;
}

} // namespace

BatchService::BatchService(const ServiceOptions &opts) : opts_(opts)
{
    pool_ = opts_.pool ? opts_.pool : &globalPool();
    workers_ = opts_.workers > 0 ? opts_.workers : pool_->threadCount();
    if (opts_.queueCapacity < 1)
        opts_.queueCapacity = 1;
    if (opts_.batchMax < 1)
        opts_.batchMax = 1;
}

BatchService::~BatchService()
{
    drain();
}

std::uint64_t
BatchService::nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
BatchService::start()
{
    if (started_)
        return;
    started_ = true;
    // The workers are the pool's own threads: one long-lived
    // parallelFor whose every index runs the drain loop until the
    // queue closes. With a one-thread pool this degenerates to the
    // dispatcher thread serving every request itself.
    dispatcher_ = std::thread([this] {
        pool_->parallelFor(workers_, [this](int) { workerLoop(); });
    });
}

bool
BatchService::submit(const std::string &line, Responder respond)
{
    ServiceMetrics &m = serviceMetrics();
    m.requests.add();

    ParsedRequest parsed = parseServiceRequest(line);
    if (!parsed.ok) {
        m.errors.add();
        {
            std::lock_guard<std::mutex> lk(statsMu_);
            stats_.errors++;
        }
        respond(makeErrorLine(parsed.request.idJson, parsed.error));
        return true;
    }
    ServiceRequest &req = parsed.request;

    if (req.op == ServiceOp::PING) {
        respond(makeAckLine(req.idJson, "pong"));
        return true;
    }
    if (req.op == ServiceOp::STATS) {
        respond(makeStatsLine(req.idJson));
        return true;
    }
    if (req.op == ServiceOp::SHUTDOWN) {
        respond(makeAckLine(req.idJson, "shutdown"));
        return false;
    }

    Job job;
    job.respond = std::move(respond);
    if (req.deadlineMs)
        job.deadlineNs =
            nowNs() + static_cast<std::uint64_t>(*req.deadlineMs * 1e6);
    job.request = std::move(req);

    {
        std::unique_lock<std::mutex> lk(mu_);
        if (closed_) {
            lk.unlock();
            ServiceError err;
            err.code = ServiceErrorCode::SHUTTING_DOWN;
            err.message = "service is draining; request rejected";
            m.errors.add();
            {
                std::lock_guard<std::mutex> slk(statsMu_);
                stats_.errors++;
            }
            job.respond(makeErrorLine(job.request.idJson, err));
            return true;
        }
        if (static_cast<int>(queue_.size()) >= opts_.queueCapacity) {
            lk.unlock();
            // Load shedding: answer immediately instead of stalling
            // the client behind a full queue.
            ServiceError err;
            err.code = ServiceErrorCode::OVERLOADED;
            err.message =
                "admission queue full; retry with backoff";
            err.context.emplace_back(
                "queue_capacity", std::to_string(opts_.queueCapacity));
            m.shed.add();
            m.errors.add();
            {
                std::lock_guard<std::mutex> slk(statsMu_);
                stats_.shed++;
                stats_.errors++;
            }
            job.respond(makeErrorLine(job.request.idJson, err));
            return true;
        }
        queue_.push_back(std::move(job));
        m.queueDepth.observe(queue_.size());
        {
            std::lock_guard<std::mutex> slk(statsMu_);
            stats_.accepted++;
        }
    }
    queueReady_.notify_one();
    return true;
}

void
BatchService::workerLoop()
{
    ServiceMetrics &m = serviceMetrics();
    std::vector<Job> batch;
    for (;;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lk(mu_);
            queueReady_.wait(
                lk, [&] { return closed_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // closed_ and drained
            // Drain the requests already waiting, up to the batch
            // cap: under load the whole slice shares one
            // replayBatch() pre-warm.
            int take = std::min(opts_.batchMax,
                                static_cast<int>(queue_.size()));
            for (int i = 0; i < take; i++) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
        }
        m.batchSize.observe(static_cast<double>(batch.size()));
        handleBatch(batch);
        maybeEvictCaches();
    }
}

void
BatchService::handleBatch(std::vector<Job> &batch)
{
    ServiceMetrics &m = serviceMetrics();
    const std::size_t n = batch.size();

    // Per-job responses, filled in three waves: pre-dispatch failures
    // (expired deadline, bad kernel source) inline, then every
    // runnable request through one replayBatch, then the envelopes.
    std::vector<std::string> responses(n);
    // Stable storage: BatchItem keeps a pointer to its workload.
    std::vector<Workload> workloads(n);
    std::vector<BatchItem> items;
    std::vector<std::size_t> itemJob;
    items.reserve(n);
    itemJob.reserve(n);

    // A request must never take its worker down with it: any failure
    // becomes a structured response and the worker moves on.
    for (std::size_t j = 0; j < n; j++) {
        Job &job = batch[j];
        try {
            if (job.deadlineNs && nowNs() > job.deadlineNs) {
                ServiceError err;
                err.code = ServiceErrorCode::DEADLINE_EXCEEDED;
                err.message = "deadline expired while queued";
                responses[j] = makeErrorLine(job.request.idJson, err);
                continue;
            }
            if (opts_.onBeforeHandle)
                opts_.onBeforeHandle();
            std::string errLine;
            if (!prepareRun(job.request, workloads[j], errLine)) {
                responses[j] = errLine;
                continue;
            }
            BatchItem item;
            item.workload = &workloads[j];
            item.cfg = job.request.config();
            if (job.deadlineNs) {
                const std::uint64_t deadlineNs = job.deadlineNs;
                item.cfg.cancel = [deadlineNs] {
                    return nowNs() > deadlineNs;
                };
            }
            itemJob.push_back(j);
            items.push_back(std::move(item));
        } catch (const std::exception &e) {
            ServiceError err;
            err.code = ServiceErrorCode::EXEC_ERROR;
            err.message = std::string("internal error: ") + e.what();
            responses[j] = makeErrorLine(job.request.idJson, err);
        }
    }

    if (!items.empty()) {
        try {
            TraceSpan span("service.batch", "service");
            ScopedTimer timer(m.handle);
            std::shared_lock<std::shared_mutex> cl(cacheMu_);
            std::vector<RunOutcome> outcomes =
                replayBatch(items, pool_);
            for (std::size_t i = 0; i < items.size(); i++)
                responses[itemJob[i]] = finishRun(
                    batch[itemJob[i]].request, outcomes[i]);
        } catch (const std::exception &e) {
            ServiceError err;
            err.code = ServiceErrorCode::EXEC_ERROR;
            err.message = std::string("internal error: ") + e.what();
            for (std::size_t i = 0; i < items.size(); i++)
                responses[itemJob[i]] = makeErrorLine(
                    batch[itemJob[i]].request.idJson, err);
        }
    }

    for (std::size_t j = 0; j < n; j++) {
        const std::string &response = responses[j];
        bool isOk =
            response.find("\"ok\":true") != std::string::npos;
        bool isTimeout = !isOk &&
            response.find("\"deadline_exceeded\"") !=
                std::string::npos;
        {
            std::lock_guard<std::mutex> lk(statsMu_);
            stats_.completed++;
            if (isOk)
                stats_.ok++;
            else
                stats_.errors++;
            if (isTimeout)
                stats_.timeouts++;
        }
        if (isOk)
            m.ok.add();
        else
            m.errors.add();
        if (isTimeout)
            m.timeouts.add();
        batch[j].respond(response);
    }
}

bool
BatchService::prepareRun(const ServiceRequest &req, Workload &w,
                         std::string &errorLine)
{
    auto error = [&](ServiceErrorCode code, std::string message) {
        ServiceError err;
        err.code = code;
        err.message = std::move(message);
        errorLine = makeErrorLine(req.idJson, err);
        return false;
    };

    if (!req.workload.empty()) {
        const Workload *reg = findWorkload(req.workload);
        if (!reg)
            return error(ServiceErrorCode::UNKNOWN_WORKLOAD,
                         "unknown workload '" + req.workload +
                             "' (not in the Table 1 registry)");
        w = *reg;
    } else {
        ParseResult parsed = parseKernel(req.kernelText);
        if (!parsed.ok)
            return error(ServiceErrorCode::BAD_KERNEL, parsed.error);
        w.name = parsed.kernel.name;
        w.suite = "service";
        w.kernel = std::move(parsed.kernel);
    }
    w.run.numWarps = req.warps;
    return true;
}

std::string
BatchService::finishRun(const ServiceRequest &req, const RunOutcome &o)
{
    auto error = [&](ServiceErrorCode code, std::string message) {
        ServiceError err;
        err.code = code;
        err.message = std::move(message);
        return makeErrorLine(req.idJson, err);
    };
    if (o.error == "cancelled")
        return error(ServiceErrorCode::DEADLINE_EXCEEDED,
                     "deadline expired during the run");
    if (!o.ok())
        return error(ServiceErrorCode::EXEC_ERROR, o.error);
    return makeResultLine(req.idJson, outcomeToJson(o));
}

void
BatchService::maybeEvictCaches()
{
    ExperimentCache &cache = globalExperimentCache();
    if (cache.entryCount() <= opts_.cacheMaxEntries)
        return;
    // Quiesce: handling workers hold cacheMu_ shared, so the
    // exclusive lock means no lookup is in flight and clear() is
    // safe despite its reference-returning API.
    std::unique_lock<std::shared_mutex> lk(cacheMu_);
    if (cache.entryCount() > opts_.cacheMaxEntries) {
        cache.clear();
        serviceMetrics().evictions.add();
    }
}

std::string
BatchService::makeStatsLine(const std::string &idJson) const
{
    ServiceStats s = stats();
    ExperimentCache &cache = globalExperimentCache();
    ExperimentCache::Stats mc = cache.stats();
    JsonWriter w;
    w.beginObject();
    w.key("id").rawValue(idJson.empty() ? "null" : idJson);
    w.key("ok").value(true);
    w.key("op").value("stats");
    w.key("stats").beginObject();
    w.key("service").beginObject();
    w.key("accepted").value(s.accepted);
    w.key("completed").value(s.completed);
    w.key("ok").value(s.ok);
    w.key("errors").value(s.errors);
    w.key("shed").value(s.shed);
    w.key("timeouts").value(s.timeouts);
    w.endObject();
    w.key("memo").beginObject();
    w.key("baseline_hits").value(mc.baselineHits);
    w.key("baseline_misses").value(mc.baselineMisses);
    w.key("analysis_hits").value(mc.analysisHits);
    w.key("analysis_misses").value(mc.analysisMisses);
    w.key("trace_hits").value(mc.traceHits);
    w.key("trace_misses").value(mc.traceMisses);
    w.key("decode_hits").value(mc.decodeHits);
    w.key("decode_misses").value(mc.decodeMisses);
    w.key("entries").value(
        static_cast<std::uint64_t>(cache.entryCount()));
    w.endObject();
    w.endObject();
    w.endObject();
    return w.str();
}

void
BatchService::drain()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        closed_ = true;
    }
    queueReady_.notify_all();
    if (dispatcher_.joinable())
        dispatcher_.join();
}

ServiceStats
BatchService::stats() const
{
    std::lock_guard<std::mutex> lk(statsMu_);
    return stats_;
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

namespace {

volatile std::sig_atomic_t g_stopRequested = 0;

void
handleStopSignal(int)
{
    g_stopRequested = 1;
}

void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = handleStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    std::signal(SIGPIPE, SIG_IGN);
}

/** Write all of @p line plus a newline; false on a broken peer. */
bool
sendLine(int fd, const std::string &line)
{
    std::string out = line;
    out.push_back('\n');
    std::size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Pull one newline-terminated line out of @p buf, recv()ing as needed. */
bool
readLine(int fd, std::string &buf, std::string &line)
{
    for (;;) {
        std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            line.assign(buf, 0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return true;
        }
        char tmp[4096];
        ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buf.append(tmp, static_cast<std::size_t>(n));
    }
}

int
serveStdio(BatchService &svc)
{
    std::mutex outMu;
    auto respond = [&outMu](const std::string &line) {
        std::lock_guard<std::mutex> lk(outMu);
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
    };
    std::string line;
    while (!g_stopRequested && std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        if (!svc.submit(line, respond))
            break;
    }
    svc.drain();
    return 0;
}

/** One accepted connection: its fd, reader thread, and write lock. */
struct Connection
{
    int fd = -1;
    std::mutex writeMu;
    std::thread reader;
};

int
serveSocket(BatchService &svc, const std::string &path)
{
    if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        std::fprintf(stderr, "rfhc serve: socket path too long: %s\n",
                     path.c_str());
        return 1;
    }
    int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (lfd < 0) {
        std::perror("rfhc serve: socket");
        return 1;
    }
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str());
    if (::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) < 0 ||
        ::listen(lfd, 64) < 0) {
        std::fprintf(stderr, "rfhc serve: cannot listen on %s: %s\n",
                     path.c_str(), std::strerror(errno));
        ::close(lfd);
        return 1;
    }
    std::fprintf(stderr, "rfhc serve: listening on %s\n", path.c_str());

    std::mutex connsMu;
    std::list<Connection> conns;

    while (!g_stopRequested) {
        pollfd pfd = {lfd, POLLIN, 0};
        int r = ::poll(&pfd, 1, 200);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (r == 0)
            continue;
        int cfd = ::accept(lfd, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        Connection *conn;
        {
            std::lock_guard<std::mutex> lk(connsMu);
            conns.emplace_back();
            conn = &conns.back();
        }
        conn->fd = cfd;
        conn->reader = std::thread([&svc, conn] {
            std::string buf, line;
            auto respond = [conn](const std::string &resp) {
                std::lock_guard<std::mutex> lk(conn->writeMu);
                sendLine(conn->fd, resp);
            };
            while (readLine(conn->fd, buf, line)) {
                if (line.empty())
                    continue;
                if (!svc.submit(line, respond)) {
                    g_stopRequested = 1;
                    break;
                }
            }
        });
    }

    // Stop admission at the door, finish everything already admitted
    // (responses still flow to the open connections), then unblock
    // and join the readers.
    ::close(lfd);
    svc.drain();
    {
        std::lock_guard<std::mutex> lk(connsMu);
        for (Connection &c : conns)
            ::shutdown(c.fd, SHUT_RDWR);
    }
    for (Connection &c : conns) {
        if (c.reader.joinable())
            c.reader.join();
        ::close(c.fd);
    }
    ::unlink(path.c_str());
    return 0;
}

} // namespace

int
runServe(const ServeOptions &opts)
{
    installSignalHandlers();
    g_stopRequested = 0;
    if (!opts.traceEventsPath.empty())
        TraceEventLog::global().enable();

    BatchService svc(opts.service);
    svc.start();
    Stopwatch wall;

    int rc = opts.socketPath.empty()
                 ? serveStdio(svc)
                 : serveSocket(svc, opts.socketPath);
    svc.drain();

    ServiceStats s = svc.stats();
    std::fprintf(stderr,
                 "rfhc serve: %llu completed (ok %llu, errors %llu, "
                 "shed %llu, timeouts %llu) in %.1fs\n",
                 static_cast<unsigned long long>(s.completed),
                 static_cast<unsigned long long>(s.ok),
                 static_cast<unsigned long long>(s.errors),
                 static_cast<unsigned long long>(s.shed),
                 static_cast<unsigned long long>(s.timeouts),
                 wall.elapsedSec());

    ManifestInfo m;
    m.tool = "rfhc serve";
    m.engine = "service";
    m.config = {
        {"transport", opts.socketPath.empty()
                          ? std::string("stdio")
                          : "unix:" + opts.socketPath},
        {"workers", std::to_string(
                        opts.service.workers > 0
                            ? opts.service.workers
                            : globalPool().threadCount())},
        {"queue_capacity",
         std::to_string(opts.service.queueCapacity)},
        {"batch_max", std::to_string(opts.service.batchMax)},
        {"cache_max_entries",
         std::to_string(opts.service.cacheMaxEntries)},
    };
    m.timing.wallSec = wall.elapsedSec();
    m.timing.threads = opts.service.workers > 0
                           ? opts.service.workers
                           : globalPool().threadCount();
    m.benchmarks = {
        {"rfhc.serve/completed", static_cast<double>(s.completed),
         "requests", true},
        {"rfhc.serve/ok", static_cast<double>(s.ok), "requests", true},
        {"rfhc.serve/shed", static_cast<double>(s.shed), "requests",
         false},
        {"rfhc.serve/timeouts", static_cast<double>(s.timeouts),
         "requests", false},
    };
    if (!opts.manifestPath.empty()) {
        if (!writeManifest(opts.manifestPath, m)) {
            std::fprintf(stderr, "rfhc: cannot write %s\n",
                         opts.manifestPath.c_str());
            return 1;
        }
        std::fprintf(stderr, "rfhc: wrote manifest %s\n",
                     opts.manifestPath.c_str());
    }
    if (!opts.traceEventsPath.empty()) {
        if (!TraceEventLog::global().writeTo(opts.traceEventsPath)) {
            std::fprintf(stderr, "rfhc: cannot write %s\n",
                         opts.traceEventsPath.c_str());
            return 1;
        }
        std::fprintf(stderr, "rfhc: wrote trace events %s\n",
                     opts.traceEventsPath.c_str());
    }
    emitRunArtifacts(m);
    return rc;
}

} // namespace rfh
