/**
 * @file
 * Persistent batch compile/sim service (`rfhc serve`).
 *
 * BatchService is the transport-independent core: it parses NDJSON
 * request lines (service/protocol.h), admits them into a bounded
 * queue, and dispatches them onto the shared core/parallel thread
 * pool, where each request runs through the ordinary runScheme() path
 * with the process-wide memo/trace caches — so a hot kernel's
 * analyses, baseline and decoded trace are computed once and shared
 * across every later request that needs them, and a lone request's
 * result document is byte-identical to a direct `rfhc run --json`
 * invocation.
 *
 * Under load a worker drains up to ServiceOptions::batchMax waiting
 * requests per wakeup and executes the slice through one
 * replayBatch() call, which pre-warms every distinct kernel's
 * analyses/trace/decode once before the items fan out; a worker that
 * wakes to a single queued request keeps the historical one-request
 * path (AUTO engine resolves to the direct oracle). The two paths
 * yield byte-identical result documents for every run both engines
 * complete. They differ on kernels that hit the overlapping wide-pair
 * allocator bug (ROADMAP.md item 1): the direct engine's value check
 * answers `exec_error`, while replay carries no values and answers
 * `ok:true` (corpus kernel wild_2_719, seed 2, sw3 at 3 entries).
 * Until that bug is fixed, the answer for such a kernel depends on
 * whether its worker drained it alone, that is, on load.
 *
 * Robustness model (the inference-server trifecta):
 *  - **deadlines** — a request may carry `deadline_ms`; expiry before
 *    dispatch returns a structured `deadline_exceeded` error without
 *    running anything, and expiry mid-run cancels cooperatively at
 *    the next phase boundary (ExperimentConfig::cancel). A timed-out
 *    request never poisons the worker: the worker just moves on.
 *  - **load shedding** — when the admission queue is full the request
 *    is answered immediately with a structured `overloaded` error
 *    (carrying the queue capacity) instead of stalling the client;
 *    `rfhc loadgen` retries those with exponential backoff.
 *  - **graceful drain** — drain() stops admission, finishes every
 *    queued request, and joins the workers; late submissions get a
 *    structured `shutting_down` error.
 *
 * Long-lived memory stays bounded: after each request the service
 * polls ExperimentCache::entryCount() and, past the configured
 * budget, quiesces the workers (shared_mutex) and clears the caches.
 *
 * Transports: runServe() serves stdio (`--stdio`) or a Unix domain
 * socket; both write one response line per request line. See
 * docs/service.md for the protocol and operational notes.
 */

#ifndef RFH_SERVICE_SERVER_H
#define RFH_SERVICE_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"

namespace rfh {

class ThreadPool;

/** BatchService tuning knobs. */
struct ServiceOptions
{
    /** Concurrent request workers; <= 0 means the pool's size. */
    int workers = 0;
    /** Admitted-but-unstarted requests before shedding. */
    int queueCapacity = 64;
    /**
     * Max run requests one worker drains per wakeup and executes as a
     * single replayBatch() call, amortising per-kernel setup across
     * the slice. A worker that wakes to exactly one queued request
     * keeps the historical single-run path (AUTO engine resolves to
     * the direct oracle); 1 disables batching entirely. The paths
     * agree byte for byte except on kernels that hit the allocator
     * bug in ROADMAP.md item 1, which only the direct path reports
     * (see the file comment).
     */
    int batchMax = 8;
    /** Memo-cache entries tolerated before an idle-point clear. */
    std::size_t cacheMaxEntries = 1024;
    /** Pool to dispatch onto; null means globalPool(). */
    ThreadPool *pool = nullptr;
    /**
     * Test instrumentation: when set, every worker calls this right
     * before executing a dequeued run request. Tests use it to hold
     * workers on a latch and fill the queue deterministically.
     */
    std::function<void()> onBeforeHandle;
};

/** Monotonic request accounting (also mirrored into core/metrics). */
struct ServiceStats
{
    std::uint64_t accepted = 0;   ///< Admitted into the queue.
    std::uint64_t completed = 0;  ///< Dequeued and answered.
    std::uint64_t ok = 0;         ///< Answered with a result.
    std::uint64_t errors = 0;     ///< Answered with any error.
    std::uint64_t shed = 0;       ///< Rejected with `overloaded`.
    std::uint64_t timeouts = 0;   ///< Answered `deadline_exceeded`.
};

/** The transport-independent batch service core (see file comment). */
class BatchService
{
  public:
    /** Response delivery: called exactly once per submitted line. */
    using Responder = std::function<void(const std::string &)>;

    explicit BatchService(const ServiceOptions &opts = {});
    /** Drains and joins (idempotent with an explicit drain()). */
    ~BatchService();

    BatchService(const BatchService &) = delete;
    BatchService &operator=(const BatchService &) = delete;

    /** Launch the worker dispatcher; must precede submit(). */
    void start();

    /**
     * Parse and route one request line. Control ops, malformed
     * requests, and shed requests are answered inline on the calling
     * thread; admitted run requests are answered later from a worker.
     * @return false when the line was a shutdown request (the
     * transport should then drain and exit).
     */
    bool submit(const std::string &line, Responder respond);

    /** Stop admission, finish queued requests, join workers. */
    void drain();

    ServiceStats stats() const;

    /**
     * `op:"stats"` response: service counters plus the memo-cache
     * counters; loadgen reports the memo hit ratio from it.
     */
    std::string makeStatsLine(const std::string &idJson) const;

  private:
    struct Job
    {
        ServiceRequest request;
        Responder respond;
        /** steady_clock deadline in ns since epoch; 0 = none. */
        std::uint64_t deadlineNs = 0;
    };

    void workerLoop();
    /** Answer every job of one drained queue slice. */
    void handleBatch(std::vector<Job> &batch);
    std::string executeRun(const ServiceRequest &req,
                           std::uint64_t deadlineNs);
    /**
     * Resolve the request's kernel source into @p w (registry lookup
     * or inline RPTX parse). @return false with the structured error
     * response in @p errorLine when the source is invalid.
     */
    bool prepareRun(const ServiceRequest &req, Workload &w,
                    std::string &errorLine);
    /** Map a finished run outcome onto its wire envelope. */
    std::string finishRun(const ServiceRequest &req,
                          const RunOutcome &o);
    /** Clear the memo caches once they exceed the budget. */
    void maybeEvictCaches();
    static std::uint64_t nowNs();

    ServiceOptions opts_;
    ThreadPool *pool_ = nullptr;
    int workers_ = 1;

    std::mutex mu_;
    std::condition_variable queueReady_;
    std::deque<Job> queue_;
    bool closed_ = false;
    bool started_ = false;
    std::thread dispatcher_;

    /** Workers hold shared while handling; eviction takes exclusive. */
    std::shared_mutex cacheMu_;

    mutable std::mutex statsMu_;
    ServiceStats stats_;
};

/** `rfhc serve` transport configuration. */
struct ServeOptions
{
    /** Unix socket path; empty means stdio. */
    std::string socketPath;
    ServiceOptions service;
    /** Session manifest output path ("" = only $RFH_MANIFEST). */
    std::string manifestPath;
    /** Chrome-trace span output path ("" = only $RFH_TRACE_EVENTS). */
    std::string traceEventsPath;
};

/**
 * Serve until shutdown (a `{"op":"shutdown"}` request, stdin EOF, or
 * SIGINT/SIGTERM), then drain gracefully and write the session
 * manifest. @return the process exit code.
 */
int runServe(const ServeOptions &opts);

} // namespace rfh

#endif // RFH_SERVICE_SERVER_H
