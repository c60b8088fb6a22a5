/**
 * @file
 * Load generator for the batch service (`rfhc loadgen`).
 *
 * Drives a running `rfhc serve --socket <path>` instance with N
 * concurrent client connections issuing a deterministic request
 * stream, retrying `overloaded` rejections with exponential backoff,
 * and reports throughput plus p50/p99 request latency. Latencies are
 * accumulated in log-spaced histograms (one per client, merged
 * bucket-wise after the join), so the reported percentiles are true
 * percentiles over every request rather than an artifact of how the
 * stream was split across clients. With `--verify` every successful
 * response's result document is compared byte-for-byte against a
 * locally computed runScheme() of the same configuration on the
 * DIRECT engine, the value-verifying oracle — the end-to-end check
 * that the service path (which runs REPLAY) changes nothing about
 * the numbers. After the run, loadgen queries the server's `stats` op
 * and reports the memo-cache hit ratio.
 */

#ifndef RFH_SERVICE_LOADGEN_H
#define RFH_SERVICE_LOADGEN_H

#include <string>

namespace rfh {

/** `rfhc loadgen` configuration. */
struct LoadgenOptions
{
    /** Socket the server listens on. */
    std::string socketPath = "rfhc.sock";
    /** Concurrent client connections. */
    int clients = 4;
    /** Total run requests across all clients. */
    int requests = 100;
    /** Pin every request to one registry workload ("" = built-in mix). */
    std::string workload;
    /** Pin every request to one scheme token ("" = built-in mix). */
    std::string scheme;
    /** Pin ORF entries (0 = built-in mix). */
    int entries = 0;
    /** Warps per request. */
    int warps = 8;
    /** Per-request deadline in ms (<= 0 = none). */
    double deadlineMs = 0.0;
    /** Max resubmissions of an `overloaded` request before giving up. */
    int maxRetries = 8;
    /** Compare every result byte-for-byte against a local DIRECT run. */
    bool verify = false;
    /** Send `{"op":"shutdown"}` once all clients finish. */
    bool shutdownAfter = false;
    /** Manifest output path ("" = only $RFH_MANIFEST). */
    std::string manifestPath;
};

/**
 * Run the load generation session. @return the process exit code:
 * 0 when every request was answered and (under --verify) every result
 * matched; non-zero on mismatches, protocol errors, or unexpected
 * failures (deadline_exceeded counts as expected when a deadline was
 * requested).
 */
int runLoadgen(const LoadgenOptions &opts);

} // namespace rfh

#endif // RFH_SERVICE_LOADGEN_H
