/**
 * @file
 * Open-loop NDJSON load against `rfhc serve` over a Unix socket.
 *
 * One client thread sends each request when it is due, on a fixed
 * schedule independent of replies, round-robin across the connections,
 * and reads replies with ppoll in between. Latency is timed from each
 * request's due time, so a stall also counts against the requests
 * queued behind it; the send lateness of the generator itself is kept
 * so a run paced by the client rather than the server can be flagged.
 */

#ifndef PERFBENCH_SERVE_LOAD_H
#define PERFBENCH_SERVE_LOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Timing of one open-loop phase; times are seconds on nowSec(). */
struct OpenLoopResult
{
    double offeredRate = 0.0;
    double startSec = 0.0;  ///< Due time of the first request.
    double endSec = 0.0;    ///< Arrival of the last reply.
    std::vector<double> due;
    std::vector<double> sent;
    /** Reply arrival, or -1 when no reply came before the timeout. */
    std::vector<double> recv;
    std::vector<std::string> replies;

    std::size_t answered() const;
    /** Latencies (reply minus due) of answered requests, in ms. */
    std::vector<double> latenciesMs() const;
    /** Send lateness (send minus due) of every request, in ms. */
    std::vector<double> latenessMs() const;
    /** Requests sent per second of send window. */
    double achievedRate() const;
};

/**
 * Send @p lines (request ids firstId, firstId+1, ...) at @p rate per
 * second across @p fds, then wait up to @p drainSec after the last send
 * for the remaining replies.
 */
OpenLoopResult runOpenLoop(const std::vector<int> &fds,
                           const std::vector<std::string> &lines,
                           std::uint64_t firstId, double rate,
                           double drainSec);

/** Send @p line on @p fd and read one reply line. */
bool roundTrip(int fd, const std::string &line, std::string &reply,
               double timeoutSec);

/** Linear-interpolated quantile @p q in [0, 1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_H
