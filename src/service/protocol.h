/**
 * @file
 * Wire protocol of the batch compile/sim service (`rfhc serve`).
 *
 * Requests and responses are newline-delimited JSON objects, one per
 * line, over stdio or a Unix socket. A run request names either an
 * inline RPTX kernel (`"kernel"`) or a registry workload
 * (`"workload"`), plus the experiment configuration; its response
 * carries the exact outcomeToJson() document that direct `rfhc run
 * --json` invocation prints — byte-identical, so clients can switch
 * between the CLI and the service without re-baselining anything.
 *
 * Errors are structured (`{"id":…,"ok":false,"error":{"code":…,
 * "message":…}}`) and always carry position/context: JSON errors
 * quote the parser's `offset N`, kernel errors the RPTX parser's
 * `line N`, unknown-scheme errors the valid token set. The full
 * schema is documented in docs/service.md.
 */

#ifndef RFH_SERVICE_PROTOCOL_H
#define RFH_SERVICE_PROTOCOL_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace rfh {

/** Machine-readable error category of a failed request. */
enum class ServiceErrorCode
{
    PARSE_ERROR,       ///< Request line is not valid JSON.
    BAD_REQUEST,       ///< Valid JSON, invalid schema (message names the field).
    BAD_KERNEL,        ///< Inline RPTX failed to parse ("line N: …").
    UNKNOWN_WORKLOAD,  ///< No registry workload of that name.
    UNKNOWN_SCHEME,    ///< Scheme token not in the valid set.
    DEADLINE_EXCEEDED, ///< Deadline expired before or during the run.
    OVERLOADED,        ///< Admission queue full; request was shed.
    SHUTTING_DOWN,     ///< Submitted after drain began.
    EXEC_ERROR,        ///< The run itself failed verification.
};

/** Wire token of @p code ("parse_error", "overloaded", …). */
std::string_view serviceErrorCodeName(ServiceErrorCode code);

/** One structured error, plus optional extra context fields. */
struct ServiceError
{
    ServiceErrorCode code = ServiceErrorCode::BAD_REQUEST;
    std::string message;
    /** Extra context key → raw-JSON value (e.g. "queue_capacity":"64"). */
    std::vector<std::pair<std::string, std::string>> context;
};

/** Request kinds. */
enum class ServiceOp
{
    RUN,       ///< Compile + simulate one kernel (the default).
    PING,      ///< Liveness probe; answered inline.
    SHUTDOWN,  ///< Begin graceful drain.
    STATS,     ///< Snapshot of service + cache counters; answered inline.
};

/** Largest accepted `deadline_ms` (about 11.6 days). */
constexpr double kMaxDeadlineMs = 1e9;

/** One parsed request line. */
struct ServiceRequest
{
    /** Client correlation id, re-serialised for the response ("null"
     *  when absent; any JSON scalar is accepted). */
    std::string idJson = "null";
    ServiceOp op = ServiceOp::RUN;
    /** Inline RPTX text (empty when `workload` names a registry entry). */
    std::string kernelText;
    /** Registry workload name (empty when `kernel` is inline). */
    std::string workload;
    Scheme scheme = Scheme::SW_THREE_LEVEL;
    int entries = 3;
    int warps = 8;
    bool splitLRF = true;
    bool partialRanges = true;
    bool readOperands = true;
    /**
     * Also run the cycle-level SM pipeline and attach IPC / stall
     * stats to the result ("perf" object; schemes without pipeline
     * accounting fail the run with EXEC_ERROR).
     */
    bool perf = false;
    /**
     * Relative deadline in milliseconds, in [0, kMaxDeadlineMs];
     * unset = no deadline.
     */
    std::optional<double> deadlineMs;

    /** The experiment configuration this request describes. */
    ExperimentConfig config() const;
};

/** parseServiceRequest outcome: a request or a structured error. */
struct ParsedRequest
{
    bool ok = false;
    ServiceRequest request;
    ServiceError error;
};

/**
 * Parse one NDJSON request line. Strict: unknown fields, wrong field
 * types, out-of-range values, and missing/conflicting kernel sources
 * all produce BAD_REQUEST errors naming the offending field.
 */
ParsedRequest parseServiceRequest(const std::string &line);

/**
 * Canonical serialization of a request: id first, then every field in
 * a fixed order. The corpus client builds its request lines through
 * this; parseServiceRequest(serviceRequestToJson(r)) reproduces r
 * exactly.
 */
std::string serviceRequestToJson(const ServiceRequest &req);

/**
 * Scheme wire tokens, resolved against the SchemeRegistry: every
 * registered backend's token is accepted ("baseline", "hw2", ...,
 * "ccrfc", "regdem", "greener", plus any runtime registrations).
 */
std::optional<Scheme> schemeFromToken(const std::string &token);
std::string_view schemeToken(Scheme s);

/** Success envelope: {"id":…,"ok":true,"result":<resultJson>}. */
std::string makeResultLine(const std::string &idJson,
                           const std::string &resultJson);

/** Error envelope: {"id":…,"ok":false,"error":{…}}. */
std::string makeErrorLine(const std::string &idJson,
                          const ServiceError &err);

/** Control-op acknowledgement: {"id":…,"ok":true,"op":"pong"|…}. */
std::string makeAckLine(const std::string &idJson,
                        const std::string &op);

} // namespace rfh

#endif // RFH_SERVICE_PROTOCOL_H
