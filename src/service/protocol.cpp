#include "service/protocol.h"

#include <cmath>
#include <cstdio>

#include "core/json.h"
#include "core/scheme.h"
#include "energy/energy_params.h"

namespace rfh {

namespace {

/** Re-serialise a scalar JsonValue for echoing the request id back. */
std::string
scalarToJson(const JsonValue &v)
{
    switch (v.type) {
      case JsonValue::Type::NUL:
        return "null";
      case JsonValue::Type::BOOL:
        return v.boolean ? "true" : "false";
      case JsonValue::Type::STRING: {
        JsonWriter w;
        w.value(v.string);
        return w.str();
      }
      case JsonValue::Type::NUMBER: {
        // Integral ids round-trip exactly; anything else keeps full
        // double precision.
        double d = v.number;
        if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%lld",
                          static_cast<long long>(d));
            return buf;
        }
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        return buf;
      }
      default:
        return "";
    }
}

ParsedRequest
fail(ServiceErrorCode code, std::string message,
     std::string idJson = "null")
{
    ParsedRequest p;
    p.ok = false;
    p.error.code = code;
    p.error.message = std::move(message);
    p.request.idJson = std::move(idJson);
    return p;
}

} // namespace

std::string_view
serviceErrorCodeName(ServiceErrorCode code)
{
    switch (code) {
      case ServiceErrorCode::PARSE_ERROR: return "parse_error";
      case ServiceErrorCode::BAD_REQUEST: return "bad_request";
      case ServiceErrorCode::BAD_KERNEL: return "bad_kernel";
      case ServiceErrorCode::UNKNOWN_WORKLOAD: return "unknown_workload";
      case ServiceErrorCode::UNKNOWN_SCHEME: return "unknown_scheme";
      case ServiceErrorCode::DEADLINE_EXCEEDED:
        return "deadline_exceeded";
      case ServiceErrorCode::OVERLOADED: return "overloaded";
      case ServiceErrorCode::SHUTTING_DOWN: return "shutting_down";
      case ServiceErrorCode::EXEC_ERROR: return "exec_error";
    }
    return "?";
}

ExperimentConfig
ServiceRequest::config() const
{
    ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.entries = entries;
    cfg.splitLRF = splitLRF;
    cfg.partialRanges = partialRanges;
    cfg.readOperands = readOperands;
    cfg.perf = perf;
    return cfg;
}

std::optional<Scheme>
schemeFromToken(const std::string &token)
{
    if (const SchemeInfo *si =
            SchemeRegistry::instance().findToken(token))
        return si->scheme;
    return std::nullopt;
}

std::string_view
schemeToken(Scheme s)
{
    if (const SchemeInfo *si = SchemeRegistry::instance().find(s))
        return si->token;
    return "?";
}

ParsedRequest
parseServiceRequest(const std::string &line)
{
    JsonParseResult parsed = parseJson(line);
    if (!parsed.ok)
        return fail(ServiceErrorCode::PARSE_ERROR, parsed.error);
    const JsonValue &root = parsed.value;
    if (!root.isObject())
        return fail(ServiceErrorCode::BAD_REQUEST,
                    "request must be a JSON object");

    ServiceRequest req;
    // Resolve the id first so every later error can echo it.
    if (const JsonValue *id = root.find("id")) {
        std::string s = scalarToJson(*id);
        if (s.empty())
            return fail(ServiceErrorCode::BAD_REQUEST,
                        "field 'id' must be a JSON scalar");
        req.idJson = s;
    }
    auto bad = [&](std::string message) {
        return fail(ServiceErrorCode::BAD_REQUEST, std::move(message),
                    req.idJson);
    };

    for (const auto &[key, value] : root.object) {
        if (key == "id") {
            continue;
        } else if (key == "op") {
            if (!value.isString())
                return bad("field 'op' must be a string");
            if (value.string == "run")
                req.op = ServiceOp::RUN;
            else if (value.string == "ping")
                req.op = ServiceOp::PING;
            else if (value.string == "shutdown")
                req.op = ServiceOp::SHUTDOWN;
            else if (value.string == "stats")
                req.op = ServiceOp::STATS;
            else
                return bad("unknown op '" + value.string +
                           "' (valid: run, ping, shutdown, stats)");
        } else if (key == "kernel") {
            if (!value.isString() || value.string.empty())
                return bad("field 'kernel' must be a non-empty string "
                           "of RPTX text");
            req.kernelText = value.string;
        } else if (key == "workload") {
            if (!value.isString() || value.string.empty())
                return bad("field 'workload' must be a non-empty "
                           "registry name");
            req.workload = value.string;
        } else if (key == "scheme") {
            if (!value.isString())
                return bad("field 'scheme' must be a string");
            std::optional<Scheme> s = schemeFromToken(value.string);
            if (!s) {
                ParsedRequest p = fail(
                    ServiceErrorCode::UNKNOWN_SCHEME,
                    "unknown scheme '" + value.string + "' (valid: " +
                        SchemeRegistry::instance().tokenList() + ")",
                    req.idJson);
                return p;
            }
            req.scheme = *s;
        } else if (key == "entries") {
            if (!value.isNumber() ||
                value.number != std::floor(value.number) ||
                value.number < 1 || value.number > kMaxOrfEntries)
                return bad("field 'entries' must be an integer in "
                           "[1, " + std::to_string(kMaxOrfEntries) +
                           "]");
            req.entries = static_cast<int>(value.number);
        } else if (key == "warps") {
            if (!value.isNumber() ||
                value.number != std::floor(value.number) ||
                value.number < 1 || value.number > 1024)
                return bad("field 'warps' must be an integer in "
                           "[1, 1024]");
            req.warps = static_cast<int>(value.number);
        } else if (key == "split_lrf") {
            if (value.type != JsonValue::Type::BOOL)
                return bad("field 'split_lrf' must be a boolean");
            req.splitLRF = value.boolean;
        } else if (key == "partial_ranges") {
            if (value.type != JsonValue::Type::BOOL)
                return bad("field 'partial_ranges' must be a boolean");
            req.partialRanges = value.boolean;
        } else if (key == "read_operands") {
            if (value.type != JsonValue::Type::BOOL)
                return bad("field 'read_operands' must be a boolean");
            req.readOperands = value.boolean;
        } else if (key == "perf") {
            if (value.type != JsonValue::Type::BOOL)
                return bad("field 'perf' must be a boolean");
            req.perf = value.boolean;
        } else if (key == "deadline_ms") {
            // Bounded (and NaN-proof) so the server's nanosecond
            // deadline cannot overflow.
            if (!value.isNumber() || !(value.number >= 0) ||
                value.number > kMaxDeadlineMs)
                return bad("field 'deadline_ms' must be a number in "
                           "[0, 1e9]");
            req.deadlineMs = value.number;
        } else {
            return bad("unknown field '" + key + "'");
        }
    }

    if (req.op == ServiceOp::RUN) {
        if (req.kernelText.empty() && req.workload.empty())
            return bad("a run request needs exactly one of 'kernel' "
                       "or 'workload' (got neither)");
        if (!req.kernelText.empty() && !req.workload.empty())
            return bad("a run request needs exactly one of 'kernel' "
                       "or 'workload' (got both)");
    }

    ParsedRequest p;
    p.ok = true;
    p.request = std::move(req);
    return p;
}

std::string
serviceRequestToJson(const ServiceRequest &req)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").rawValue(req.idJson.empty() ? "null" : req.idJson);
    switch (req.op) {
      case ServiceOp::RUN: w.key("op").value("run"); break;
      case ServiceOp::PING: w.key("op").value("ping"); break;
      case ServiceOp::SHUTDOWN: w.key("op").value("shutdown"); break;
      case ServiceOp::STATS: w.key("op").value("stats"); break;
    }
    if (!req.kernelText.empty())
        w.key("kernel").value(req.kernelText);
    if (!req.workload.empty())
        w.key("workload").value(req.workload);
    w.key("scheme").value(std::string(schemeToken(req.scheme)));
    w.key("entries").value(req.entries);
    w.key("warps").value(req.warps);
    w.key("split_lrf").value(req.splitLRF);
    w.key("partial_ranges").value(req.partialRanges);
    w.key("read_operands").value(req.readOperands);
    // Conditional like deadline_ms: legacy lines keep their bytes.
    if (req.perf)
        w.key("perf").value(true);
    if (req.deadlineMs)
        w.key("deadline_ms").value(*req.deadlineMs);
    w.endObject();
    return w.str();
}

std::string
makeResultLine(const std::string &idJson, const std::string &resultJson)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").rawValue(idJson);
    w.key("ok").value(true);
    w.key("result").rawValue(resultJson);
    w.endObject();
    return w.str();
}

std::string
makeErrorLine(const std::string &idJson, const ServiceError &err)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").rawValue(idJson.empty() ? "null" : idJson);
    w.key("ok").value(false);
    w.key("error").beginObject();
    w.key("code").value(std::string(serviceErrorCodeName(err.code)));
    w.key("message").value(err.message);
    for (const auto &[key, raw] : err.context)
        w.key(key).rawValue(raw);
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
makeAckLine(const std::string &idJson, const std::string &op)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").rawValue(idJson.empty() ? "null" : idJson);
    w.key("ok").value(true);
    w.key("op").value(op);
    w.endObject();
    return w.str();
}

} // namespace rfh
