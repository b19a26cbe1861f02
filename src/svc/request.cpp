#include "svc/request.hpp"

#include <sstream>
#include <tuple>

#include "obs/json.hpp"
#include "sched/objective.hpp"
#include "svc/jsonv.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"

namespace rota::svc {

using util::ErrorCode;

std::string_view to_string(RequestOp op) {
  switch (op) {
    case RequestOp::kPing:
      return "ping";
    case RequestOp::kSchedule:
      return "schedule";
    case RequestOp::kWear:
      return "wear";
    case RequestOp::kLifetime:
      return "lifetime";
    case RequestOp::kStats:
      return "stats";
    case RequestOp::kShutdown:
      return "shutdown";
  }
  ROTA_UNREACHABLE("unhandled RequestOp");
}

namespace {

util::Result<RequestOp> parse_op(const std::string& name) {
  for (RequestOp op : {RequestOp::kPing, RequestOp::kSchedule,
                       RequestOp::kWear, RequestOp::kLifetime,
                       RequestOp::kStats, RequestOp::kShutdown}) {
    if (to_string(op) == name) return op;
  }
  return {ErrorCode::kInvalidArgument,
          "unknown op '" + name +
              "' (expected ping, schedule, wear, lifetime, stats or "
              "shutdown)"};
}

util::Result<wear::PolicyKind> parse_policy_name(const std::string& name) {
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
        wear::PolicyKind::kRwlRo, wear::PolicyKind::kRandomStart,
        wear::PolicyKind::kDiagonalStride}) {
    if (wear::to_string(kind) == name) return kind;
  }
  return {ErrorCode::kInvalidArgument,
          "unknown policy '" + name +
              "' (expected Baseline, RWL, RWL+RO, RandomStart or "
              "DiagonalStride)"};
}

/// "WxH" with positive components.
util::Result<util::Unit> parse_array_field(const std::string& text,
                                           Request& req) {
  const auto geometry = util::parse_geometry(text);
  if (!geometry)
    return util::Error{ErrorCode::kInvalidArgument,
                       "field 'array' expects \"WxH\" (e.g. \"14x12\"), got '" +
                           text + "'"};
  std::tie(req.array_width, req.array_height) = *geometry;
  return util::Unit{};
}

}  // namespace

std::string salvage_request_id(std::string_view line) {
  auto parsed = JsonValue::parse(line);
  if (!parsed.ok()) return {};
  const JsonValue* id = parsed.value().find("id");
  return (id != nullptr && id->is_string()) ? id->str() : std::string{};
}

util::Result<Request> parse_request(std::string_view line,
                                    std::size_t max_bytes) {
  if (line.size() > max_bytes) {
    return {ErrorCode::kResourceExhausted,
            "request of " + std::to_string(line.size()) +
                " bytes exceeds the " + std::to_string(max_bytes) +
                "-byte limit"};
  }
  auto parsed = JsonValue::parse(line);
  if (!parsed.ok()) {
    return {ErrorCode::kInvalidArgument,
            "malformed request: " + parsed.error().message};
  }
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return {ErrorCode::kInvalidArgument,
            "malformed request: expected a JSON object"};
  }

  // Version gate first: an envelope from the wrong schema generation must
  // not be field-guessed.
  const JsonValue* version = doc.find("schema_version");
  if (version == nullptr) {
    return {ErrorCode::kInvalidArgument,
            "missing schema_version (this server speaks version " +
                std::to_string(obs::kSchemaVersion) + ")"};
  }
  const auto version_value = version->as_int64();
  if (!version_value.ok() ||
      version_value.value() != obs::kSchemaVersion) {
    return {ErrorCode::kInvalidArgument,
            "unsupported schema_version (this server speaks version " +
                std::to_string(obs::kSchemaVersion) + ")"};
  }

  Request req;
  if (const JsonValue* id = doc.find("id")) {
    if (!id->is_string()) {
      return {ErrorCode::kInvalidArgument, "field 'id' must be a string"};
    }
    req.id = id->str();
  }

  const JsonValue* op = doc.find("op");
  if (op == nullptr || !op->is_string()) {
    return {ErrorCode::kInvalidArgument,
            "missing or non-string field 'op'"};
  }
  auto op_value = parse_op(op->str());
  if (!op_value.ok()) return op_value.error();
  req.op = op_value.value();

  if (const JsonValue* workload = doc.find("workload")) {
    if (!workload->is_string()) {
      return {ErrorCode::kInvalidArgument,
              "field 'workload' must be a string"};
    }
    req.workload = workload->str();
  }
  if (const JsonValue* array = doc.find("array")) {
    if (!array->is_string()) {
      return {ErrorCode::kInvalidArgument,
              "field 'array' must be a \"WxH\" string"};
    }
    auto status = parse_array_field(array->str(), req);
    if (!status.ok()) return status.error();
  }
  if (const JsonValue* iters = doc.find("iters")) {
    const auto v = iters->as_int64();
    if (!v.ok() || v.value() < 1) {
      return {ErrorCode::kInvalidArgument,
              "field 'iters' must be a positive integer"};
    }
    req.iterations = v.value();
  }
  if (const JsonValue* seed = doc.find("seed")) {
    const auto v = seed->as_uint64();
    if (!v.ok()) {
      return {ErrorCode::kInvalidArgument,
              "field 'seed' must be a non-negative integer"};
    }
    req.seed = v.value();
  }
  if (const JsonValue* policy = doc.find("policy")) {
    if (!policy->is_string()) {
      return {ErrorCode::kInvalidArgument,
              "field 'policy' must be a string"};
    }
    auto kind = parse_policy_name(policy->str());
    if (!kind.ok()) return kind.error();
    req.policy = kind.value();
  }
  if (const JsonValue* metric = doc.find("metric")) {
    if (!metric->is_string() ||
        (metric->str() != "alloc" && metric->str() != "cycles")) {
      return {ErrorCode::kInvalidArgument,
              "field 'metric' must be \"alloc\" or \"cycles\""};
    }
    req.metric = metric->str() == "alloc" ? wear::WearMetric::kAllocations
                                          : wear::WearMetric::kActiveCycles;
  }
  if (const JsonValue* objective = doc.find("objective")) {
    if (!objective->is_string()) {
      return {ErrorCode::kInvalidArgument,
              "field 'objective' must be a string"};
    }
    auto spec = sched::parse_objective(objective->str());
    if (!spec.ok()) return spec.error();
    // Store the canonical id so equivalent spellings ("weighted:0.50,…")
    // execute — and cache — identically.
    req.objective = spec.value().id();
  }
  if (const JsonValue* deadline = doc.find("deadline_ms")) {
    const auto v = deadline->as_int64();
    if (!v.ok() || v.value() < 0) {
      return {ErrorCode::kInvalidArgument,
              "field 'deadline_ms' must be a non-negative integer"};
    }
    req.deadline_ms = v.value();
  }

  const bool needs_workload = req.op == RequestOp::kSchedule ||
                              req.op == RequestOp::kWear ||
                              req.op == RequestOp::kLifetime;
  if (needs_workload && req.workload.empty()) {
    return {ErrorCode::kInvalidArgument,
            std::string("op '") + std::string(to_string(req.op)) +
                "' requires a 'workload' field"};
  }
  return req;
}

std::string to_json(const Response& response) {
  std::ostringstream os;
  os << "{\"schema_version\":" << obs::kSchemaVersion << ",\"id\":";
  if (response.id.empty()) {
    os << "null";
  } else {
    os << obs::json_quote(response.id);
  }
  os << ",\"ok\":" << (response.ok ? "true" : "false");
  if (response.ok) {
    os << ",\"result\":"
       << (response.payload_json.empty() ? "{}" : response.payload_json);
  } else {
    os << ",\"error\":{\"code\":"
       << obs::json_quote(util::to_string(response.error.code))
       << ",\"message\":" << obs::json_quote(response.error.message) << '}';
  }
  os << ",\"wall_seconds\":" << obs::json_number(response.wall_seconds)
     << '}';
  return os.str();
}

}  // namespace rota::svc
