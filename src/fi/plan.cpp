#include "fi/plan.hpp"

#include <sstream>

#include "util/encode.hpp"

namespace rota::fi {

namespace {

using util::Error;
using util::ErrorCode;

/// Split on `sep`, keeping empty pieces out.
std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    const std::string_view piece =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                         : end - start);
    if (!piece.empty()) out.emplace_back(piece);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

/// util::parse_i64 into an out-parameter, for the chained checks below.
bool parse_integer(const std::string& text, std::int64_t* out) {
  const auto value = util::parse_i64(text);
  if (value) *out = *value;
  return value.has_value();
}

Error bad_spec(const std::string& what) {
  return Error{ErrorCode::kInvalidArgument, what};
}

util::Result<double> parse_rate(const std::string& key,
                                const std::string& value) {
  const auto rate = util::parse_f64(value);
  if (!rate || !(*rate >= 0.0 && *rate <= 1.0))  // NaN fails both sides
    return bad_spec("fault rate '" + key + "' must be a number in [0, 1], got '" +
                    value + "'");
  return *rate;
}

}  // namespace

bool SoftwarePlan::any() const {
  return read_fail_rate > 0.0 || write_fail_rate > 0.0 || corrupt_rate > 0.0 ||
         stall_rate > 0.0 || alloc_fail_rate > 0.0;
}

std::string SoftwarePlan::to_spec() const {
  std::ostringstream out;
  out << "read=" << read_fail_rate << ",write=" << write_fail_rate
      << ",corrupt=" << corrupt_rate << ",stall=" << stall_rate
      << ",stall_ms=" << stall_ms << ",alloc=" << alloc_fail_rate
      << ",seed=" << seed;
  if (!path_match.empty()) out << ",match=" << path_match;
  return out.str();
}

util::Result<SoftwarePlan> parse_software_plan(std::string_view spec) {
  SoftwarePlan plan;
  for (const std::string& item : split(spec, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      return bad_spec("fault spec item '" + item + "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "read" || key == "write" || key == "corrupt" ||
        key == "stall" || key == "alloc") {
      auto rate = parse_rate(key, value);
      if (!rate.ok()) return rate.error();
      if (key == "read") plan.read_fail_rate = rate.value();
      else if (key == "write") plan.write_fail_rate = rate.value();
      else if (key == "corrupt") plan.corrupt_rate = rate.value();
      else if (key == "stall") plan.stall_rate = rate.value();
      else plan.alloc_fail_rate = rate.value();
    } else if (key == "stall_ms") {
      std::int64_t ms = 0;
      if (!parse_integer(value, &ms) || ms < 0)
        return bad_spec("stall_ms must be a non-negative integer, got '" +
                        value + "'");
      plan.stall_ms = ms;
    } else if (key == "seed") {
      std::int64_t s = 0;
      if (!parse_integer(value, &s) || s < 0)
        return bad_spec("seed must be a non-negative integer, got '" + value +
                        "'");
      plan.seed = static_cast<std::uint64_t>(s);
    } else if (key == "match") {
      if (value.empty()) return bad_spec("match= needs a path substring");
      plan.path_match = value;
    } else {
      return bad_spec("unknown fault spec key '" + key +
                      "' (known: read, write, corrupt, stall, stall_ms, "
                      "alloc, seed, match)");
    }
  }
  return plan;
}

util::Result<HardwareFault> parse_hardware_fault(std::string_view spec) {
  const std::string text(spec);
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos)
    return bad_spec("fault spec '" + text +
                    "' is not pe=U,V@ITER[+K], rank=R@ITER or weibull=N");
  const std::string key = text.substr(0, eq);
  const std::string value = text.substr(eq + 1);

  HardwareFault fault;
  if (key == "weibull") {
    fault.kind = HardwareFaultKind::kWeibull;
    if (!parse_integer(value, &fault.count) || fault.count < 1)
      return bad_spec("weibull=N needs a positive fault count, got '" + value +
                      "'");
    return fault;
  }

  // pe= and rank= share the @ITER suffix.
  const std::size_t at = value.find('@');
  if (at == std::string::npos)
    return bad_spec("fault spec '" + text + "' is missing @ITER");
  std::string when = value.substr(at + 1);
  const std::string target = value.substr(0, at);

  if (key == "pe") {
    fault.kind = HardwareFaultKind::kCoordinate;
    const std::size_t plus = when.find('+');
    if (plus != std::string::npos) {
      if (!parse_integer(when.substr(plus + 1), &fault.restore_after) ||
          fault.restore_after < 1)
        return bad_spec("transient suffix +K needs a positive K in '" + text +
                        "'");
      when = when.substr(0, plus);
    }
    const std::size_t comma = target.find(',');
    if (comma == std::string::npos ||
        !parse_integer(target.substr(0, comma), &fault.u) ||
        !parse_integer(target.substr(comma + 1), &fault.v) || fault.u < 0 ||
        fault.v < 0)
      return bad_spec("pe= needs non-negative coordinates U,V in '" + text +
                      "'");
  } else if (key == "rank") {
    fault.kind = HardwareFaultKind::kWearRank;
    if (!parse_integer(target, &fault.rank) || fault.rank < 0)
      return bad_spec("rank= needs a non-negative wear rank in '" + text +
                      "'");
  } else {
    return bad_spec("unknown fault kind '" + key +
                    "' (known: pe, rank, weibull)");
  }

  if (!parse_integer(when, &fault.iteration) || fault.iteration < 1)
    return bad_spec("@ITER needs a positive iteration in '" + text + "'");
  return fault;
}

std::string to_string(const HardwareFault& fault) {
  std::ostringstream out;
  switch (fault.kind) {
    case HardwareFaultKind::kCoordinate:
      out << "pe=" << fault.u << "," << fault.v << "@" << fault.iteration;
      if (fault.restore_after > 0) out << "+" << fault.restore_after;
      break;
    case HardwareFaultKind::kWearRank:
      out << "rank=" << fault.rank << "@" << fault.iteration;
      break;
    case HardwareFaultKind::kWeibull:
      out << "weibull=" << fault.count;
      break;
  }
  return out.str();
}

}  // namespace rota::fi
