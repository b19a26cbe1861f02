#include "sched/objective.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <tuple>

#include "util/check.hpp"

namespace rota::sched {

namespace {

using util::ErrorCode;

/// Shortest decimal form that parses back to exactly `value` — stable,
/// locale-independent, and human-readable ("0.5", not 17 digits).
std::string round_trip_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::tuple<int, int, std::int64_t, std::int64_t, std::int64_t, std::int64_t,
           std::int64_t>
lex_key(const Mapping& m) {
  return {static_cast<int>(m.dim_x), static_cast<int>(m.dim_y),
          m.sx,  m.sy,  m.lb_c, m.lb_q, m.lb_s};
}

/// One weight token of "weighted:w1,w2,w3": a fully-consumed, finite,
/// non-negative double.
util::Result<double> parse_weight(std::string_view token,
                                  std::string_view whole) {
  const std::string text(token);
  const auto bad = [&](const char* why) {
    return util::Error{ErrorCode::kInvalidArgument,
                       std::string("bad objective weight '") + text + "' in '" +
                           std::string(whole) + "': " + why};
  };
  if (text.empty()) return bad("empty");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return bad("not a number");
  if (!std::isfinite(value)) return bad("not finite");
  if (value < 0.0) return bad("negative");
  return value;
}

}  // namespace

std::string_view to_string(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kEnergy:
      return "energy";
    case ObjectiveKind::kLifetime:
      return "lifetime";
    case ObjectiveKind::kThroughput:
      return "throughput";
    case ObjectiveKind::kWeighted:
      return "weighted";
  }
  ROTA_UNREACHABLE("unhandled ObjectiveKind");
}

std::string ObjectiveSpec::id() const {
  if (kind != ObjectiveKind::kWeighted) return std::string(to_string(kind));
  return "weighted:" + weights_csv();
}

std::string ObjectiveSpec::weights_csv() const {
  return round_trip_double(weights.energy) + "," +
         round_trip_double(weights.lifetime) + "," +
         round_trip_double(weights.cycles);
}

ObjectiveSpec ObjectiveSpec::weighted(double w_energy, double w_lifetime,
                                      double w_cycles) {
  ROTA_REQUIRE(std::isfinite(w_energy) && std::isfinite(w_lifetime) &&
                   std::isfinite(w_cycles),
               "objective weights must be finite");
  ROTA_REQUIRE(w_energy >= 0.0 && w_lifetime >= 0.0 && w_cycles >= 0.0,
               "objective weights must be non-negative");
  ROTA_REQUIRE(w_energy + w_lifetime + w_cycles > 0.0,
               "objective weights must not all be zero");
  return {ObjectiveKind::kWeighted, {w_energy, w_lifetime, w_cycles}};
}

util::Result<ObjectiveSpec> parse_objective(std::string_view text) {
  if (text == "energy") return ObjectiveSpec::energy();
  if (text == "lifetime") return ObjectiveSpec::lifetime();
  if (text == "throughput") return ObjectiveSpec::throughput();
  constexpr std::string_view kWeightedPrefix = "weighted:";
  if (text.substr(0, kWeightedPrefix.size()) == kWeightedPrefix) {
    std::string_view rest = text.substr(kWeightedPrefix.size());
    double weights[3] = {0.0, 0.0, 0.0};
    for (int i = 0; i < 3; ++i) {
      const std::size_t comma = rest.find(',');
      if ((i < 2) != (comma != std::string_view::npos)) {
        return {ErrorCode::kInvalidArgument,
                "objective '" + std::string(text) +
                    "': weighted needs exactly three comma-separated "
                    "weights (weighted:<w1>,<w2>,<w3>)"};
      }
      auto weight = parse_weight(rest.substr(0, comma), text);
      if (!weight.ok()) return weight.error();
      weights[i] = weight.value();
      if (comma != std::string_view::npos) rest = rest.substr(comma + 1);
    }
    if (weights[0] + weights[1] + weights[2] <= 0.0) {
      return {ErrorCode::kInvalidArgument,
              "objective '" + std::string(text) +
                  "': at least one weight must be positive"};
    }
    return ObjectiveSpec::weighted(weights[0], weights[1], weights[2]);
  }
  return {ErrorCode::kInvalidArgument,
          "unknown objective '" + std::string(text) +
              "' (expected energy, lifetime, throughput or "
              "weighted:<w1>,<w2>,<w3>)"};
}

double projected_mttf(std::int64_t pe_allocations, std::int64_t live_pes,
                      double beta) {
  ROTA_REQUIRE(pe_allocations >= 1, "projected_mttf needs >= 1 allocation");
  ROTA_REQUIRE(live_pes >= 1, "projected_mttf needs >= 1 live PE");
  ROTA_REQUIRE(beta > 0.0, "projected_mttf needs beta > 0");
  const double inv_beta = 1.0 / beta;
  return std::tgamma(1.0 + inv_beta) *
         std::pow(static_cast<double>(live_pes), 1.0 - inv_beta) /
         static_cast<double>(pe_allocations);
}

bool mapping_lex_less(const Mapping& a, const Mapping& b) {
  return lex_key(a) < lex_key(b);
}

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  if (a.energy > b.energy || a.mttf < b.mttf || a.cycles > b.cycles) {
    return false;
  }
  return a.energy < b.energy || a.mttf > b.mttf || a.cycles < b.cycles;
}

bool pareto_canonical_less(const ParetoPoint& a, const ParetoPoint& b) {
  if (a.energy != b.energy) return a.energy < b.energy;
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  if (a.mttf != b.mttf) return a.mttf > b.mttf;
  return mapping_lex_less(a.mapping, b.mapping);
}

bool ParetoFrontBuilder::dominated_by_last(double energy, double mttf,
                                           double cycles) const {
  ROTA_REQUIRE(std::isfinite(energy) && std::isfinite(mttf) &&
                   std::isfinite(cycles),
               "Pareto candidates need finite objective values");
  // A dominated candidate shares its triple with no member (that member
  // would be dominated too), so rejecting it here is what offer()'s scan
  // would do.
  const Objectives o{energy, mttf, cycles};
  return has_last_dominator_ && weak(last_dominator_, o) &&
         !weak(o, last_dominator_);
}

void ParetoFrontBuilder::offer(const ParetoPoint& p, const CostResult& c) {
  if (dominated_by_last(p.energy, p.mttf, p.cycles)) return;
  const Objectives o{p.energy, p.mttf, p.cycles};
  std::size_t i = 0;
  while (i < keys_.size()) {
    const bool member_weak = weak(keys_[i], o);
    const bool candidate_weak = weak(o, keys_[i]);
    if (!member_weak && !candidate_weak) {  // incomparable: the common case
      ++i;
      continue;
    }
    if (member_weak && candidate_weak) {  // same triple: keep the least mapping
      if (mapping_lex_less(p.mapping, points_[i].mapping)) {
        points_[i] = p;
        costs_[i] = c;
      }
      return;
    }
    if (member_weak) {
      last_dominator_ = keys_[i];
      has_last_dominator_ = true;
      return;
    }
    // The candidate dominates member i. Member order is free (take()
    // sorts), so fill the hole from the back.
    keys_[i] = keys_.back();
    keys_.pop_back();
    points_[i] = points_.back();
    points_.pop_back();
    costs_[i] = costs_.back();
    costs_.pop_back();
  }
  keys_.push_back(o);
  points_.push_back(p);
  costs_.push_back(c);
}

void ParetoFrontBuilder::take(std::vector<ParetoPoint>& points,
                              std::vector<CostResult>& costs) {
  std::vector<std::size_t> order(points_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pareto_canonical_less(points_[a], points_[b]);
  });
  points.clear();
  costs.clear();
  points.reserve(order.size());
  costs.reserve(order.size());
  for (const std::size_t idx : order) {
    points.push_back(points_[idx]);
    costs.push_back(costs_[idx]);
  }
  keys_.clear();
  points_.clear();
  costs_.clear();
  has_last_dominator_ = false;
}

bool objective_better(const ObjectiveSpec& spec, const CostResult& a,
                      const Mapping& ma, const CostResult& b,
                      const Mapping& mb) {
  ROTA_REQUIRE(spec.kind != ObjectiveKind::kWeighted,
               "objective_better is defined for pure objectives only; the "
               "weighted objective collapses a Pareto front");
  // The lifetime leader: fewer PE-allocations == higher projected MTTF
  // for a fixed live-PE count (projected_mttf is strictly decreasing in
  // A), compared exactly in integers.
  if (spec.kind == ObjectiveKind::kLifetime) {
    const std::int64_t alloc_a = a.tiles * ma.sx * ma.sy;
    const std::int64_t alloc_b = b.tiles * mb.sx * mb.sy;
    if (alloc_a != alloc_b) return alloc_a < alloc_b;
  }
  if (spec.kind == ObjectiveKind::kThroughput) {
    if (a.cycles != b.cycles) return a.cycles < b.cycles;
  }
  // The historical energy chain. For kEnergy this whole function is
  // byte-for-byte the pre-objective comparator: energy, then cycles, then
  // larger utilization space, then lexicographic mapping order.
  if (a.energy != b.energy) return a.energy < b.energy;
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  const std::int64_t area_a = ma.sx * ma.sy;
  const std::int64_t area_b = mb.sx * mb.sy;
  if (area_a != area_b) return area_a > area_b;
  return mapping_lex_less(ma, mb);
}

std::size_t select_from_front(const std::vector<ParetoPoint>& points,
                              const ObjectiveSpec& spec) {
  ROTA_REQUIRE(!points.empty(), "select_from_front needs a non-empty front");
  if (spec.kind == ObjectiveKind::kWeighted) {
    double energy_min = points.front().energy;
    double cycles_min = points.front().cycles;
    double mttf_max = points.front().mttf;
    for (const ParetoPoint& p : points) {
      energy_min = std::min(energy_min, p.energy);
      cycles_min = std::min(cycles_min, p.cycles);
      mttf_max = std::max(mttf_max, p.mttf);
    }
    // Normalize each axis by the front's own optimum so the weights mean
    // "relative sacrifice", independent of the layer's absolute scale.
    const double energy_ref = energy_min > 0.0 ? energy_min : 1.0;
    const double cycles_ref = cycles_min > 0.0 ? cycles_min : 1.0;
    const auto score = [&](const ParetoPoint& p) {
      return spec.weights.energy * (p.energy / energy_ref) +
             spec.weights.lifetime * (mttf_max / p.mttf) +
             spec.weights.cycles * (p.cycles / cycles_ref);
    };
    std::size_t best = 0;
    double best_score = score(points[0]);
    for (std::size_t i = 1; i < points.size(); ++i) {
      const double s = score(points[i]);
      if (s < best_score) {
        best = i;
        best_score = s;
      }
    }
    return best;
  }
  const auto better = [&](const ParetoPoint& a, const ParetoPoint& b) {
    switch (spec.kind) {
      case ObjectiveKind::kThroughput:
        if (a.cycles != b.cycles) return a.cycles < b.cycles;
        break;
      case ObjectiveKind::kLifetime:
        if (a.pe_allocations != b.pe_allocations) {
          return a.pe_allocations < b.pe_allocations;
        }
        break;
      case ObjectiveKind::kEnergy:
      case ObjectiveKind::kWeighted:
        break;
    }
    if (a.energy != b.energy) return a.energy < b.energy;
    if (a.cycles != b.cycles) return a.cycles < b.cycles;
    const std::int64_t area_a = a.mapping.sx * a.mapping.sy;
    const std::int64_t area_b = b.mapping.sx * b.mapping.sy;
    if (area_a != area_b) return area_a > area_b;
    return mapping_lex_less(a.mapping, b.mapping);
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (better(points[i], points[best])) best = i;
  }
  return best;
}

}  // namespace rota::sched
