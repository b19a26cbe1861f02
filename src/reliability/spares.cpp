#include "reliability/spares.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "kern/kern.hpp"
#include "util/check.hpp"

namespace rota::rel {

namespace {

void validate_inputs(const std::vector<double>& alphas, std::int64_t spares,
                     double beta, double eta) {
  ROTA_REQUIRE(!alphas.empty(), "activity vector must be non-empty");
  ROTA_REQUIRE(spares >= 0, "spare count must be non-negative");
  ROTA_REQUIRE(std::isfinite(beta) && std::isfinite(eta) && beta > 0.0 &&
                   eta > 0.0,
               "beta and eta must be positive and finite");
  for (double a : alphas)
    ROTA_REQUIRE(std::isfinite(a) && a >= 0.0,
                 "activity must be finite and non-negative");
}

/// R_s(t) for one activity vector at many t. The per-PE failure
/// probability depends on a PE only through its activity, and usage grids
/// repeat values, so the positive activities are grouped once into sorted
/// distinct levels and each evaluation computes one Weibull CDF per level.
/// The Poisson-binomial DP still visits the PEs in input order, reading
/// each PE's level, in kern::poisson_binomial_x4 with one evaluation point
/// per lane, so every operation — and therefore every bit — matches a
/// per-PE evaluation on either ISA (DESIGN.md §14.6).
class SpareReliability {
 public:
  static constexpr std::size_t kLanes = 4;

  SpareReliability(const std::vector<double>& alphas, std::int64_t spares,
                   double beta, double eta)
      : beta_(beta), eta_(eta) {
    levels_.reserve(alphas.size());
    for (double a : alphas)
      if (a > 0.0) levels_.push_back(a);  // inactive PEs cannot fail
    std::vector<double> by_pe = levels_;
    std::sort(levels_.begin(), levels_.end());
    levels_.erase(std::unique(levels_.begin(), levels_.end()), levels_.end());
    level_of_.reserve(by_pe.size());
    for (double a : by_pe) {
      const auto it = std::lower_bound(levels_.begin(), levels_.end(), a);
      level_of_.push_back(static_cast<std::size_t>(it - levels_.begin()));
    }
    p_fail_.resize(kLanes * levels_.size());
    // dp[k] stays +0 for k above the active PE count and adding +0 to the
    // sum changes no bit, so the recurrence stops there: a pool larger
    // than the array costs no more than one spare per active PE.
    const std::size_t cap =
        std::min(static_cast<std::size_t>(spares), level_of_.size()) + 1;
    dp_.resize(kLanes * cap);
  }

  [[nodiscard]] double max_activity() const {
    return levels_.empty() ? 0.0 : levels_.back();
  }

  /// R_s at one point: every lane evaluates t.
  [[nodiscard]] double at(double t) {
    for (std::size_t l = 0; l < levels_.size(); ++l)
      std::fill_n(p_fail_.begin() + static_cast<std::ptrdiff_t>(kLanes * l),
                  kLanes, cdf(t, l));
    double r[kLanes];
    run_dp(r);
    return r[0];
  }

  /// R_s at four points, one per lane.
  void at_x4(const double* t, double* r) {
    for (std::size_t l = 0; l < levels_.size(); ++l)
      for (std::size_t j = 0; j < kLanes; ++j)
        p_fail_[kLanes * l + j] = cdf(t[j], l);
    run_dp(r);
  }

 private:
  /// F(t) = 1 − exp(−(t·α/η)^β) of one activity level (scalar glibc).
  [[nodiscard]] double cdf(double t, std::size_t level) const {
    return 1.0 - std::exp(-std::pow(t * levels_[level] / eta_, beta_));
  }

  /// Poisson-binomial recurrence truncated at `spares` failures, then
  /// P(at most `spares` failures) per lane.
  void run_dp(double* r) {
    kern::poisson_binomial_x4(p_fail_.data(), level_of_.data(),
                              level_of_.size(), dp_.size() / kLanes,
                              dp_.data(), r);
    for (std::size_t j = 0; j < kLanes; ++j) r[j] = std::min(1.0, r[j]);
  }

  double beta_;
  double eta_;
  std::vector<double> levels_;         ///< distinct positive α, ascending
  std::vector<std::size_t> level_of_;  ///< per active PE, input order
  std::vector<double> p_fail_;         ///< scratch: F(t) per level and lane
  std::vector<double> dp_;             ///< scratch: 4 lanes per dp slot
};

}  // namespace

double spare_array_reliability(const std::vector<double>& alphas, double t,
                               std::int64_t spares, double beta, double eta) {
  validate_inputs(alphas, spares, beta, eta);
  ROTA_REQUIRE(t >= 0.0, "time must be non-negative");
  return SpareReliability(alphas, spares, beta, eta).at(t);
}

double spare_array_mttf(const std::vector<double>& alphas,
                        std::int64_t spares, double beta, double eta) {
  validate_inputs(alphas, spares, beta, eta);
  SpareReliability reliability(alphas, spares, beta, eta);
  const double a_max = reliability.max_activity();
  ROTA_REQUIRE(a_max > 0.0, "at least one PE must have positive activity");
  std::vector<double> active;
  for (double a : alphas)
    if (a > 0.0) active.push_back(a);
  ROTA_REQUIRE(spares < static_cast<std::int64_t>(active.size()),
               "spares must be fewer than the PEs with positive activity "
               "(inactive PEs never fail, so the array would never die)");
  // The array dies with its (spares+1)-th failure, so the (spares+1)-th
  // most active PE bounds its lifetime.
  const auto kth = active.begin() + static_cast<std::ptrdiff_t>(spares);
  std::nth_element(active.begin(), kth, active.end(), std::greater<>());
  const double a_kth = *kth;

  // Find a horizon where the array is (numerically) certainly dead, then
  // integrate R_s(t) with the trapezoid rule.
  double horizon = eta / a_max;
  while (reliability.at(horizon) > 1e-9) {
    horizon *= 2.0;
    ROTA_ENSURE(horizon < 1e9 * eta / a_kth,
                "spare-array reliability does not decay");
  }
  // Nodes are evaluated four at a time and summed in node order.
  constexpr int kSteps = 2048;
  constexpr int kLanes = static_cast<int>(SpareReliability::kLanes);
  static_assert(kSteps % kLanes == 0);
  const double dt = horizon / kSteps;
  double integral = 0.0;
  double prev = 1.0;  // R(0)
  for (int i = 1; i <= kSteps; i += kLanes) {
    double t[kLanes];
    double cur[kLanes];
    for (int j = 0; j < kLanes; ++j) t[j] = dt * (i + j);
    reliability.at_x4(t, cur);
    for (const double c : cur) {
      integral += 0.5 * (prev + c) * dt;
      prev = c;
    }
  }
  return integral;
}

SpareRemapper::SpareRemapper(std::int64_t width, std::int64_t height,
                             std::int64_t spares)
    : width_(width), height_(height) {
  ROTA_REQUIRE(width >= 1 && height >= 1, "array dimensions must be positive");
  ROTA_REQUIRE(spares >= 0, "spare count must be non-negative");
  const auto cells = static_cast<std::size_t>(width) *
                     static_cast<std::size_t>(height);
  primary_dead_.assign(cells, false);
  primary_spare_.assign(cells, -1);
  spare_state_.assign(static_cast<std::size_t>(spares), SpareState::kFree);
  spare_primary_.assign(static_cast<std::size_t>(spares), -1);
  stats_.spares_free = spares;
}

std::size_t SpareRemapper::index_of(std::int64_t u, std::int64_t v) const {
  ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
               "PE coordinate outside the array");
  return static_cast<std::size_t>(v) * static_cast<std::size_t>(width_) +
         static_cast<std::size_t>(u);
}

std::int64_t SpareRemapper::claim_free_spare() {
  for (std::size_t s = 0; s < spare_state_.size(); ++s) {
    if (spare_state_[s] == SpareState::kFree) {
      spare_state_[s] = SpareState::kInService;
      --stats_.spares_free;
      ++stats_.spares_in_service;
      return static_cast<std::int64_t>(s);
    }
  }
  return -1;
}

SpareRemapper::Outcome SpareRemapper::fault_primary(std::int64_t u,
                                                    std::int64_t v) {
  ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
               "fault_primary coordinate outside the array");
  const std::size_t idx = index_of(u, v);
  if (primary_dead_[idx]) {
    const std::int64_t spare = primary_spare_[idx];
    return {spare >= 0, spare};
  }
  primary_dead_[idx] = true;
  ++stats_.primary_faults;
  const std::int64_t spare = claim_free_spare();
  primary_spare_[idx] = spare;
  if (spare >= 0) {
    spare_primary_[static_cast<std::size_t>(spare)] =
        static_cast<std::int64_t>(idx);
    ++stats_.remaps;
  } else {
    ++stats_.unmapped;
  }
  check_invariants();
  return {spare >= 0, spare};
}

SpareRemapper::Outcome SpareRemapper::fault_spare(std::int64_t spare) {
  ROTA_REQUIRE(spare >= 0 && spare < spare_count(),
               "spare id outside the pool");
  const auto s = static_cast<std::size_t>(spare);
  if (spare_state_[s] == SpareState::kDead) return {false, -1};
  ++stats_.spare_faults;
  if (spare_state_[s] == SpareState::kFree) {
    spare_state_[s] = SpareState::kDead;
    --stats_.spares_free;
    ++stats_.spares_dead;
    check_invariants();
    return {false, -1};
  }
  // In service: migrate its primary to a fresh spare when one is free.
  const std::int64_t primary = spare_primary_[s];
  spare_state_[s] = SpareState::kDead;
  spare_primary_[s] = -1;
  --stats_.spares_in_service;
  ++stats_.spares_dead;
  const std::int64_t next = claim_free_spare();
  primary_spare_[static_cast<std::size_t>(primary)] = next;
  if (next >= 0) {
    spare_primary_[static_cast<std::size_t>(next)] = primary;
    ++stats_.remaps;
    ++stats_.migrations;
  } else {
    ++stats_.unmapped;
  }
  check_invariants();
  return {next >= 0, next};
}

void SpareRemapper::restore_primary(std::int64_t u, std::int64_t v) {
  ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
               "restore_primary coordinate outside the array");
  const std::size_t idx = index_of(u, v);
  if (!primary_dead_[idx]) return;
  primary_dead_[idx] = false;
  ++stats_.restores;
  const std::int64_t spare = primary_spare_[idx];
  primary_spare_[idx] = -1;
  if (spare >= 0) {
    const auto s = static_cast<std::size_t>(spare);
    spare_state_[s] = SpareState::kFree;
    spare_primary_[s] = -1;
    --stats_.spares_in_service;
    ++stats_.spares_free;
  }
  check_invariants();
}

bool SpareRemapper::is_dead(std::int64_t u, std::int64_t v) const {
  return primary_dead_[index_of(u, v)];
}

std::int64_t SpareRemapper::spare_of(std::int64_t u, std::int64_t v) const {
  return primary_spare_[index_of(u, v)];
}

std::int64_t SpareRemapper::spares_free() const { return stats_.spares_free; }

void SpareRemapper::check_invariants() const {
  ROTA_ENSURE(stats_.spares_in_service + stats_.spares_free +
                      stats_.spares_dead ==
                  spare_count(),
              "spare pool accounting out of balance");
  ROTA_ENSURE(stats_.spares_in_service >= 0 && stats_.spares_free >= 0 &&
                  stats_.spares_dead >= 0,
              "spare pool occupancy went negative");
}

}  // namespace rota::rel
