#include "util/math.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"
#include "util/safe_math.hpp"

namespace rota::util {

std::int64_t gcd(std::int64_t a, std::int64_t b) {
  ROTA_REQUIRE(a > 0 && b > 0, "gcd operands must be positive");
  return std::gcd(a, b);
}

std::int64_t lcm(std::int64_t a, std::int64_t b) {
  ROTA_REQUIRE(a > 0 && b > 0, "lcm operands must be positive");
  // std::lcm silently wraps when the value exceeds int64; the checked form
  // throws instead, which the array-scaling sweeps rely on.
  return checked_lcm(a, b);
}

std::int64_t round_up(std::int64_t value, std::int64_t multiple) {
  ROTA_REQUIRE(value >= 0, "round_up value must be non-negative");
  ROTA_REQUIRE(multiple > 0, "round_up multiple must be positive");
  return ceil_div(value, multiple) * multiple;
}

std::vector<std::int64_t> divisors(std::int64_t n) {
  ROTA_REQUIRE(n > 0, "divisors argument must be positive");
  std::vector<std::int64_t> out;
  for (std::int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) out.push_back(d);
  }
  // Mirror the small divisors into the large cofactors; walking them in
  // descending order keeps the output ascending, and the square root (its
  // own cofactor) is emitted once.
  for (std::size_t i = out.size(); i > 0; --i) {
    const std::int64_t d = out[i - 1];
    if (d != n / d) out.push_back(n / d);
  }
  return out;
}

double weibull_mean_factor(double beta) {
  ROTA_REQUIRE(beta > 0.0, "Weibull shape must be positive");
  return std::tgamma(1.0 + 1.0 / beta);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double power_sum_root(const std::vector<double>& v, double p) {
  ROTA_REQUIRE(p > 0.0, "power_sum_root exponent must be positive");
  // Normalize by the maximum to keep the powers in a well-conditioned range
  // regardless of the magnitude of the usage counters.
  double vmax = 0.0;
  for (double x : v) {
    ROTA_REQUIRE(x >= 0.0, "power_sum_root values must be non-negative");
    vmax = std::max(vmax, x);
  }
  if (vmax == 0.0) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += std::pow(x / vmax, p);
  return vmax * std::pow(sum, 1.0 / p);
}

}  // namespace rota::util
