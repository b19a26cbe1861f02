#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

/// \file math.hpp
/// Integer and special-function helpers shared by the scheduler, the
/// wear-leveling arithmetic (Eqs. 5–11 of the paper) and the Weibull
/// reliability model.

namespace rota::util {

/// Greatest common divisor of two positive integers.
/// \pre a > 0 && b > 0
[[nodiscard]] std::int64_t gcd(std::int64_t a, std::int64_t b);

/// Least common multiple of two positive integers. Throws
/// rota::util::invariant_error instead of wrapping when the result
/// exceeds int64 (see util/safe_math.hpp).
/// \pre a > 0 && b > 0
[[nodiscard]] std::int64_t lcm(std::int64_t a, std::int64_t b);

/// ceil(a / b) for positive integers, exact up to INT64_MAX (no a + b - 1
/// intermediate). Inline: the cost model calls it for every candidate
/// mapping the mapper prices.
/// \pre a >= 0 && b > 0
[[nodiscard]] inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  ROTA_REQUIRE(a >= 0, "ceil_div numerator must be non-negative");
  ROTA_REQUIRE(b > 0, "ceil_div denominator must be positive");
  return a / b + (a % b != 0 ? 1 : 0);
}

/// Smallest multiple of `multiple` that is >= `value`.
/// \pre value >= 0 && multiple > 0
[[nodiscard]] std::int64_t round_up(std::int64_t value, std::int64_t multiple);

/// All positive divisors of `n`, ascending.
/// \pre n > 0
[[nodiscard]] std::vector<std::int64_t> divisors(std::int64_t n);

/// Γ(1 + 1/β): the mean of a unit-scale Weibull distribution with shape β.
/// \pre beta > 0
[[nodiscard]] double weibull_mean_factor(double beta);

/// Population mean of a container of doubles (0 for an empty span).
[[nodiscard]] double mean(const std::vector<double>& v);

/// The p-norm generalized mean used by the serial-chain MTTF expression:
/// (Σ v_i^p)^(1/p). Values must be non-negative.
[[nodiscard]] double power_sum_root(const std::vector<double>& v, double p);

}  // namespace rota::util
