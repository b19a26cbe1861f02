/// Scalar instantiation of the kern math core — the always-available
/// fallback path, and the definition of the element ops (log1/exp1/pow1)
/// every build shares. Compiled with the baseline instruction set and
/// -ffp-contract=off, so its operation sequence is the bit-identity
/// reference the AVX2 TU must match.

#include "kern/kern.hpp"
#include "kern/kern_math.hpp"

namespace rota::kern::detail {

namespace {

double sum_pow_scalar(const double* x, double p, std::size_t n) {
  return sum_pow_impl<ScalarLane>(x, p, n);
}

double sum_exp_affine_scalar(const double* a, const double* w, double m,
                             std::size_t n) {
  return sum_exp_affine_impl<ScalarLane>(a, w, m, n);
}

double weibull_min_scalar(const double* u, const double* c_pow,
                          std::size_t n) {
  return weibull_min_impl<ScalarLane>(u, c_pow, n);
}

void weibull_powers_scalar(const double* u, const double* c_pow,
                           double* out, std::size_t n) {
  weibull_powers_impl<ScalarLane>(u, c_pow, out, n);
}

void poisson_binomial_x4_scalar(const double* p_fail,
                                const std::size_t* level_of, std::size_t n,
                                std::size_t cap, double* dp, double* sums) {
  poisson_binomial_x4_impl<ScalarLane>(p_fail, level_of, n, cap, dp, sums);
}

void add_i64_scalar(std::int64_t* dst, const std::int64_t* src,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void add_scalar_i64_scalar(std::int64_t* dst, std::int64_t value,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += value;
}

I64Stats minmax_sum_i64_scalar(const std::int64_t* x, std::size_t n) {
  I64Stats s{x[0], x[0], 0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = x[i];
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
    s.sum += v;
  }
  return s;
}

}  // namespace

const Kernels& scalar_kernels() {
  static const Kernels kKernels{
      &sum_pow_scalar,        &sum_exp_affine_scalar,
      &weibull_min_scalar,    &weibull_powers_scalar,
      &poisson_binomial_x4_scalar,
      &add_i64_scalar,        &add_scalar_i64_scalar,
      &minmax_sum_i64_scalar,
  };
  return kKernels;
}

}  // namespace rota::kern::detail

namespace rota::kern {

double log1(double x) { return detail::vlog(detail::ScalarLane{x}).v; }

double exp1(double x) { return detail::vexp(detail::ScalarLane{x}).v; }

double pow1(double x, double p) {
  return detail::vpow(detail::ScalarLane{x}, detail::ScalarLane{p}).v;
}

}  // namespace rota::kern
