/// AVX2 instantiation of the kern math core. Compiled with -mavx2 (and
/// deliberately WITHOUT -mfma: fused ops would change the last ulp and
/// break the scalar/AVX2 bit-identity contract) only when ROTA_SIMD
/// allows it. The lane type below mirrors ScalarLane operation for
/// operation — see kern_math.hpp for the shared algorithms and
/// DESIGN.md §14 for the contract.
///
/// This is the one translation unit allowed to include <immintrin.h>
/// (enforced by the rota_lint simd-isolation rule).

#include <immintrin.h>

#include <cstring>

#include "kern/kern.hpp"
#include "kern/kern_math.hpp"

namespace rota::kern::detail {

namespace {

/// 4-wide double lane over __m256d. Masks are all-ones/all-zeros lane
/// patterns (_mm256_cmp_pd output) consumed by blendv.
struct Avx2Lane {
  __m256d v;

  static constexpr int kWidth = 4;
  using Mask = __m256d;

  static Avx2Lane splat(double x) { return {_mm256_set1_pd(x)}; }
  static Avx2Lane load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static void store(double* p, Avx2Lane a) { _mm256_storeu_pd(p, a.v); }

  friend Avx2Lane operator+(Avx2Lane a, Avx2Lane b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend Avx2Lane operator-(Avx2Lane a, Avx2Lane b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend Avx2Lane operator*(Avx2Lane a, Avx2Lane b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend Avx2Lane operator/(Avx2Lane a, Avx2Lane b) {
    return {_mm256_div_pd(a.v, b.v)};
  }

  static Mask lt(Avx2Lane a, Avx2Lane b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
  }
  static Mask le(Avx2Lane a, Avx2Lane b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ);
  }
  static Mask gt(Avx2Lane a, Avx2Lane b) {
    return _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ);
  }
  static Mask mask_and(Mask a, Mask b) { return _mm256_and_pd(a, b); }
  static Avx2Lane select(Mask m, Avx2Lane a, Avx2Lane b) {
    return {_mm256_blendv_pd(b.v, a.v, m)};
  }

  static Avx2Lane floor(Avx2Lane a) { return {_mm256_floor_pd(a.v)}; }
  static Avx2Lane min(Avx2Lane a, Avx2Lane b) {
    return {_mm256_min_pd(a.v, b.v)};
  }
  static Avx2Lane max(Avx2Lane a, Avx2Lane b) {
    return {_mm256_max_pd(a.v, b.v)};
  }

  static Avx2Lane frexp_norm(Avx2Lane x, Avx2Lane* exponent) {
    const __m256i bits = _mm256_castpd_si256(x.v);
    const __m256i biased = _mm256_srli_epi64(bits, 52);
    // int64 → double via the 1.5·2^52 pivot: OR the (11-bit) exponent
    // into the pivot's mantissa and subtract the pivot — exact.
    const __m256d magic = _mm256_set1_pd(kMagic);
    const __m256d biased_d = _mm256_sub_pd(
        _mm256_castsi256_pd(
            _mm256_or_si256(biased, _mm256_castpd_si256(magic))),
        magic);
    exponent->v = _mm256_sub_pd(biased_d, _mm256_set1_pd(1022.0));
    const __m256i mbits = _mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000F'FFFF'FFFF'FFFFLL)),
        _mm256_set1_epi64x(0x3FE0'0000'0000'0000LL));
    return {_mm256_castsi256_pd(mbits)};
  }

  static Avx2Lane pow2i(Avx2Lane n) {
    // double → int64 via the same pivot (|n| <= 1023 << 2^51, so n + pivot
    // stays in the pivot's binade and the integer difference is exact).
    const __m256d magic = _mm256_set1_pd(kMagic);
    const __m256i ni =
        _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(n.v, magic)),
                         _mm256_castpd_si256(magic));
    const __m256i bits = _mm256_slli_epi64(
        _mm256_add_epi64(ni, _mm256_set1_epi64x(1023)), 52);
    return {_mm256_castsi256_pd(bits)};
  }
};

double sum_pow_avx2(const double* x, double p, std::size_t n) {
  return sum_pow_impl<Avx2Lane>(x, p, n);
}

double sum_exp_affine_avx2(const double* a, const double* w, double m,
                           std::size_t n) {
  return sum_exp_affine_impl<Avx2Lane>(a, w, m, n);
}

double weibull_min_avx2(const double* u, const double* c_pow,
                        std::size_t n) {
  return weibull_min_impl<Avx2Lane>(u, c_pow, n);
}

void weibull_powers_avx2(const double* u, const double* c_pow,
                         double* out, std::size_t n) {
  weibull_powers_impl<Avx2Lane>(u, c_pow, out, n);
}

void poisson_binomial_x4_avx2(const double* p_fail,
                              const std::size_t* level_of, std::size_t n,
                              std::size_t cap, double* dp, double* sums) {
  poisson_binomial_x4_impl<Avx2Lane>(p_fail, level_of, n, cap, dp, sums);
}

// memcpy in/out of __m256i keeps the int64 batches strict-aliasing clean;
// it compiles to vmovdqu.
__m256i load_i256(const std::int64_t* p) {
  __m256i out;
  std::memcpy(&out, p, sizeof out);
  return out;
}

void store_i256(std::int64_t* p, __m256i x) { std::memcpy(p, &x, sizeof x); }

void add_i64_avx2(std::int64_t* dst, const std::int64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store_i256(dst + i,
               _mm256_add_epi64(load_i256(dst + i), load_i256(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void add_scalar_i64_avx2(std::int64_t* dst, std::int64_t value,
                         std::size_t n) {
  const __m256i vv = _mm256_set1_epi64x(value);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store_i256(dst + i, _mm256_add_epi64(load_i256(dst + i), vv));
  }
  for (; i < n; ++i) dst[i] += value;
}

I64Stats minmax_sum_i64_avx2(const std::int64_t* x, std::size_t n) {
  I64Stats s{x[0], x[0], 0};
  std::size_t i = 0;
  if (n >= 4) {
    __m256i vmin = load_i256(x);
    __m256i vmax = vmin;
    __m256i vsum = _mm256_setzero_si256();
    for (; i + 4 <= n; i += 4) {
      const __m256i v = load_i256(x + i);
      vsum = _mm256_add_epi64(vsum, v);
      vmin = _mm256_blendv_epi8(vmin, v, _mm256_cmpgt_epi64(vmin, v));
      vmax = _mm256_blendv_epi8(vmax, v, _mm256_cmpgt_epi64(v, vmax));
    }
    std::int64_t lane_min[4];
    std::int64_t lane_max[4];
    std::int64_t lane_sum[4];
    store_i256(lane_min, vmin);
    store_i256(lane_max, vmax);
    store_i256(lane_sum, vsum);
    s = I64Stats{lane_min[0], lane_max[0], 0};
    for (int l = 0; l < 4; ++l) {
      if (lane_min[l] < s.min) s.min = lane_min[l];
      if (lane_max[l] > s.max) s.max = lane_max[l];
      s.sum += lane_sum[l];
    }
  }
  for (; i < n; ++i) {
    const std::int64_t v = x[i];
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
    s.sum += v;
  }
  return s;
}

}  // namespace

const Kernels& avx2_kernels() {
  static const Kernels kKernels{
      &sum_pow_avx2,        &sum_exp_affine_avx2,
      &weibull_min_avx2,    &weibull_powers_avx2,
      &poisson_binomial_x4_avx2,
      &add_i64_avx2,        &add_scalar_i64_avx2,
      &minmax_sum_i64_avx2,
  };
  return kKernels;
}

}  // namespace rota::kern::detail
