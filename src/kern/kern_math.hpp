#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

/// \file kern_math.hpp
/// The single source of truth for the vectorized math kernels: every
/// algorithm here is a template over a 'lane' type and is instantiated
/// twice — once with ScalarLane (below) in isa_scalar.cpp and once with a
/// 4-wide AVX2 lane in isa_avx2.cpp. Both instantiations execute the
/// exact same IEEE-754 operation sequence per element (no FMA, no
/// reassociation; the kern library compiles with -ffp-contract=off), so
/// their results are bit-identical by construction.
///
/// log/exp are the classic Cephes double-precision rational
/// approximations (log: P5/Q5 after reduction to [√½, √2); exp: n·ln2
/// split into a hi/lo pair plus a degree-2/3 rational in the residual),
/// accurate to a few ulp. Special values are handled with branch-free
/// masked selects so scalar and vector lanes agree: log(0) = -inf,
/// exp flushes to 0 below -708 and saturates to +inf above 709, and
/// denormal log inputs are pre-scaled by 2^54 for an exact result.
///
/// Batch reductions use the 4-lane tree documented in DESIGN.md §14:
/// element i always feeds lane i mod 4, vector or not, and the final
/// fold is (l0 + l1) + (l2 + l3).

namespace rota::kern::detail {

/// Width of the reduction tree — equal to the AVX2 vector width, and
/// emulated with four scalar accumulators on the fallback path.
inline constexpr int kTreeLanes = 4;

inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kDblMin = std::numeric_limits<double>::min();

// Cephes log() coefficients (double precision).
inline constexpr double kLogP0 = 1.01875663804580931796e-4;
inline constexpr double kLogP1 = 4.97494994976747001425e-1;
inline constexpr double kLogP2 = 4.70579119878881725854e0;
inline constexpr double kLogP3 = 1.44989225341610930846e1;
inline constexpr double kLogP4 = 1.79368678507819816313e1;
inline constexpr double kLogP5 = 7.70838733755885391666e0;
inline constexpr double kLogQ0 = 1.12873587189167450590e1;
inline constexpr double kLogQ1 = 4.52279145837532221105e1;
inline constexpr double kLogQ2 = 8.29875266912776603211e1;
inline constexpr double kLogQ3 = 7.11544750618563894466e1;
inline constexpr double kLogQ4 = 2.31251620126765340583e1;
inline constexpr double kSqrtHalf = 7.07106781186547524401e-1;
/// ln2 split: kLn2Hi − kLn2Lo == ln 2 to beyond double precision.
inline constexpr double kLn2Hi = 6.93359375e-1;
inline constexpr double kLn2Lo = 2.121944400546905827679e-4;

// Cephes exp() coefficients (double precision).
inline constexpr double kExpP0 = 1.26177193074810590878e-4;
inline constexpr double kExpP1 = 3.02994407707441961300e-2;
inline constexpr double kExpP2 = 9.99999999999999999910e-1;
inline constexpr double kExpQ0 = 3.00198505138664455042e-6;
inline constexpr double kExpQ1 = 2.52448340349684104192e-3;
inline constexpr double kExpQ2 = 2.27265548208155028766e-1;
inline constexpr double kExpQ3 = 2.00000000000000000005e0;
inline constexpr double kLog2E = 1.4426950408889634073599;  // 1/ln 2
/// exp() saturation thresholds. Chosen so the 2^n exponent build stays in
/// the normal range: below kExpLo the true result is at most ~3e-308 and
/// flushes to zero; above kExpHi it exceeds ~8e307 and saturates to +inf.
inline constexpr double kExpLo = -708.0;
inline constexpr double kExpHi = 709.0;
/// 1.5·2^52 — int64↔double conversion pivot for exponent arithmetic.
inline constexpr double kMagic = 0x1.8p52;

/// Portable one-element lane. Operations mirror the AVX2 lane exactly:
/// min/max use the (a OP b) ? a : b select form so NaN propagation
/// matches _mm256_min_pd/_mm256_max_pd, and select() is a branchless
/// value pick just like blendv.
struct ScalarLane {
  double v = 0.0;

  static constexpr int kWidth = 1;
  using Mask = bool;

  static ScalarLane splat(double x) { return {x}; }
  static ScalarLane load(const double* p) { return {p[0]}; }
  static void store(double* p, ScalarLane a) { p[0] = a.v; }

  friend ScalarLane operator+(ScalarLane a, ScalarLane b) {
    return {a.v + b.v};
  }
  friend ScalarLane operator-(ScalarLane a, ScalarLane b) {
    return {a.v - b.v};
  }
  friend ScalarLane operator*(ScalarLane a, ScalarLane b) {
    return {a.v * b.v};
  }
  friend ScalarLane operator/(ScalarLane a, ScalarLane b) {
    return {a.v / b.v};
  }

  static Mask lt(ScalarLane a, ScalarLane b) { return a.v < b.v; }
  static Mask le(ScalarLane a, ScalarLane b) { return a.v <= b.v; }
  static Mask gt(ScalarLane a, ScalarLane b) { return a.v > b.v; }
  static Mask mask_and(Mask a, Mask b) { return a && b; }
  static ScalarLane select(Mask m, ScalarLane a, ScalarLane b) {
    return m ? a : b;
  }

  static ScalarLane floor(ScalarLane a) { return {std::floor(a.v)}; }
  static ScalarLane min(ScalarLane a, ScalarLane b) {
    return {(a.v < b.v) ? a.v : b.v};
  }
  static ScalarLane max(ScalarLane a, ScalarLane b) {
    return {(a.v > b.v) ? a.v : b.v};
  }

  /// Split a positive normal x into m·2^e with m in [0.5, 1); returns m
  /// and writes e (an exact small integer) through `exponent`.
  static ScalarLane frexp_norm(ScalarLane x, ScalarLane* exponent) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x.v);
    const auto biased = static_cast<std::int64_t>(bits >> 52);
    exponent->v = static_cast<double>(biased) - 1022.0;
    const std::uint64_t mbits =
        (bits & 0x000F'FFFF'FFFF'FFFFULL) | 0x3FE0'0000'0000'0000ULL;
    return {std::bit_cast<double>(mbits)};
  }

  /// 2^n for an integral-valued n in [-1022, 1023].
  static ScalarLane pow2i(ScalarLane n) {
    const auto ni = static_cast<std::int64_t>(n.v);
    return {std::bit_cast<double>(
        static_cast<std::uint64_t>(ni + 1023) << 52)};
  }
};

/// Cephes log on the reduced pair: x = m·2^e with m ∈ [0.5, 1).
template <class L>
[[gnu::always_inline]] inline L vlog_reduced(L m, L e) {
  using M = typename L::Mask;
  const M low = L::lt(m, L::splat(kSqrtHalf));
  e = L::select(low, e - L::splat(1.0), e);
  const L z = L::select(low, m + m - L::splat(1.0), m - L::splat(1.0));
  const L zz = z * z;
  const L z4 = zz * zz;

  // Estrin evaluation of the Cephes rationals. Without FMA every mul/add
  // is a 4-cycle step, and the hot loops are latency-bound on this chain:
  // Horner's 10-deep ladder costs ~40 cycles, the 3-level tree ~20. The
  // regrouping changes low-bit rounding versus Horner, which is fine —
  // the bit-identity contract is scalar vs AVX2, and both instantiate
  // this same expression tree.
  const L pa = L::splat(kLogP0) * z + L::splat(kLogP1);
  const L pb = L::splat(kLogP2) * z + L::splat(kLogP3);
  const L pc = L::splat(kLogP4) * z + L::splat(kLogP5);
  const L pn = pa * z4 + (pb * zz + pc);
  const L qa = z + L::splat(kLogQ0);
  const L qb = L::splat(kLogQ1) * z + L::splat(kLogQ2);
  const L qc = L::splat(kLogQ3) * z + L::splat(kLogQ4);
  const L qn = qa * z4 + (qb * zz + qc);

  L y = z * (zz * pn / qn);
  y = y - e * L::splat(kLn2Lo);
  y = y - L::splat(0.5) * zz;
  L r = z + y;
  r = r + e * L::splat(kLn2Hi);
  return r;
}

/// log(x) for x that is already positive, finite and normal — no
/// zero/negative/denormal handling. The hot Weibull reduction feeds it
/// 1−u ∈ [2^-53, 1], which always qualifies; everything else goes
/// through the full-domain vlog below.
template <class L>
[[gnu::always_inline]] inline L vlog_finite(L x) {
  L e = L::splat(0.0);
  const L m = L::frexp_norm(x, &e);
  return vlog_reduced(m, e);
}

/// Cephes log(x). Domain: x >= 0 and not NaN/inf. x == 0 (and any
/// negative garbage) returns -inf; denormals are pre-scaled so the
/// exponent extraction stays exact.
template <class L>
[[gnu::always_inline]] inline L vlog(L x) {
  using M = typename L::Mask;
  const L zero = L::splat(0.0);
  const M nonpos = L::le(x, zero);
  const M tiny = L::mask_and(L::gt(x, zero), L::lt(x, L::splat(kDblMin)));
  x = L::select(tiny, x * L::splat(0x1p54), x);

  L e = L::splat(0.0);
  const L m = L::frexp_norm(x, &e);
  e = L::select(tiny, e - L::splat(54.0), e);

  const L r = vlog_reduced(m, e);
  return L::select(nonpos, L::splat(-kInf), r);
}

/// Cephes exp(x). Flushes to 0 below kExpLo, saturates to +inf above
/// kExpHi; -inf and +inf inputs land on those masks. NaN stays NaN.
template <class L>
[[gnu::always_inline]] inline L vexp(L x) {
  using M = typename L::Mask;
  const M over = L::gt(x, L::splat(kExpHi));
  const M under = L::lt(x, L::splat(kExpLo));

  L n = L::floor(L::splat(kLog2E) * x + L::splat(0.5));
  // Clamp before the 2^n build so masked-out lanes (±inf, NaN) stay in
  // the representable exponent range; in-range lanes are unaffected.
  n = L::max(n, L::splat(-1022.0));
  n = L::min(n, L::splat(1023.0));
  x = x - n * L::splat(kLn2Hi);
  x = x + n * L::splat(kLn2Lo);

  // Estrin grouping, same rationale (and same caveat) as in vlog.
  const L xx = x * x;
  const L x4 = xx * xx;
  const L px = (L::splat(kExpP0) * x4 +
                (L::splat(kExpP1) * xx + L::splat(kExpP2))) *
               x;
  const L qx = (L::splat(kExpQ0) * xx + L::splat(kExpQ1)) * x4 +
               (L::splat(kExpQ2) * xx + L::splat(kExpQ3));

  L r = px / (qx - px);
  r = L::splat(1.0) + (r + r);
  r = r * L::pow2i(n);
  r = L::select(under, L::splat(0.0), r);
  return L::select(over, L::splat(kInf), r);
}

/// x^p as exp(p·log x); x == 0 → log -inf → exp 0 for p > 0.
template <class L>
[[gnu::always_inline]] inline L vpow(L x, L p) {
  return vexp(p * vlog(x));
}

/// One element of the Weibull first-failure reduction, in the β-power
/// domain: c_pow·(−log(1 − u)) with c_pow = (η/α)^β precomputed by the
/// caller. Since x ↦ x^{1/β} is monotone, the minimum over elements can
/// be taken here and raised to 1/β once per reduction — one log per
/// element instead of the two a log-domain min would need. u ∈ [0, 1)
/// keeps 1−u inside vlog_finite's normal-positive domain; u == 0 gives
/// −log(1) == 0, the zero failure time.
template <class L>
[[gnu::always_inline]] inline L weibull_elem(L u, L c_pow) {
  const L one_minus = L::splat(1.0) - u;
  return c_pow * (L::splat(0.0) - vlog_finite(one_minus));
}

// Scalar element helpers shared by both instantiations' tail loops.
inline double pow_1(double x, double p) {
  return vpow(ScalarLane{x}, ScalarLane{p}).v;
}
inline double exp_affine_1(double a, double w, double m) {
  return vexp(ScalarLane{m} * (ScalarLane{a} + ScalarLane{w})).v;
}
inline double weibull_elem_1(double u, double c_pow) {
  return weibull_elem(ScalarLane{u}, ScalarLane{c_pow}).v;
}

/// Σ x_i^p with the 4-lane reduction tree. V is either ScalarLane (the
/// vector loop compiles away and every element takes the tail path) or
/// the 4-wide AVX2 lane (the tail continues each lane's running sum).
template <class V>
double sum_pow_impl(const double* x, double p, std::size_t n) {
  static_assert(V::kWidth == 1 || V::kWidth == kTreeLanes);
  double lanes[kTreeLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  if constexpr (V::kWidth == kTreeLanes) {
    const V vp = V::splat(p);
    V acc = V::splat(0.0);
    for (; i + V::kWidth <= n; i += V::kWidth) {
      acc = acc + vpow(V::load(x + i), vp);
    }
    V::store(lanes, acc);
  }
  for (; i < n; ++i) {
    lanes[i % kTreeLanes] += pow_1(x[i], p);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Σ exp(m·(a_i + w_i)) with the 4-lane reduction tree.
template <class V>
double sum_exp_affine_impl(const double* a, const double* w, double m,
                           std::size_t n) {
  static_assert(V::kWidth == 1 || V::kWidth == kTreeLanes);
  double lanes[kTreeLanes] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  if constexpr (V::kWidth == kTreeLanes) {
    const V vm = V::splat(m);
    V acc = V::splat(0.0);
    for (; i + V::kWidth <= n; i += V::kWidth) {
      acc = acc + vexp(vm * (V::load(a + i) + V::load(w + i)));
    }
    V::store(lanes, acc);
  }
  for (; i < n; ++i) {
    lanes[i % kTreeLanes] += exp_affine_1(a[i], w[i], m);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// min_i c_pow_i·(−log(1 − u_i)). Min is exact, associative and
/// commutative over identical element values, so any fold order gives the
/// same bits — the tree fold below is fixed anyway for uniformity.
template <class V>
double weibull_min_impl(const double* u, const double* c_pow,
                        std::size_t n) {
  static_assert(V::kWidth == 1 || V::kWidth == kTreeLanes);
  double lanes[kTreeLanes] = {kInf, kInf, kInf, kInf};
  std::size_t i = 0;
  if constexpr (V::kWidth == kTreeLanes) {
    V acc = V::splat(kInf);
    for (; i + V::kWidth <= n; i += V::kWidth) {
      acc = V::min(acc, weibull_elem(V::load(u + i), V::load(c_pow + i)));
    }
    V::store(lanes, acc);
  }
  for (; i < n; ++i) {
    // Same operand order as V::min(acc, element) so garbage (NaN) inputs
    // degrade identically on both paths.
    const double s = weibull_elem_1(u[i], c_pow[i]);
    lanes[i % kTreeLanes] = (lanes[i % kTreeLanes] < s)
                                ? lanes[i % kTreeLanes]
                                : s;
  }
  const double m01 = (lanes[0] < lanes[1]) ? lanes[0] : lanes[1];
  const double m23 = (lanes[2] < lanes[3]) ? lanes[2] : lanes[3];
  return (m01 < m23) ? m01 : m23;
}

/// out_i = c_pow_i·(−log(1 − u_i)): weibull_min's elements, stored.
template <class V>
void weibull_powers_impl(const double* u, const double* c_pow, double* out,
                         std::size_t n) {
  static_assert(V::kWidth == 1 || V::kWidth == kTreeLanes);
  std::size_t i = 0;
  if constexpr (V::kWidth == kTreeLanes) {
    for (; i + V::kWidth <= n; i += V::kWidth) {
      V::store(out + i, weibull_elem(V::load(u + i), V::load(c_pow + i)));
    }
  }
  for (; i < n; ++i) out[i] = weibull_elem_1(u[i], c_pow[i]);
}

/// Four truncated Poisson-binomial recurrences, one per lane of the
/// dp[4·k + j] layout. The scalar instantiation walks the lanes one after
/// another; the AVX2 one advances all four together. Either way each
/// lane sees the same multiplies and adds in the same order as the
/// one-point loop documented in kern.hpp.
template <class V>
void poisson_binomial_x4_impl(const double* p_fail,
                              const std::size_t* level_of, std::size_t n,
                              std::size_t cap, double* dp, double* sums) {
  static_assert(V::kWidth == 1 || V::kWidth == kTreeLanes);
  constexpr std::size_t kW = kTreeLanes;
  for (std::size_t lane = 0; lane < kW; lane += V::kWidth) {
    double* d = dp + lane;
    V::store(d, V::splat(1.0));
    for (std::size_t k = 1; k < cap; ++k) V::store(d + k * kW, V::splat(0.0));
    for (std::size_t i = 0; i < n; ++i) {
      const V p = V::load(p_fail + level_of[i] * kW + lane);
      const V q = V::splat(1.0) - p;
      for (std::size_t k = cap - 1; k > 0; --k) {
        V::store(d + k * kW,
                 V::load(d + k * kW) * q + V::load(d + (k - 1) * kW) * p);
      }
      V::store(d, V::load(d) * q + V::splat(0.0));
    }
    V acc = V::splat(0.0);
    for (std::size_t k = 0; k < cap; ++k) acc = acc + V::load(d + k * kW);
    V::store(sums + lane, acc);
  }
}

}  // namespace rota::kern::detail
