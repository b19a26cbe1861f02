#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file kern.hpp
/// Vectorized math kernels with a bit-compatible scalar fallback
/// (DESIGN.md §14). The hot loops of the reliability model and the wear
/// tracker run through this layer: an AVX2 translation unit and a plain
/// scalar one are compiled from the SAME templated core (kern_math.hpp),
/// so both execute the identical IEEE-754 operation sequence per element
/// and the identical 4-lane reduction tree per batch — the results are
/// bit-identical by construction, not by tolerance. Which path runs is
/// chosen once at startup: CMake's ROTA_SIMD option gates what is
/// compiled in, CPUID gates what the machine supports, and the ROTA_SIMD
/// environment variable (auto/avx2/off) can narrow the runtime choice
/// without a rebuild. Run manifests record both decisions as
/// kern.simd_compiled / kern.simd_active.
///
/// Floating-point batch kernels use log-domain arithmetic internally
/// (x^p = exp(p·log x)) with Cephes-style rational approximations whose
/// accuracy is a few ulp — callers that previously used std::pow see
/// value changes at that level, which every consumer tolerance already
/// covers. Integer kernels are exact.

namespace rota::kern {

/// Instruction-set implementations a binary can carry.
enum class Isa {
  kScalar,  ///< portable scalar core, always compiled
  kAvx2,    ///< 4-wide AVX2 core (no FMA), compiled when ROTA_SIMD allows
};

[[nodiscard]] std::string_view isa_name(Isa isa);

/// SIMD mode this binary was built with: "avx2" when the AVX2 translation
/// unit was compiled in (ROTA_SIMD=auto/avx2), "off" otherwise.
[[nodiscard]] std::string_view compiled_simd();

/// True when the running CPU reports AVX2 support.
[[nodiscard]] bool cpu_has_avx2();

/// True when the AVX2 path is both compiled in and supported by the CPU.
[[nodiscard]] bool avx2_available();

/// The implementation batch kernels currently dispatch to.
[[nodiscard]] Isa active_isa();

/// Override the dispatch decision (tests compare both paths in one
/// process; the bit-identity suite relies on this).
/// \pre the requested ISA is available in this binary on this CPU.
void force_isa(Isa isa);

// ---------------------------------------------------------------- batches
// All batch kernels follow the reduction-tree contract of DESIGN.md §14:
// element i feeds accumulator lane i mod 4 in ascending index order, and
// the final fold is (l0 + l1) + (l2 + l3) for sums and the analogous
// min-fold for minima, independent of the active ISA.

/// Σ x_i^p over n elements, computed as exp(p·log x_i) with x == 0
/// contributing exactly 0. Values must be non-negative and not NaN
/// (negative inputs would take the log of a negative number).
/// \pre p > 0, x non-null when n > 0.
[[nodiscard]] double sum_pow(const double* x, double p, std::size_t n);

/// Σ exp(m·(a_i + w_i)) over n elements. a_i == -inf (the log of a zero
/// activity) contributes exactly 0 for m > 0.
/// \pre a and w non-null when n > 0.
[[nodiscard]] double sum_exp_affine(const double* a, const double* w,
                                    double m, std::size_t n);

/// Weibull first-failure reduction in the β-power domain:
///   min_i ( c_pow_i · (−log(1 − u_i)) )
/// with u_i in [0, 1) and c_pow_i = (η/α_i)^β ≥ 0, finite, precomputed by
/// the caller (clamp an overflowed power to DBL_MAX). Because x ↦ x^{1/β}
/// is monotone, the caller recovers the sampled failure time as
/// pow1(result, 1/β) — one log per element here instead of the two a
/// log-domain min would spend. u_i == 0 contributes exactly 0 (a zero
/// failure time), matching the inverse-CDF sampler's u = 0 draw.
/// Returns +inf when n == 0.
/// \pre u and c_pow non-null when n > 0, every u_i in [0, 1), every
///      c_pow_i finite and non-negative.
[[nodiscard]] double weibull_min(const double* u, const double* c_pow,
                                 std::size_t n);

/// The same β-power-domain failure times without the reduction: writes
/// out_i = c_pow_i · (−log(1 − u_i)), the exact element value weibull_min
/// takes the minimum of. Element-wise, so the scalar and AVX2 paths agree
/// bit for bit with no tree contract. rel::monte_carlo_spare_mttf ranks
/// these approximations before it computes any exact log1p
/// (DESIGN.md §14.6).
/// \pre u, c_pow and out non-null when n > 0, with the domain of
///      weibull_min; out does not overlap u or c_pow.
void weibull_powers(const double* u, const double* c_pow, double* out,
                    std::size_t n);

/// The truncated Poisson-binomial recurrence at four independent
/// evaluation points, one per lane. Lane j reads PE i's failure
/// probability from p_fail[4·level_of[i] + j] and runs, over i in
/// ascending order,
///   dp[k] ← dp[k]·(1 − p) + dp[k−1]·p   for k = cap−1 … 1,
///   dp[0] ← dp[0]·(1 − p) + 0
/// from dp = {1, 0, …, 0}, then writes sums[j] = Σ_{k<cap} dp[k] summed in
/// ascending k from 0. These are exactly the IEEE operations of a plain
/// one-point loop in the same order (no FMA), so every lane reproduces a
/// scalar evaluation bit for bit on either ISA. `dp` is caller scratch of
/// 4·cap doubles, laid out dp[4·k + j].
/// \pre cap >= 1; p_fail, dp and sums non-null; level_of non-null when
///      n > 0 and every level_of[i] indexes into p_fail.
void poisson_binomial_x4(const double* p_fail, const std::size_t* level_of,
                         std::size_t n, std::size_t cap, double* dp,
                         double* sums);

/// dst_i += src_i over n elements (exact; caller guarantees no overflow).
void add_i64(std::int64_t* dst, const std::int64_t* src, std::size_t n);

/// dst_i += value over n elements (exact; caller guarantees no overflow).
void add_scalar_i64(std::int64_t* dst, std::int64_t value, std::size_t n);

/// Extrema and sum of an int64 batch (min/max/sum are order-free, so this
/// is exact and trivially ISA-independent).
struct I64Stats {
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t sum = 0;
};

/// Min, max and sum over n elements. The sum must fit int64 (the usage
/// tracker guarantees this via its overflow-checked allocation total).
/// \pre n > 0 and x non-null.
[[nodiscard]] I64Stats minmax_sum_i64(const std::int64_t* x, std::size_t n);

// --------------------------------------------------------- element ops
// Scalar instantiations of the same core the batch kernels run — never
// dispatched, so every build produces the same bits. Use these (not
// std::log/exp/pow) wherever a result must stay bit-identical to the
// batch kernels across ROTA_SIMD modes.

/// log(x) for x >= 0 (x == 0 gives -inf; denormals are exact).
[[nodiscard]] double log1(double x);

/// exp(x), flushing to 0 below -708 and to +inf above 709.
[[nodiscard]] double exp1(double x);

/// x^p for x >= 0 as exp(p·log x); x == 0 gives 0 for p > 0.
[[nodiscard]] double pow1(double x, double p);

namespace detail {

/// Function-pointer table one ISA translation unit fills in.
struct Kernels {
  double (*sum_pow)(const double*, double, std::size_t);
  double (*sum_exp_affine)(const double*, const double*, double, std::size_t);
  double (*weibull_min)(const double*, const double*, std::size_t);
  void (*weibull_powers)(const double*, const double*, double*, std::size_t);
  void (*poisson_binomial_x4)(const double*, const std::size_t*, std::size_t,
                              std::size_t, double*, double*);
  void (*add_i64)(std::int64_t*, const std::int64_t*, std::size_t);
  void (*add_scalar_i64)(std::int64_t*, std::int64_t, std::size_t);
  I64Stats (*minmax_sum_i64)(const std::int64_t*, std::size_t);
};

[[nodiscard]] const Kernels& scalar_kernels();
/// Defined only when the AVX2 TU is compiled in (ROTA_KERN_HAVE_AVX2).
[[nodiscard]] const Kernels& avx2_kernels();

}  // namespace detail

}  // namespace rota::kern
