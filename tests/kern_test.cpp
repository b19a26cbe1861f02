/// Tests of the vectorized-kernel layer (src/kern, DESIGN.md §14):
/// accuracy of the Cephes log/exp cores against libm, special-value
/// handling, the 4-lane reduction-tree contract, and — the load-bearing
/// property — bit-identity between the scalar and AVX2 paths over sweeps
/// that include denormal inputs and extreme Weibull shapes.

#include "kern/kern.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/manifest.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using rota::kern::Isa;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Pin the dispatch to one ISA for a scope, restoring the default after.
class IsaGuard {
 public:
  explicit IsaGuard(Isa isa) : saved_(rota::kern::active_isa()) {
    rota::kern::force_isa(isa);
  }
  ~IsaGuard() { rota::kern::force_isa(saved_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  Isa saved_;
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

double rel_err(double got, double want) {
  if (want == 0.0) return std::abs(got);
  return std::abs((got - want) / want);
}

// ---------------------------------------------------------------- element ops

TEST(KernElementOps, LogMatchesLibmToAFewUlp) {
  rota::util::SplitMix64 rng(0x6b65726e);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over the full normal range plus a denormal band.
    const double ex = rng.next_double() * 1400.0 - 1075.0;
    const double x = std::exp2(ex) * (0.5 + rng.next_double());
    if (x == 0.0 || std::isinf(x)) continue;
    const double got = rota::kern::log1(x);
    const double want = std::log(x);
    // Near x == 1 the log is ~0 and relative error blows up on the exact
    // zero crossing; bound the absolute error there instead.
    if (std::abs(want) < 1e-3) {
      EXPECT_NEAR(got, want, 1e-16) << "x=" << x;
    } else {
      EXPECT_LT(rel_err(got, want), 1e-13) << "x=" << x;
    }
  }
}

TEST(KernElementOps, LogSpecialValues) {
  EXPECT_EQ(rota::kern::log1(0.0), -kInf);
  EXPECT_EQ(rota::kern::log1(1.0), 0.0);
  // Smallest positive denormal: log(2^-1074) = -1074·ln2.
  const double tiny = std::bit_cast<double>(std::uint64_t{1});
  EXPECT_LT(rel_err(rota::kern::log1(tiny), std::log(tiny)), 1e-13);
  EXPECT_LT(rel_err(rota::kern::log1(std::numeric_limits<double>::min()),
                    std::log(std::numeric_limits<double>::min())),
            1e-13);
}

TEST(KernElementOps, ExpMatchesLibmToAFewUlp) {
  rota::util::SplitMix64 rng(0x6578702e);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_double() * 1400.0 - 700.0;
    const double got = rota::kern::exp1(x);
    const double want = std::exp(x);
    EXPECT_LT(rel_err(got, want), 1e-13) << "x=" << x;
  }
}

TEST(KernElementOps, ExpSaturation) {
  EXPECT_EQ(rota::kern::exp1(-kInf), 0.0);
  EXPECT_EQ(rota::kern::exp1(kInf), kInf);
  EXPECT_EQ(rota::kern::exp1(-1000.0), 0.0);
  EXPECT_EQ(rota::kern::exp1(1000.0), kInf);
  EXPECT_EQ(rota::kern::exp1(0.0), 1.0);
}

TEST(KernElementOps, PowMatchesLibm) {
  rota::util::SplitMix64 rng(0x706f7731);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.next_double() * 100.0 + 1e-6;
    const double p = rng.next_double() * 20.0 + 0.05;
    EXPECT_LT(rel_err(rota::kern::pow1(x, p), std::pow(x, p)), 1e-12)
        << "x=" << x << " p=" << p;
  }
  EXPECT_EQ(rota::kern::pow1(0.0, 2.5), 0.0);
  EXPECT_EQ(rota::kern::pow1(1.0, 7.0), 1.0);
}

// ------------------------------------------------------------ batch kernels

TEST(KernBatch, SumPowFollowsReductionTreeContract) {
  // The documented contract: element i feeds lane i mod 4, final fold is
  // (l0 + l1) + (l2 + l3). Recompute by hand from the element op.
  std::vector<double> x = {1.5, 2.25, 0.75, 3.5, 4.25, 0.0, 1.0e-3};
  const double p = 2.75;
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < x.size(); ++i) {
    lanes[i % 4] += rota::kern::pow1(x[i], p);
  }
  const double want = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  EXPECT_EQ(bits_of(rota::kern::sum_pow(x.data(), p, x.size())),
            bits_of(want));
}

TEST(KernBatch, SumPowMatchesStdPowReference) {
  rota::util::SplitMix64 rng(0x73756d70);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t n = 1 + rng.next_below(200);
    const double p = 0.25 + rng.next_double() * 10.0;
    std::vector<double> x(n);
    double want = 0.0;
    for (auto& v : x) {
      v = rng.next_double() * 8.0;
      want += std::pow(v, p);
    }
    const double got = rota::kern::sum_pow(x.data(), p, n);
    EXPECT_LT(rel_err(got, want), 1e-12) << "n=" << n << " p=" << p;
  }
}

TEST(KernBatch, SumExpAffineMatchesReference) {
  rota::util::SplitMix64 rng(0x73756d65);
  const std::size_t n = 137;
  std::vector<double> a(n);
  std::vector<double> w(n);
  const double m = 3.25;
  double want = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.next_double() * 4.0 - 2.0;
    w[i] = rng.next_double() * 0.5 - 0.25;
    want += std::exp(m * (a[i] + w[i]));
  }
  EXPECT_LT(rel_err(rota::kern::sum_exp_affine(a.data(), w.data(), m, n),
                    want),
            1e-12);
  // -inf activity (log of zero) contributes exactly nothing.
  a[0] = -kInf;
  const double got = rota::kern::sum_exp_affine(a.data(), w.data(), m, n);
  EXPECT_TRUE(std::isfinite(got));
}

TEST(KernBatch, WeibullMinMatchesPowSampler) {
  // pow1(weibull_min, 1/beta) must equal min_i c_i·(−log(1−u_i))^{1/beta}
  // to reference accuracy (the sampler it replaces in rel::monte_carlo);
  // the min commutes with the monotone map x^{1/beta}.
  rota::util::SplitMix64 rng(0x77656962);
  const std::size_t n = 53;
  std::vector<double> u(n);
  std::vector<double> c_pow(n);
  std::vector<double> c(n);
  const double beta = 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.next_double();
    c[i] = 0.125 + rng.next_double() * 4.0;
    c_pow[i] = std::pow(c[i], beta);
  }
  double want = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    want = std::min(want, c[i] * std::pow(-std::log(1.0 - u[i]), 1.0 / beta));
  }
  const double got = rota::kern::pow1(
      rota::kern::weibull_min(u.data(), c_pow.data(), n), 1.0 / beta);
  EXPECT_LT(rel_err(got, want), 1e-12);
}

TEST(KernBatch, WeibullMinZeroDrawGivesZeroSample) {
  // u == 0 means −log(1−u) == 0: a zero failure time, like the pow
  // sampler produced — even against a DBL_MAX-clamped scale factor.
  const double u[] = {0.0, 0.5};
  const double c_pow[] = {std::numeric_limits<double>::max(), 1.0};
  const double m = rota::kern::weibull_min(u, c_pow, 2);
  EXPECT_EQ(m, 0.0);
  EXPECT_EQ(rota::kern::pow1(m, 0.5), 0.0);
}

TEST(KernBatch, WeibullPowersAreWeibullMinsElements) {
  rota::util::SplitMix64 rng(0x706f7773);
  const std::size_t n = 61;
  std::vector<double> u(n);
  std::vector<double> c_pow(n);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.next_double();
    c_pow[i] = 0.25 + rng.next_double() * 8.0;
  }
  rota::kern::weibull_powers(u.data(), c_pow.data(), out.data(), n);
  double least = kInf;
  for (std::size_t i = 0; i < n; ++i) least = std::min(least, out[i]);
  EXPECT_EQ(bits_of(least),
            bits_of(rota::kern::weibull_min(u.data(), c_pow.data(), n)));
}

TEST(KernBatch, WeibullPowersStayWithinTheBracketOfLog1p) {
  // rel::monte_carlo_spare_mttf certifies its order statistic with a
  // bracket of relative half-width δ = 2^-40 around each approximation
  // of c·(−log1p(−u)) (DESIGN.md §14.6). Hold the observed gap 256×
  // inside it, over the sampler's own u grid (multiples of 2^-53) and
  // the reduction's edges.
  constexpr double kDelta = 0x1p-40;
  const double sqrt_half = std::sqrt(0.5);
  std::vector<double> u = {0.0,
                           0x1p-53,
                           std::nextafter(sqrt_half, 0.0),
                           sqrt_half,
                           std::nextafter(sqrt_half, 1.0),
                           1.0 - sqrt_half,
                           0.5,
                           1.0 - 0x1p-53};
  rota::util::SplitMix64 rng(0x6c6f6731);
  for (int i = 0; i < 1'000'000; ++i) u.push_back(rng.next_double());
  std::vector<double> out(u.size());
  double worst = 0.0;
  for (const double c : {1.0, 0.3, 7.7e-5, 1.9e12}) {
    const std::vector<double> c_pow(u.size(), c);
    rota::kern::weibull_powers(u.data(), c_pow.data(), out.data(), u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
      const double exact = c * -std::log1p(-u[i]);
      worst = std::max(worst, rel_err(out[i], exact));
    }
  }
  EXPECT_LE(worst, kDelta / 256) << "worst relative gap " << worst;
}

TEST(KernBatch, PoissonBinomialX4MatchesTheOnePointLoop) {
  // Each lane must reproduce the plain one-point recurrence bit for bit.
  rota::util::SplitMix64 rng(0x70626e34);
  const std::size_t levels = 9;
  std::vector<double> p_fail(4 * levels);
  for (auto& p : p_fail) p = rng.next_double();
  p_fail[0] = 0.0;  // certain survival and certain failure
  p_fail[5] = 1.0;
  std::vector<std::size_t> level_of(37);
  for (auto& l : level_of) l = rng.next_below(levels);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{3},
                                std::size_t{30}, std::size_t{40}}) {
    std::vector<double> dp(4 * cap);
    double sums[4];
    rota::kern::poisson_binomial_x4(p_fail.data(), level_of.data(),
                                    level_of.size(), cap, dp.data(), sums);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      std::vector<double> ref(cap, 0.0);
      ref[0] = 1.0;
      for (const std::size_t l : level_of) {
        const double p = p_fail[4 * l + lane];
        for (std::size_t k = cap; k-- > 0;) {
          const double survive = ref[k] * (1.0 - p);
          const double fail_in = (k > 0) ? ref[k - 1] * p : 0.0;
          ref[k] = survive + fail_in;
        }
      }
      double want = 0.0;
      for (const double v : ref) want += v;
      EXPECT_EQ(bits_of(sums[lane]), bits_of(want))
          << "cap " << cap << " lane " << lane;
    }
  }
}

TEST(KernBatch, EmptyBatches) {
  EXPECT_EQ(rota::kern::sum_pow(nullptr, 1.0, 0), 0.0);
  EXPECT_EQ(rota::kern::sum_exp_affine(nullptr, nullptr, 1.0, 0), 0.0);
  EXPECT_EQ(rota::kern::weibull_min(nullptr, nullptr, 0), kInf);
}

TEST(KernBatch, Int64Kernels) {
  std::vector<std::int64_t> dst = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::int64_t> src = {10, 20, 30, 40, 50, 60, 70};
  rota::kern::add_i64(dst.data(), src.data(), dst.size());
  EXPECT_EQ(dst, (std::vector<std::int64_t>{11, 22, 33, 44, 55, 66, 77}));
  rota::kern::add_scalar_i64(dst.data(), -11, dst.size());
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[6], 66);
  const auto s = rota::kern::minmax_sum_i64(dst.data(), dst.size());
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 66);
  EXPECT_EQ(s.sum, 0 + 11 + 22 + 33 + 44 + 55 + 66);
}

// ------------------------------------------------------------------ dispatch

TEST(KernDispatch, CompiledModeIsReported) {
  const auto mode = rota::kern::compiled_simd();
  EXPECT_TRUE(mode == "avx2" || mode == "off") << mode;
  if (mode == "off") {
    EXPECT_FALSE(rota::kern::avx2_available());
  }
}

TEST(KernDispatch, ForceScalarAlwaysWorks) {
  const IsaGuard guard(Isa::kScalar);
  EXPECT_EQ(rota::kern::active_isa(), Isa::kScalar);
  EXPECT_EQ(rota::kern::isa_name(rota::kern::active_isa()), "scalar");
}

TEST(KernDispatch, ForcingUnavailableAvx2Throws) {
  if (rota::kern::avx2_available()) GTEST_SKIP() << "AVX2 available here";
  EXPECT_THROW(rota::kern::force_isa(Isa::kAvx2),
               rota::util::precondition_error);
}

TEST(KernDispatch, ManifestRecordsSimdFields) {
  const auto manifest = rota::obs::make_run_manifest("kern_test", "");
  ASSERT_TRUE(manifest.extra.count("kern.simd_compiled"));
  ASSERT_TRUE(manifest.extra.count("kern.simd_active"));
  EXPECT_EQ(manifest.extra.at("kern.simd_compiled"),
            rota::kern::compiled_simd());
  EXPECT_EQ(manifest.extra.at("kern.simd_active"),
            rota::kern::isa_name(rota::kern::active_isa()));
}

// ------------------------------------------------------------- bit identity

/// The tentpole contract: with AVX2 available, every batch kernel returns
/// the exact same bits as the scalar path — including denormal inputs,
/// extreme Weibull shapes and saturating magnitudes.
class KernBitIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!rota::kern::avx2_available()) {
      GTEST_SKIP() << "AVX2 path not compiled in or not supported";
    }
  }

  template <typename Fn>
  void expect_same_bits(const Fn& run, const char* what) {
    double scalar_result = 0.0;
    double avx2_result = 0.0;
    {
      const IsaGuard guard(Isa::kScalar);
      scalar_result = run();
    }
    {
      const IsaGuard guard(Isa::kAvx2);
      avx2_result = run();
    }
    EXPECT_EQ(bits_of(scalar_result), bits_of(avx2_result))
        << what << ": scalar=" << scalar_result << " avx2=" << avx2_result;
  }
};

TEST_F(KernBitIdentity, SumPowSweep) {
  rota::util::SplitMix64 rng(0x62697431);
  // Shapes from gentle to extreme: beta = 50 drives large powers toward
  // saturation, beta = 0.02 (p = 50 on the closed form's 1/beta) the
  // other way.
  const double exponents[] = {0.5, 1.0, 2.0, 3.3, 50.0, 0.02};
  for (const double p : exponents) {
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                          std::size_t{7}, std::size_t{64},
                          std::size_t{169}}) {
      std::vector<double> x(n);
      for (auto& v : x) {
        const std::uint64_t kind = rng.next_below(8);
        if (kind == 0) {
          v = 0.0;
        } else if (kind == 1) {
          v = 1e-310 * (1.0 + rng.next_double());  // denormal
        } else if (kind == 2) {
          v = 1e300 * rng.next_double();
        } else {
          v = rng.next_double() * 16.0;
        }
      }
      expect_same_bits(
          [&] { return rota::kern::sum_pow(x.data(), p, n); }, "sum_pow");
    }
  }
}

TEST_F(KernBitIdentity, SumExpAffineSweep) {
  rota::util::SplitMix64 rng(0x62697432);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 1 + rng.next_below(170);
    const double m = (rep % 2 == 0) ? 0.5 + rng.next_double() * 4.0 : 50.0;
    std::vector<double> a(n);
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = (rng.next_below(10) == 0) ? -kInf
                                       : rng.next_double() * 20.0 - 10.0;
      w[i] = rng.next_double() * 2.0 - 1.0;
    }
    expect_same_bits(
        [&] { return rota::kern::sum_exp_affine(a.data(), w.data(), m, n); },
        "sum_exp_affine");
  }
}

TEST_F(KernBitIdentity, WeibullMinSweep) {
  rota::util::SplitMix64 rng(0x62697433);
  // Scale factors spanning the shapes the sampler precomputes: (η/α)^β
  // from deep underflow territory up to the DBL_MAX clamp.
  const double scales[] = {1e-300, 1e-8, 1.0, 7.7, 1e12,
                           std::numeric_limits<double>::max()};
  for (const double scale : scales) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::size_t n = 1 + rng.next_below(170);
      std::vector<double> u(n);
      std::vector<double> c_pow(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Include the u == 0 edge (zero sample) and u → 1 extremes.
        const std::uint64_t kind = rng.next_below(16);
        if (kind == 0) {
          u[i] = 0.0;
        } else if (kind == 1) {
          u[i] = 1.0 - 0x1p-53;
        } else {
          u[i] = rng.next_double();
        }
        c_pow[i] = std::min(scale * (0.5 + rng.next_double()),
                            std::numeric_limits<double>::max());
      }
      expect_same_bits(
          [&] { return rota::kern::weibull_min(u.data(), c_pow.data(), n); },
          "weibull_min");
    }
  }
}

TEST_F(KernBitIdentity, WeibullPowersSweep) {
  rota::util::SplitMix64 rng(0x62697436);
  const double scales[] = {1e-300, 1e-8, 1.0, 7.7, 1e12,
                           std::numeric_limits<double>::max()};
  for (const double scale : scales) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{7},
                                std::size_t{164}}) {
      std::vector<double> u(n);
      std::vector<double> c_pow(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t kind = rng.next_below(16);
        u[i] = kind == 0 ? 0.0 : kind == 1 ? 1.0 - 0x1p-53 : rng.next_double();
        c_pow[i] = std::min(scale * (0.5 + rng.next_double()),
                            std::numeric_limits<double>::max());
      }
      std::vector<double> scalar_out(n);
      std::vector<double> avx2_out(n);
      {
        const IsaGuard guard(Isa::kScalar);
        rota::kern::weibull_powers(u.data(), c_pow.data(), scalar_out.data(),
                                   n);
      }
      {
        const IsaGuard guard(Isa::kAvx2);
        rota::kern::weibull_powers(u.data(), c_pow.data(), avx2_out.data(), n);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits_of(scalar_out[i]), bits_of(avx2_out[i]))
            << "scale " << scale << " n " << n << " element " << i;
      }
    }
  }
}

TEST_F(KernBitIdentity, PoissonBinomialX4Sweep) {
  rota::util::SplitMix64 rng(0x62697437);
  for (int rep = 0; rep < 12; ++rep) {
    const std::size_t levels = 1 + rng.next_below(40);
    const std::size_t n = rng.next_below(170);
    const std::size_t cap = 1 + rng.next_below(48);
    std::vector<double> p_fail(4 * levels);
    for (auto& p : p_fail) {
      // Include exact 0/1 and denormal probabilities.
      const std::uint64_t kind = rng.next_below(10);
      p = kind == 0 ? 0.0 : kind == 1 ? 1.0 : kind == 2 ? 1e-310
                                                         : rng.next_double();
    }
    std::vector<std::size_t> level_of(n);
    for (auto& l : level_of) l = rng.next_below(levels);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      expect_same_bits(
          [&] {
            std::vector<double> dp(4 * cap);
            double sums[4];
            rota::kern::poisson_binomial_x4(p_fail.data(), level_of.data(), n,
                                            cap, dp.data(), sums);
            return sums[lane];
          },
          "poisson_binomial_x4");
    }
  }
}

TEST_F(KernBitIdentity, ElementOpsAreDispatchFree) {
  // log1/exp1/pow1 never dispatch: forcing either ISA must not change
  // their bits (they are the scalar core by definition).
  rota::util::SplitMix64 rng(0x62697434);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double() * 100.0;
    expect_same_bits([&] { return rota::kern::log1(x + 1e-9); }, "log1");
    expect_same_bits([&] { return rota::kern::exp1(x - 50.0); }, "exp1");
  }
}

TEST_F(KernBitIdentity, Int64Sweep) {
  rota::util::SplitMix64 rng(0x62697435);
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{128},
                        std::size_t{1001}}) {
    std::vector<std::int64_t> a(n);
    std::vector<std::int64_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::int64_t>(rng.next_below(1u << 30));
      b[i] = static_cast<std::int64_t>(rng.next_below(1u << 30)) - (1 << 29);
    }
    std::vector<std::int64_t> scalar_dst = a;
    std::vector<std::int64_t> avx2_dst = a;
    rota::kern::I64Stats scalar_stats;
    rota::kern::I64Stats avx2_stats;
    {
      const IsaGuard guard(Isa::kScalar);
      rota::kern::add_i64(scalar_dst.data(), b.data(), n);
      rota::kern::add_scalar_i64(scalar_dst.data(), 17, n);
      scalar_stats = rota::kern::minmax_sum_i64(scalar_dst.data(), n);
    }
    {
      const IsaGuard guard(Isa::kAvx2);
      rota::kern::add_i64(avx2_dst.data(), b.data(), n);
      rota::kern::add_scalar_i64(avx2_dst.data(), 17, n);
      avx2_stats = rota::kern::minmax_sum_i64(avx2_dst.data(), n);
    }
    EXPECT_EQ(scalar_dst, avx2_dst);
    EXPECT_EQ(scalar_stats.min, avx2_stats.min);
    EXPECT_EQ(scalar_stats.max, avx2_stats.max);
    EXPECT_EQ(scalar_stats.sum, avx2_stats.sum);
  }
}

}  // namespace
