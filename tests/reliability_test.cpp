#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "fi/degrade.hpp"
#include "fi/plan.hpp"
#include "kern/kern.hpp"
#include "nn/workloads.hpp"
#include "obs/metrics.hpp"
#include "reliability/array_reliability.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/spares.hpp"
#include "reliability/weibull.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rota::rel {
namespace {

using util::precondition_error;

// -------------------------------------------------------------- weibull ----

TEST(Weibull, BoundaryValues) {
  const Weibull w(3.4, 2.0);
  EXPECT_DOUBLE_EQ(w.reliability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(w.cdf(0.0), 0.0);
  // At t = η, R = e^{-1} regardless of shape.
  EXPECT_NEAR(w.reliability(2.0), std::exp(-1.0), 1e-12);
}

TEST(Weibull, ReliabilityMonotonicallyDecreasing) {
  const Weibull w;
  double prev = 1.0;
  for (double t = 0.1; t < 3.0; t += 0.1) {
    const double r = w.reliability(t);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

TEST(Weibull, CdfComplementsReliability) {
  const Weibull w(2.5, 1.5);
  for (double t : {0.0, 0.3, 1.0, 2.7}) {
    EXPECT_NEAR(w.reliability(t) + w.cdf(t), 1.0, 1e-12);
  }
}

TEST(Weibull, MeanMatchesNumericalIntegrationOfReliability) {
  // MTTF = ∫ R(t) dt — trapezoid over a generous horizon.
  const Weibull w(3.4, 1.0);
  double integral = 0.0;
  const double dt = 1e-4;
  for (double t = 0.0; t < 5.0; t += dt) {
    integral += 0.5 * (w.reliability(t) + w.reliability(t + dt)) * dt;
  }
  EXPECT_NEAR(w.mean(), integral, 1e-3);
}

TEST(Weibull, PdfIsDerivativeOfCdf) {
  const Weibull w(3.4, 1.0);
  const double t = 0.8;
  const double eps = 1e-6;
  const double numeric = (w.cdf(t + eps) - w.cdf(t - eps)) / (2 * eps);
  EXPECT_NEAR(w.pdf(t), numeric, 1e-5);
}

TEST(Weibull, ExponentialSpecialCase) {
  // β = 1 degenerates to the exponential distribution: mean = η.
  const Weibull w(1.0, 3.0);
  EXPECT_NEAR(w.mean(), 3.0, 1e-12);
  EXPECT_NEAR(w.reliability(3.0), std::exp(-1.0), 1e-12);
}

TEST(Weibull, RejectsInvalidParameters) {
  EXPECT_THROW(Weibull(0.0, 1.0), precondition_error);
  EXPECT_THROW(Weibull(1.0, 0.0), precondition_error);
  EXPECT_THROW((void)Weibull().reliability(-1.0), precondition_error);
}

TEST(Weibull, JedecShapeIsPaperValue) { EXPECT_DOUBLE_EQ(kJedecShape, 3.4); }

// ----------------------------------------------------- array reliability ----

TEST(ArrayReliability, SinglePeMatchesWeibull) {
  const Weibull w(3.4, 1.0);
  for (double t : {0.1, 0.5, 1.0, 2.0}) {
    EXPECT_NEAR(array_reliability({1.0}, t), w.reliability(t), 1e-12);
  }
}

TEST(ArrayReliability, SerialChainIsProductOfPeReliabilities) {
  const std::vector<double> alphas{0.2, 0.7, 1.0, 0.5};
  const Weibull w(3.4, 1.0);
  const double t = 0.9;
  double product = 1.0;
  for (double a : alphas) product *= w.reliability(t * a);
  EXPECT_NEAR(array_reliability(alphas, t), product, 1e-12);
}

TEST(ArrayReliability, InactivePesDoNotDegradeReliability) {
  EXPECT_NEAR(array_reliability({1.0, 0.0, 0.0}, 0.7),
              array_reliability({1.0}, 0.7), 1e-12);
}

TEST(ArrayMttf, EqualActivityScalesAsNtoTheMinusOneOverBeta) {
  // n identical serial PEs: MTTF(n) = MTTF(1) / n^{1/β} (Eq. 3).
  const double beta = 3.4;
  const double one = array_mttf({1.0}, beta);
  const std::vector<double> four(4, 1.0);
  EXPECT_NEAR(array_mttf(four, beta), one / std::pow(4.0, 1.0 / beta), 1e-12);
}

TEST(ArrayMttf, MttfMatchesMedianOfReliabilityCurve) {
  // Sanity: R(MTTF) must be a plausible survival probability (the Weibull
  // mean sits near the distribution's bulk for these shapes).
  const std::vector<double> alphas{1.0, 0.5, 0.25};
  const double mttf = array_mttf(alphas);
  const double r_at_mttf = array_reliability(alphas, mttf);
  EXPECT_GT(r_at_mttf, 0.2);
  EXPECT_LT(r_at_mttf, 0.8);
}

TEST(ArrayMttf, RequiresPositiveActivity) {
  EXPECT_THROW((void)array_mttf({0.0, 0.0}), precondition_error);
  EXPECT_THROW((void)array_mttf({}), precondition_error);
}

TEST(Improvement, IdenticalActivityGivesUnity) {
  const std::vector<double> a{3.0, 1.0, 2.0};
  EXPECT_NEAR(lifetime_improvement(a, a), 1.0, 1e-12);
}

TEST(Improvement, ScaleInvariant) {
  const std::vector<double> base{4.0, 0.0, 2.0, 1.0};
  const std::vector<double> wl{2.0, 2.0, 2.0, 1.0};
  std::vector<double> base_scaled;
  std::vector<double> wl_scaled;
  for (double v : base) base_scaled.push_back(v * 1000.0);
  for (double v : wl) wl_scaled.push_back(v * 1000.0);
  EXPECT_NEAR(lifetime_improvement(base, wl),
              lifetime_improvement(base_scaled, wl_scaled), 1e-9);
}

TEST(Improvement, MatchesMttfRatio) {
  const std::vector<double> base{5.0, 0.0, 1.0};
  const std::vector<double> wl{2.0, 2.0, 2.0};
  EXPECT_NEAR(lifetime_improvement(base, wl),
              array_mttf(wl) > 0 ? array_mttf(wl, 3.4) / array_mttf(base, 3.4)
                                 : 0.0,
              1e-12);
}

TEST(Improvement, PerfectLevelingHitsClosedFormBound) {
  // §V-C derivation: m active PEs (α = 1) out of n versus perfectly level
  // activity m/n on all n PEs gives exactly (n/m)^{1 − 1/β}, i.e. the
  // upper bound at utilization m/n.
  const double beta = 3.4;
  const int n = 168;
  const int m = 56;
  std::vector<double> baseline(n, 0.0);
  for (int i = 0; i < m; ++i) baseline[static_cast<std::size_t>(i)] = 1.0;
  const std::vector<double> perfect(
      n, static_cast<double>(m) / static_cast<double>(n));
  const double got = lifetime_improvement(baseline, perfect, beta);
  const double bound =
      perfect_wl_upper_bound(static_cast<double>(m) / n, beta);
  EXPECT_NEAR(got, bound, 1e-9);
}

TEST(Improvement, LevelerNeverBeatsPerfectBound) {
  // Any activity vector with the same total work as the baseline is at
  // most as good as perfectly uniform activity.
  const double beta = 3.4;
  const std::vector<double> baseline{1.0, 1.0, 0.0, 0.0};
  const std::vector<double> imperfect{0.6, 0.6, 0.4, 0.4};
  const std::vector<double> perfect(4, 0.5);
  EXPECT_LE(lifetime_improvement(baseline, imperfect, beta),
            lifetime_improvement(baseline, perfect, beta) + 1e-12);
}

TEST(UpperBound, FullUtilizationLeavesNoHeadroom) {
  EXPECT_NEAR(perfect_wl_upper_bound(1.0), 1.0, 1e-12);
}

TEST(UpperBound, LowerUtilizationGivesMoreHeadroom) {
  double prev = perfect_wl_upper_bound(1.0);
  for (double u = 0.9; u > 0.05; u -= 0.1) {
    const double b = perfect_wl_upper_bound(u);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

TEST(UpperBound, PaperAnchorsRoughMagnitude) {
  // At the paper's mean utilization (55.8%), the ideal headroom is ~1.5x.
  const double b = perfect_wl_upper_bound(0.558);
  EXPECT_GT(b, 1.4);
  EXPECT_LT(b, 1.7);
}

TEST(UpperBound, RejectsOutOfRangeUtilization) {
  EXPECT_THROW((void)perfect_wl_upper_bound(0.0), precondition_error);
  EXPECT_THROW((void)perfect_wl_upper_bound(1.5), precondition_error);
}

// ------------------------------------------------------------ Monte Carlo ----

TEST(MonteCarlo, SinglePeMatchesWeibullMean) {
  const Weibull w(3.4, 2.0);
  const MonteCarloResult mc = monte_carlo_mttf({1.0}, 3.4, 2.0, 20000, 7);
  EXPECT_NEAR(mc.mttf, w.mean(), 4.0 * mc.stderr_ + 1e-12);
  EXPECT_GT(mc.stderr_, 0.0);
}

TEST(MonteCarlo, ValidatesClosedFormArrayMttf) {
  // Heterogeneous activities: the sampled serial-chain MTTF must agree
  // with Eq. 3 within a few standard errors.
  std::vector<double> alphas;
  for (int i = 0; i < 40; ++i)
    alphas.push_back(0.1 + 0.05 * static_cast<double>(i % 9));
  const double closed = array_mttf(alphas);
  const MonteCarloResult mc = monte_carlo_mttf(alphas, kJedecShape, 1.0,
                                               20000, 99);
  EXPECT_NEAR(mc.mttf, closed, 5.0 * mc.stderr_);
}

TEST(MonteCarlo, ValidatesClosedFormReliability) {
  const std::vector<double> alphas{1.0, 0.5, 0.25, 0.75};
  const double t = 0.6;
  const double closed = array_reliability(alphas, t);
  const double sampled = monte_carlo_reliability(alphas, t, kJedecShape, 1.0,
                                                 40000, 3);
  EXPECT_NEAR(sampled, closed, 0.01);
}

TEST(MonteCarlo, DeterministicPerSeed) {
  const std::vector<double> alphas{1.0, 0.3};
  const auto a = monte_carlo_mttf(alphas, 3.4, 1.0, 500, 42);
  const auto b = monte_carlo_mttf(alphas, 3.4, 1.0, 500, 42);
  EXPECT_DOUBLE_EQ(a.mttf, b.mttf);
}

TEST(MonteCarlo, RejectsDegenerateInput) {
  EXPECT_THROW((void)monte_carlo_mttf({}, 3.4), precondition_error);
  EXPECT_THROW((void)monte_carlo_mttf({0.0}, 3.4), precondition_error);
  EXPECT_THROW((void)monte_carlo_mttf({1.0}, 3.4, 1.0, 0), precondition_error);
}

// ---------------------------------------------------- process variation ----

TEST(Variation, ZeroSigmaRecoversEq4) {
  const std::vector<double> base{4.0, 0.0, 2.0, 1.0};
  const std::vector<double> wl{2.0, 2.0, 2.0, 1.0};
  const VariationResult res =
      lifetime_improvement_under_variation(base, wl, kJedecShape, 0.0, 50, 1);
  const double exact = lifetime_improvement(base, wl);
  EXPECT_NEAR(res.mean, exact, 1e-9);
  EXPECT_NEAR(res.p05, exact, 1e-9);
  EXPECT_NEAR(res.p95, exact, 1e-9);
}

TEST(Variation, QuantilesAreOrderedAndSpreadWithSigma) {
  std::vector<double> base(168, 0.0);
  for (int i = 0; i < 56; ++i) base[static_cast<std::size_t>(i)] = 1.0;
  const std::vector<double> wl(168, 56.0 / 168.0);
  const VariationResult narrow =
      lifetime_improvement_under_variation(base, wl, kJedecShape, 0.05, 500,
                                           9);
  const VariationResult wide =
      lifetime_improvement_under_variation(base, wl, kJedecShape, 0.3, 500,
                                           9);
  EXPECT_LE(narrow.p05, narrow.p50);
  EXPECT_LE(narrow.p50, narrow.p95);
  EXPECT_GT(wide.p95 - wide.p05, narrow.p95 - narrow.p05);
  // The median stays near the deterministic value.
  EXPECT_NEAR(narrow.p50, lifetime_improvement(base, wl), 0.1);
}

TEST(Variation, DeterministicPerSeed) {
  const std::vector<double> base{3.0, 1.0};
  const std::vector<double> wl{2.0, 2.0};
  const auto a = lifetime_improvement_under_variation(base, wl, 3.4, 0.2,
                                                      100, 5);
  const auto b = lifetime_improvement_under_variation(base, wl, 3.4, 0.2,
                                                      100, 5);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
}

TEST(Variation, RejectsMismatchedArrays) {
  EXPECT_THROW((void)lifetime_improvement_under_variation({1.0, 1.0}, {1.0}),
               precondition_error);
  EXPECT_THROW(
      (void)lifetime_improvement_under_variation({1.0}, {1.0}, 3.4, -0.1),
      precondition_error);
}

// ----------------------------------------------------------------- spares ----

TEST(Spares, ZeroSparesDegeneratesToSerialChain) {
  const std::vector<double> alphas{1.0, 0.4, 0.7, 0.2};
  for (double t : {0.1, 0.5, 1.0, 2.0}) {
    EXPECT_NEAR(spare_array_reliability(alphas, t, 0),
                array_reliability(alphas, t), 1e-12);
  }
}

TEST(Spares, MoreSparesNeverHurt) {
  const std::vector<double> alphas{1.0, 0.9, 0.8, 0.7, 0.6};
  const double t = 0.8;
  double prev = 0.0;
  for (std::int64_t s = 0; s <= 5; ++s) {
    const double r = spare_array_reliability(alphas, t, s);
    EXPECT_GE(r, prev - 1e-15) << s;
    prev = r;
  }
  // Tolerating every PE's failure means certain survival.
  EXPECT_NEAR(spare_array_reliability(alphas, 10.0, 5), 1.0, 1e-12);
}

TEST(Spares, HomogeneousCaseMatchesBinomial) {
  // n identical PEs with failure probability p: P(<= s failures) is the
  // binomial CDF.
  const int n = 6;
  const double t = 0.9;
  const std::vector<double> alphas(n, 1.0);
  const Weibull w;
  const double p = w.cdf(t);
  auto binom = [&](int k) {
    double c = 1.0;
    for (int i = 0; i < k; ++i)
      c = c * static_cast<double>(n - i) / static_cast<double>(i + 1);
    return c * std::pow(p, k) * std::pow(1.0 - p, n - k);
  };
  for (int s = 0; s <= 3; ++s) {
    double want = 0.0;
    for (int k = 0; k <= s; ++k) want += binom(k);
    EXPECT_NEAR(spare_array_reliability(alphas, t, s), want, 1e-12) << s;
  }
}

TEST(Spares, MttfMatchesMonteCarloWithOneSpare) {
  // Cross-validate the Poisson-binomial + integration path against a
  // direct sampling estimate of the 2nd-failure time.
  const std::vector<double> alphas{1.0, 0.8, 0.6, 0.4};
  const double closed = spare_array_mttf(alphas, 1);
  // Sample: array dies at the 2nd failure.
  util::SplitMix64 rng(11);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    std::vector<double> times;
    for (double a : alphas) {
      const double u = rng.next_double();
      times.push_back((1.0 / a) *
                      std::pow(-std::log(1.0 - u), 1.0 / kJedecShape));
    }
    std::sort(times.begin(), times.end());
    sum += times[1];
  }
  const double sampled = sum / trials;
  EXPECT_NEAR(closed, sampled, 0.02 * closed);
}

TEST(Spares, ToleranceBeyondTheActivitySpreadStillDecays) {
  // The pool outlives the most active PE by far more than 1e9: the
  // horizon search scales with the PE whose failure exhausts the pool.
  const double wide = spare_array_mttf({1.0, 1e-10}, 1);
  const double narrow = spare_array_mttf({1.0, 1e-8}, 1);
  EXPECT_NEAR(wide, 8.98382e9, 1e-5 * wide);
  EXPECT_NEAR(wide / narrow, 100.0, 1e-6 * 100.0);
}

TEST(Spares, PoolLargerThanTheArrayNeedsNoLargerScratch) {
  // The recurrence never counts more failures than active PEs, so a pool
  // of 10^12 spares gives the bits of a pool of 2 instead of allocating
  // 10^12 slots, and the MTTF rejects it before any node is evaluated.
  constexpr std::int64_t kHuge = 1'000'000'000'000;
  for (const double t : {0.3, 1.0, 2.5}) {
    EXPECT_EQ(spare_array_reliability({1.0, 0.5}, t, kHuge),
              spare_array_reliability({1.0, 0.5}, t, 2));
  }
  EXPECT_THROW((void)spare_array_mttf({1.0, 0.5}, kHuge), precondition_error);
}

TEST(Spares, RejectsInvalidArguments) {
  EXPECT_THROW((void)spare_array_reliability({1.0}, 1.0, -1), precondition_error);
  EXPECT_THROW((void)spare_array_reliability({}, 1.0, 0), precondition_error);
  EXPECT_THROW((void)spare_array_mttf({0.0}, 1), precondition_error);
  // A pool that covers every active PE never runs out: inactive PEs never
  // fail, so one spare makes {1, 0, 0} immortal.
  EXPECT_THROW((void)spare_array_mttf({1.0, 0.0, 0.0}, 1), precondition_error);
  EXPECT_THROW((void)spare_array_mttf({1.0, 2.0}, 2), precondition_error);
  // Non-finite inputs are caller errors, not a reliability that fails to
  // decay (an internal invariant) or a silently returned number.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)spare_array_mttf({inf, 1.0}, 1), precondition_error);
  EXPECT_THROW((void)spare_array_mttf({nan, 1.0}, 1), precondition_error);
  EXPECT_THROW((void)spare_array_mttf({1.0, 1.0}, 1, kJedecShape, inf),
               precondition_error);
  EXPECT_THROW((void)spare_array_mttf({1.0, 1.0}, 1, inf), precondition_error);
  EXPECT_THROW((void)spare_array_reliability({1.0}, 1.0, 0, nan),
               precondition_error);
  EXPECT_THROW((void)monte_carlo_spare_mttf({inf, 1.0, 1.0}, 1),
               precondition_error);
  EXPECT_THROW(
      (void)monte_carlo_spare_mttf({1.0, 1.0, 1.0}, 1, kJedecShape, inf),
      precondition_error);
  EXPECT_THROW((void)monte_carlo_spare_mttf({1.0, 1.0, 1.0}, 1, nan),
               precondition_error);
  EXPECT_THROW((void)monte_carlo_mttf({1.0, inf}), precondition_error);
}

// ------------------------------- bit identity with the per-PE algorithms ----

/// The per-PE algorithms the reliability layer used before level grouping
/// and the pivot filter, kept verbatim as references: the optimized forms
/// must reproduce them bit for bit (DESIGN.md §14.6).
namespace per_pe {

double spare_array_reliability(const std::vector<double>& alphas, double t,
                               std::int64_t spares, double beta, double eta) {
  const auto cap = static_cast<std::size_t>(spares) + 1;
  std::vector<double> dp(cap, 0.0);
  dp[0] = 1.0;
  for (double a : alphas) {
    if (a <= 0.0) continue;
    const double p_fail = 1.0 - std::exp(-std::pow(t * a / eta, beta));
    for (std::size_t k = cap; k-- > 0;) {
      const double survive = dp[k] * (1.0 - p_fail);
      const double fail_in = (k > 0) ? dp[k - 1] * p_fail : 0.0;
      dp[k] = survive + fail_in;
    }
  }
  double r = 0.0;
  for (double p : dp) r += p;
  return std::min(1.0, r);
}

double spare_array_mttf(const std::vector<double>& alphas,
                        std::int64_t spares, double beta, double eta) {
  double a_max = 0.0;
  std::vector<double> active;
  for (double a : alphas) {
    a_max = std::max(a_max, a);
    if (a > 0.0) active.push_back(a);
  }
  if (spares >= static_cast<std::int64_t>(active.size()))
    throw util::precondition_error("spares must be fewer than active PEs");
  std::sort(active.begin(), active.end(), std::greater<>());
  const double a_kth = active[static_cast<std::size_t>(spares)];
  double horizon = eta / a_max;
  while (spare_array_reliability(alphas, horizon, spares, beta, eta) > 1e-9) {
    horizon *= 2.0;
    if (!(horizon < 1e9 * eta / a_kth))
      throw util::invariant_error("spare-array reliability does not decay");
  }
  constexpr int kSteps = 2048;
  const double dt = horizon / kSteps;
  double integral = 0.0;
  double prev = 1.0;
  for (int i = 1; i <= kSteps; ++i) {
    const double t = dt * i;
    const double cur = spare_array_reliability(alphas, t, spares, beta, eta);
    integral += 0.5 * (prev + cur) * dt;
    prev = cur;
  }
  return integral;
}

/// Serial monte_carlo_spare_mttf: every PE's log1p, then nth_element, with
/// the chunked substreams folded in ascending chunk order.
MonteCarloResult monte_carlo_spare_mttf(const std::vector<double>& alphas,
                                        std::int64_t spares, double beta,
                                        double eta, std::int64_t trials,
                                        std::uint64_t seed) {
  std::vector<double> c_pow;
  for (double a : alphas) {
    if (a <= 0.0) continue;
    c_pow.push_back(std::min(kern::pow1(eta / a, beta),
                             std::numeric_limits<double>::max()));
  }
  const double p = 1.0 / beta;
  std::vector<double> t_pow(c_pow.size());
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::int64_t begin = 0; begin < trials;
       begin += kMonteCarloChunkTrials) {
    const std::int64_t chunk = begin / kMonteCarloChunkTrials;
    util::SplitMix64 rng(seed ^ static_cast<std::uint64_t>(chunk));
    double chunk_sum = 0.0;
    double chunk_sum_sq = 0.0;
    const std::int64_t end = std::min(trials, begin + kMonteCarloChunkTrials);
    for (std::int64_t t = begin; t < end; ++t) {
      for (std::size_t i = 0; i < c_pow.size(); ++i)
        t_pow[i] = c_pow[i] * -std::log1p(-rng.next_double());
      const auto nth = t_pow.begin() + static_cast<std::ptrdiff_t>(spares);
      std::nth_element(t_pow.begin(), nth, t_pow.end());
      const double sample = kern::pow1(*nth, p);
      chunk_sum += sample;
      chunk_sum_sq += sample * sample;
    }
    sum += chunk_sum;
    sum_sq += chunk_sum_sq;
  }
  MonteCarloResult res;
  res.trials = trials;
  const double n = static_cast<double>(trials);
  res.mttf = sum / n;
  const double var = std::max(0.0, sum_sq / n - res.mttf * res.mttf);
  res.stderr_ = std::sqrt(var / n);
  return res;
}

}  // namespace per_pe

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Profile {
  std::string name;
  std::vector<double> alphas;
};

/// The live set of the degrade-long benchmark's pinned AlexNet plan.
std::vector<double> alexnet_degraded_live_alphas() {
  fi::DegradeOptions o;
  o.iterations = 16384;
  o.spares = 2;
  o.seed = 7;
  o.retire_live_fraction = 0.8;
  o.workload_tag = "AN";
  for (const char* spec : {"pe=5,5@64", "rank=0@192", "weibull=4"})
    o.faults.push_back(fi::parse_hardware_fault(spec).take());
  return fi::run_degraded_lifetime(arch::rota_like(),
                                   nn::workload_by_abbr("AN"), o)
      .live_alphas;
}

std::vector<Profile> bit_identity_profiles() {
  constexpr std::size_t kN = 48;
  std::vector<Profile> out = {{"all-equal", std::vector<double>(kN, 1.0)},
                              {"3-level", {}},
                              {"zeros", {}},
                              {"all-distinct", {}},
                              {"12-decade", {}},
                              {"extremes", {}}};
  for (std::size_t i = 0; i < kN; ++i) {
    const auto x = static_cast<double>(i);
    out[1].alphas.push_back(i % 3 == 0 ? 0.5 : i % 3 == 1 ? 0.8 : 1.0);
    out[2].alphas.push_back(
        i % 4 == 0 ? 0.0 : 0.3 + 0.1 * static_cast<double>(i % 5));
    out[3].alphas.push_back(0.5 + 0.01 * x);
    out[4].alphas.push_back(std::pow(10.0, -12.0 * x / (kN - 1)));
    // 1e-300 clamps (η/α)^β to DBL_MAX. At β = 3.4, 1e300 underflows it
    // to 0, so low order statistics are 0 and no pivot is a normal number.
    const double mid = 0.5 + 0.1 * static_cast<double>(i % 5);
    out[5].alphas.push_back(i % 12 == 0 ? 1e-300 : i % 12 == 6 ? 1e300 : mid);
  }
  out.push_back({"alexnet-degraded", alexnet_degraded_live_alphas()});
  return out;
}

/// Every kernel ISA this binary can dispatch to on this CPU.
std::vector<kern::Isa> available_isas() {
  std::vector<kern::Isa> out = {kern::Isa::kScalar};
  if (kern::avx2_available()) out.push_back(kern::Isa::kAvx2);
  return out;
}

/// Run body once per available ISA, restoring the dispatch afterwards.
template <class Body>
void for_each_isa(const Body& body) {
  const kern::Isa saved = kern::active_isa();
  for (const kern::Isa isa : available_isas()) {
    kern::force_isa(isa);
    SCOPED_TRACE(std::string("isa=") + std::string(kern::isa_name(isa)));
    body();
  }
  kern::force_isa(saved);
}

std::vector<std::int64_t> spare_counts(std::int64_t cap) {
  std::vector<std::int64_t> out;
  for (std::int64_t s : {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
                         std::int64_t{29}, cap})
    out.push_back(std::min(s, cap));
  return out;
}

TEST(BitIdentity, SpareMttfMatchesPerPeClosedForm) {
  const std::vector<Profile> profiles = bit_identity_profiles();
  std::int64_t rejected = 0;
  for_each_isa([&] {
    for (const Profile& prof : profiles) {
      const auto n = static_cast<std::int64_t>(prof.alphas.size());
      std::int64_t active = 0;
      for (double a : prof.alphas) active += a > 0.0 ? 1 : 0;
      for (const std::int64_t spares : spare_counts(n - 1)) {
        for (const double beta : {3.4, 1.0, 0.7}) {
          SCOPED_TRACE(prof.name + " spares=" + std::to_string(spares) +
                       " beta=" + std::to_string(beta));
          if (spares >= active) {
            EXPECT_THROW(
                (void)per_pe::spare_array_mttf(prof.alphas, spares, beta, 1.0),
                util::precondition_error);
            EXPECT_THROW((void)spare_array_mttf(prof.alphas, spares, beta),
                         util::precondition_error);
            ++rejected;
          } else {
            EXPECT_EQ(bits(per_pe::spare_array_mttf(prof.alphas, spares, beta,
                                                    1.0)),
                      bits(spare_array_mttf(prof.alphas, spares, beta)));
          }
          for (const double t : {0.0, 0.3, 1.0, 2.5}) {
            EXPECT_EQ(bits(per_pe::spare_array_reliability(prof.alphas, t,
                                                           spares, beta, 1.0)),
                      bits(spare_array_reliability(prof.alphas, t, spares,
                                                   beta)));
          }
        }
      }
    }
  });
  // Only the zeros profile's full pool (47 spares, 36 active PEs) at each
  // beta exceeds the active count.
  EXPECT_EQ(rejected, 3 * static_cast<std::int64_t>(available_isas().size()));
}

TEST(BitIdentity, SpareMonteCarloMatchesFullSort) {
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  // Two chunks, the second one partial.
  constexpr std::int64_t kTrials = kMonteCarloChunkTrials + 404;
  constexpr std::int64_t kChunks = 2;
  std::int64_t cases = 0;
  std::int64_t full_scans = 0;
  for (const Profile& prof : bit_identity_profiles()) {
    std::int64_t active = 0;
    for (double a : prof.alphas) active += a > 0.0 ? 1 : 0;
    for (const std::int64_t spares : spare_counts(active - 1)) {
      for (const double beta : {3.4, 1.0, 0.7}) {
        const MonteCarloResult want = per_pe::monte_carlo_spare_mttf(
            prof.alphas, spares, beta, 1.0, kTrials, 0x5eed);
        for_each_isa([&] {
          for (const int threads : {1, 3}) {
            SCOPED_TRACE(prof.name + " spares=" + std::to_string(spares) +
                         " beta=" + std::to_string(beta) +
                         " threads=" + std::to_string(threads));
            const std::int64_t before = reg.counter("mc.spare_full_scans");
            const MonteCarloResult got = monte_carlo_spare_mttf(
                prof.alphas, spares, beta, 1.0, kTrials, 0x5eed, threads);
            const std::int64_t scans =
                reg.counter("mc.spare_full_scans") - before;
            EXPECT_EQ(bits(want.mttf), bits(got.mttf));
            EXPECT_EQ(bits(want.stderr_), bits(got.stderr_));
            // The first trial of every chunk has no pivot yet.
            EXPECT_GE(scans, kChunks);
            ++cases;
            full_scans += scans;
          }
        });
      }
    }
  }
  reg.set_enabled(was_enabled);
  // The pivot path carried most trials; the comparison above is not all
  // fallback.
  EXPECT_LT(full_scans, cases * kTrials / 2);
}

TEST(Spares, MttfGrowsWithSpares) {
  // Homogeneous, a zoo live-PE vector and a seeded heterogeneous one.
  std::vector<Profile> profiles = {
      {"homogeneous", std::vector<double>(12, 1.0)},
      {"alexnet-degraded", alexnet_degraded_live_alphas()},
      {"random", {}}};
  util::SplitMix64 rng(2718);
  for (int i = 0; i < 40; ++i)
    profiles[2].alphas.push_back(0.2 + rng.next_double());
  for (const Profile& prof : profiles) {
    SCOPED_TRACE(prof.name);
    const double m0 = spare_array_mttf(prof.alphas, 0);
    EXPECT_NEAR(m0, array_mttf(prof.alphas), 0.01 * m0);  // integration
    double prev = m0;
    for (std::int64_t k = 1; k <= 5; ++k) {
      const double mk = spare_array_mttf(prof.alphas, k);
      EXPECT_GT(mk, prev) << "k=" << k;
      prev = mk;
    }
  }
}

TEST(SpareMonteCarlo, ZeroSparesIsTheSerialChainEstimatorBitForBit) {
  // With no spares the device dies at the first failure, so the spare
  // sampler and the serial-chain sampler estimate the same minimum from
  // the same substreams: equal to the last bit, not just within stderr.
  std::vector<double> random;
  util::SplitMix64 rng(31);
  for (int i = 0; i < 64; ++i) random.push_back(0.1 + rng.next_double());
  constexpr std::int64_t kTrials = kMonteCarloChunkTrials + 404;
  for (const auto& alphas :
       {std::vector<double>(12, 1.0), random, alexnet_degraded_live_alphas()}) {
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0x5eed},
                                     std::uint64_t{0x6d634d54}}) {
      SCOPED_TRACE("n=" + std::to_string(alphas.size()) +
                   " seed=" + std::to_string(seed));
      const MonteCarloResult chain =
          monte_carlo_mttf(alphas, kJedecShape, 1.0, kTrials, seed);
      const MonteCarloResult spare =
          monte_carlo_spare_mttf(alphas, 0, kJedecShape, 1.0, kTrials, seed);
      EXPECT_EQ(bits(chain.mttf), bits(spare.mttf));
      EXPECT_EQ(bits(chain.stderr_), bits(spare.stderr_));
      EXPECT_EQ(chain.trials, spare.trials);
    }
  }
}

TEST(SpareMonteCarlo, CertifiedBracketKeepsExactLogsPerTrialLow) {
  // The sampler ranks kern approximations and calls std::log1p only for
  // the PEs whose bracket overlaps the selected one — about one per
  // trial on the degrade live set. A slide back to per-PE logs fails.
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const std::vector<double> live = alexnet_degraded_live_alphas();
  constexpr std::int64_t kTrials = 2 * kMonteCarloChunkTrials;
  for (const std::int64_t spares : {std::int64_t{29}, std::int64_t{0}}) {
    SCOPED_TRACE("spares=" + std::to_string(spares));
    const std::int64_t before = reg.counter("mc.spare_exact_logs");
    (void)monte_carlo_spare_mttf(live, spares, kJedecShape, 1.0, kTrials, 7,
                                 1);
    const std::int64_t logs = reg.counter("mc.spare_exact_logs") - before;
    EXPECT_GE(logs, kTrials);
    EXPECT_LE(logs, 2 * kTrials);
  }
  reg.set_enabled(was_enabled);
}

// -------------------------------------------------------- spare remapper ----

/// The pool invariant the class checks internally, asserted from outside
/// after every scenario: occupancy states partition the pool.
void expect_pool_consistent(const SpareRemapper& remapper) {
  const auto& s = remapper.stats();
  EXPECT_EQ(s.spares_in_service + s.spares_free + s.spares_dead,
            remapper.spare_count());
  EXPECT_EQ(s.spares_free, remapper.spares_free());
}

TEST(SpareRemapper, AssignsLowestFreeSpareFirst) {
  SpareRemapper remapper(4, 3, 2);
  const auto first = remapper.fault_primary(1, 2);
  EXPECT_TRUE(first.remapped);
  EXPECT_EQ(first.spare, 0);
  const auto second = remapper.fault_primary(3, 0);
  EXPECT_TRUE(second.remapped);
  EXPECT_EQ(second.spare, 1);
  EXPECT_TRUE(remapper.is_dead(1, 2));
  EXPECT_EQ(remapper.spare_of(1, 2), 0);
  EXPECT_EQ(remapper.spare_of(3, 0), 1);
  EXPECT_EQ(remapper.spare_of(0, 0), -1);
  expect_pool_consistent(remapper);
}

TEST(SpareRemapper, ExhaustedPoolLeavesFaultsUnmapped) {
  SpareRemapper remapper(4, 3, 1);
  EXPECT_TRUE(remapper.fault_primary(0, 0).remapped);
  const auto overflow = remapper.fault_primary(1, 1);
  EXPECT_FALSE(overflow.remapped);
  EXPECT_EQ(overflow.spare, -1);
  EXPECT_TRUE(remapper.is_dead(1, 1));
  EXPECT_EQ(remapper.spare_of(1, 1), -1);
  const auto& s = remapper.stats();
  EXPECT_EQ(s.primary_faults, 2);
  EXPECT_EQ(s.remaps, 1);
  EXPECT_EQ(s.unmapped, 1);
  EXPECT_EQ(s.spares_free, 0);
  expect_pool_consistent(remapper);
}

TEST(SpareRemapper, RepeatedFaultOfDeadPrimaryIsANoOp) {
  SpareRemapper remapper(4, 3, 2);
  const auto first = remapper.fault_primary(2, 1);
  const auto again = remapper.fault_primary(2, 1);
  EXPECT_TRUE(again.remapped);
  EXPECT_EQ(again.spare, first.spare);  // current mapping, no new claim
  EXPECT_EQ(remapper.stats().primary_faults, 1);
  EXPECT_EQ(remapper.stats().remaps, 1);
  expect_pool_consistent(remapper);
}

TEST(SpareRemapper, FaultedSpareMigratesItsPrimary) {
  SpareRemapper remapper(4, 3, 2);
  ASSERT_EQ(remapper.fault_primary(0, 0).spare, 0);
  // Kill the in-service spare: the primary migrates to spare 1.
  const auto migrated = remapper.fault_spare(0);
  EXPECT_TRUE(migrated.remapped);
  EXPECT_EQ(migrated.spare, 1);
  EXPECT_EQ(remapper.spare_of(0, 0), 1);
  const auto& s = remapper.stats();
  EXPECT_EQ(s.spare_faults, 1);
  EXPECT_EQ(s.migrations, 1);
  EXPECT_EQ(s.spares_dead, 1);
  EXPECT_EQ(s.spares_in_service, 1);
  expect_pool_consistent(remapper);

  // Kill the replacement too: nowhere left to migrate.
  const auto stranded = remapper.fault_spare(1);
  EXPECT_FALSE(stranded.remapped);
  EXPECT_EQ(remapper.spare_of(0, 0), -1);
  EXPECT_TRUE(remapper.is_dead(0, 0));
  EXPECT_EQ(remapper.stats().unmapped, 1);
  expect_pool_consistent(remapper);
}

TEST(SpareRemapper, FaultOfAFreeOrDeadSpareShrinksOnlyThePool) {
  SpareRemapper remapper(4, 3, 2);
  (void)remapper.fault_spare(1);  // free spare dies: nothing to migrate
  EXPECT_EQ(remapper.stats().migrations, 0);
  EXPECT_EQ(remapper.stats().spares_dead, 1);
  (void)remapper.fault_spare(1);  // dead spare again: no-op
  EXPECT_EQ(remapper.stats().spare_faults, 1);
  // The surviving spare still serves a later fault.
  EXPECT_EQ(remapper.fault_primary(0, 1).spare, 0);
  expect_pool_consistent(remapper);
}

TEST(SpareRemapper, TransientRestoreReturnsTheSpareToThePool) {
  SpareRemapper remapper(4, 3, 1);
  ASSERT_TRUE(remapper.fault_primary(2, 2).remapped);
  remapper.restore_primary(2, 2);
  EXPECT_FALSE(remapper.is_dead(2, 2));
  EXPECT_EQ(remapper.spare_of(2, 2), -1);
  EXPECT_EQ(remapper.stats().restores, 1);
  EXPECT_EQ(remapper.spares_free(), 1);
  // The recycled spare is claimable again.
  EXPECT_EQ(remapper.fault_primary(3, 2).spare, 0);
  remapper.restore_primary(0, 0);  // restoring a live PE is a no-op
  EXPECT_EQ(remapper.stats().restores, 1);
  expect_pool_consistent(remapper);
}

TEST(SpareRemapper, RejectsOutOfRangeArguments) {
  SpareRemapper remapper(4, 3, 1);
  EXPECT_THROW((void)remapper.fault_primary(4, 0), precondition_error);
  EXPECT_THROW((void)remapper.fault_primary(0, 3), precondition_error);
  EXPECT_THROW((void)remapper.fault_primary(-1, 0), precondition_error);
  EXPECT_THROW((void)remapper.fault_spare(1), precondition_error);
  EXPECT_THROW(remapper.restore_primary(9, 9), precondition_error);
  EXPECT_THROW(SpareRemapper(0, 3, 1), precondition_error);
}

}  // namespace
}  // namespace rota::rel
