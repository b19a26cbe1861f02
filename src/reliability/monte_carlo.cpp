#include "reliability/monte_carlo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "kern/kern.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace rota::rel {

namespace {

void validate_inputs(const std::vector<double>& alphas, double beta,
                     double eta, std::int64_t trials) {
  ROTA_REQUIRE(!alphas.empty(), "activity vector must be non-empty");
  ROTA_REQUIRE(std::isfinite(beta) && std::isfinite(eta) && beta > 0.0 &&
                   eta > 0.0,
               "beta and eta must be positive and finite");
  ROTA_REQUIRE(trials >= 1, "need at least one trial");
  bool any_positive = false;
  for (double a : alphas) {
    ROTA_REQUIRE(std::isfinite(a) && a >= 0.0,
                 "activity must be finite and non-negative");
    any_positive = any_positive || a > 0.0;
  }
  ROTA_REQUIRE(any_positive, "at least one PE must have positive activity");
}

/// Report one completed sampling batch: sample count, batch wall time and
/// the derived throughput gauge. One enabled() branch when obs is off.
void report_batch(std::string_view kind, std::int64_t trials,
                  std::chrono::steady_clock::time_point t0) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled()) return;
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - t0)
          .count();
  reg.add("mc.samples", trials);
  reg.observe(std::string(kind) + "_seconds", secs);
  if (secs > 0.0)
    reg.gauge(std::string(kind) + "_samples_per_sec",
              static_cast<double>(trials) / secs);
}

/// The RNG substream of one chunk. XOR keeps chunk 0 on the historical
/// single-stream seed; splitmix64's per-step avalanche decorrelates the
/// neighboring seeds (its increment constant is odd, so nearby states
/// diverge after one step).
util::SplitMix64 chunk_rng(std::uint64_t seed, std::int64_t chunk) {
  return util::SplitMix64(seed ^ static_cast<std::uint64_t>(chunk));
}

/// [begin, end) bounds of chunk c in a `trials`-long run.
struct ChunkBounds {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};
ChunkBounds chunk_bounds(std::int64_t chunk, std::int64_t chunk_trials,
                         std::int64_t trials) {
  const std::int64_t begin = chunk * chunk_trials;
  // trials - begin, not begin + chunk_trials: exact up to INT64_MAX.
  return {begin, begin + std::min(chunk_trials, trials - begin)};
}

/// Per-call state of the vectorized failure sampler. The array failure
/// time min_i (η/α_i)·(−ln U_i)^{1/β} is computed in the β-power domain:
/// min_i (η/α_i)^β·(−log(1−U_i)), then one pow1(·, 1/β) per trial —
/// x ↦ x^{1/β} is monotone, so the min commutes with it. That leaves a
/// single vectorized log per PE draw (kern::weibull_min). Inactive PEs
/// (α == 0) never wear out; they are dropped up front, which keeps the
/// RNG stream identical to the historical sampler (it skipped them
/// without drawing).
struct FailureSampler {
  std::vector<double> c_pow;  ///< (η/α_i)^β for active PEs, input order.
  double p = 1.0;             ///< 1/β.
};

FailureSampler make_sampler(const std::vector<double>& alphas, double beta,
                            double eta) {
  FailureSampler s;
  s.p = 1.0 / beta;
  s.c_pow.reserve(alphas.size());
  for (double a : alphas) {
    if (a <= 0.0) continue;
    // Clamp an overflowed power to the kernel's finite domain: the clamped
    // PE still loses every min against realistic failure times, and a
    // u == 0 draw keeps giving 0·DBL_MAX == 0 instead of 0·inf == NaN.
    const double c = kern::pow1(eta / a, beta);
    s.c_pow.push_back(std::min(c, std::numeric_limits<double>::max()));
  }
  return s;
}

/// Sample one array failure time. `u` is caller-owned scratch of size
/// c_pow.size() so per-chunk loops reuse one allocation. U in [0, 1)
/// keeps 1−U in (0, 1]; a U == 0 draw yields the zero failure time the
/// direct sampler produced.
double sample_failure(const FailureSampler& s, std::vector<double>& u,
                      util::SplitMix64& rng) {
  const std::size_t k = s.c_pow.size();
  for (std::size_t i = 0; i < k; ++i) u[i] = rng.next_double();
  return kern::pow1(kern::weibull_min(u.data(), s.c_pow.data(), k), s.p);
}

/// The r-th smallest (0-based) of x[0, n): quickselect with median-of-3
/// pivots and branch-free three-way partitions. Each pass reads one
/// buffer and writes the two others, so no store aliases a pending load;
/// x, b1 and b2 each hold n doubles and all three are clobbered. The r-th
/// smallest *value* is unique even under ties, so the result equals
/// std::nth_element's. \pre r < n, x holds no NaN.
double select_rank(double* x, double* b1, double* b2, std::size_t n,
                   std::size_t r) {
  double* src = x;
  double* lo = b1;
  double* hi = b2;
  while (n > 2) {
    const double a = src[0];
    const double b = src[n / 2];
    const double c = src[n - 1];
    const double pivot =
        std::max(std::min(a, b), std::min(std::max(a, b), c));
    std::size_t lt = 0;
    std::size_t gt = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = src[i];
      lo[lt] = v;
      hi[gt] = v;
      lt += static_cast<std::size_t>(v < pivot);
      gt += static_cast<std::size_t>(v > pivot);
    }
    if (r < lt) {
      std::swap(src, lo);
      n = lt;
    } else if (r < n - gt) {
      return pivot;
    } else {
      r -= n - gt;
      std::swap(src, hi);
      n = gt;
    }
  }
  if (n == 1) return src[0];
  return r == 0 ? std::min(src[0], src[1]) : std::max(src[0], src[1]);
}

/// Per-chunk state of the with-spares sampler: scratch buffers reused by
/// every trial, and the pivot carried from one trial to the next. The
/// pivot starts at 0 in every chunk, so a chunk's samples never depend on
/// which thread ran the chunk before it.
struct SpareScratch {
  explicit SpareScratch(std::size_t k)
      : u(k), approx(k), index(k), sel0(k), sel1(k), sel2(k) {}
  std::vector<double> u;           ///< the trial's uniforms
  std::vector<double> approx;      ///< a_i, kern's t_i^β approximations
  std::vector<std::size_t> index;  ///< PEs with a_i below the pivot
  std::vector<double> sel0;        ///< selection buffers (select_rank)
  std::vector<double> sel1;
  std::vector<double> sel2;
  double pivot = 0.0;
  std::int64_t full_scans = 0;  ///< trials that selected over every PE
  std::int64_t exact_logs = 0;  ///< std::log1p calls
};

// Cost only, never the result: a higher pivot misses less often but
// leaves more approximations to select from.
constexpr double kPivotFactor = 1.5;
// |a_i − t_i| ≤ δ·t_i with δ = 2⁻⁴⁰ for kern's approximation a_i of the
// exact t_i (tests/kern_test.cpp observes ≤ δ/256). The cuts A·(1 ∓ 4δ)
// around the selected approximation A then separate the PEs certainly
// below and certainly above the exact order statistic (DESIGN.md §14.6).
constexpr double kCutBelow = 1.0 - 0x1p-38;
constexpr double kCutAbove = 1.0 + 0x1p-38;
// The certificate needs A and its bracket far from the subnormal and
// overflow ranges; other trials take the exact path.
constexpr double kMinSelect = 0x1p-1000;
constexpr double kMaxSelect = 0x1p1000;

/// One with-spares trial: per-PE failure times in the β-power domain
/// (t_i^β = (η/α_i)^β·(−ln(1−U_i)); the power is monotone, so order
/// statistics commute with it), then the (spares+1)-th smallest is the
/// device failure. All uniforms are drawn first, so the RNG stream does
/// not depend on the path taken. kern::weibull_powers approximates every
/// t_i; the (spares+1)-th smallest approximation A is selected among
/// those below the pivot, or among all of them when the pivot misses.
/// Only PEs whose bracket overlaps A's get an exact log1p, and the
/// order statistic among them, offset by the PEs certainly below, is
/// the exact one (DESIGN.md §14.6).
double sample_spare_failure(const FailureSampler& s, SpareScratch& scratch,
                            std::int64_t spares, util::SplitMix64& rng) {
  const std::size_t k = s.c_pow.size();
  const double* c_pow = s.c_pow.data();
  double* u = scratch.u.data();
  double* approx = scratch.approx.data();
  std::size_t* index = scratch.index.data();
  double* sel0 = scratch.sel0.data();
  const auto select = [&](std::size_t n, std::size_t r) {
    return select_rank(sel0, scratch.sel1.data(), scratch.sel2.data(), n, r);
  };
  const auto exact_t = [&](std::size_t i) {
    return c_pow[i] * -std::log1p(-u[i]);
  };
  const auto rank = static_cast<std::size_t>(spares);
  for (std::size_t i = 0; i < k; ++i) u[i] = rng.next_double();
  kern::weibull_powers(u, c_pow, approx, k);

  // Branch-free compaction of the approximations below the pivot. Every
  // excluded a_i ≥ pivot, so when the pivot also clears A's upper cut
  // the excluded PEs are certainly above the order statistic.
  const double pivot = scratch.pivot;
  std::size_t n = 0;
  for (std::size_t i = 0; i < k; ++i) {
    sel0[n] = approx[i];
    index[n] = i;
    n += static_cast<std::size_t>(approx[i] < pivot);
  }
  double sel = 0.0;
  bool filtered = n > rank;
  if (filtered) {
    sel = select(n, rank);
    filtered = pivot > sel * kCutAbove;
  }
  if (!filtered) {
    ++scratch.full_scans;
    std::copy(approx, approx + k, sel0);
    sel = select(k, rank);
  }

  double sample = 0.0;
  if (sel >= kMinSelect && sel <= kMaxSelect) {
    // Exact values only where the brackets overlap; `certain` PEs lie
    // certainly below the order statistic.
    const double below = sel * kCutBelow;
    const double above = sel * kCutAbove;
    std::size_t certain = 0;
    std::size_t m = 0;
    for (std::size_t j = 0, end = filtered ? n : k; j < end; ++j) {
      const std::size_t i = filtered ? index[j] : j;
      const double a = approx[i];
      certain += static_cast<std::size_t>(a < below);
      if (a >= below && a <= above) sel0[m++] = exact_t(i);
    }
    ROTA_ENSURE(certain <= rank && rank - certain < m,
                "spare order-statistic bracket lost the sample");
    scratch.exact_logs += static_cast<std::int64_t>(m);
    sample = select(m, rank - certain);
  } else {
    // A outside the certified range: every exact value, as before.
    if (filtered) ++scratch.full_scans;
    for (std::size_t i = 0; i < k; ++i) sel0[i] = exact_t(i);
    scratch.exact_logs += static_cast<std::int64_t>(k);
    sample = select(k, rank);
  }
  scratch.pivot = kPivotFactor * sample;
  return kern::pow1(sample, s.p);
}

}  // namespace

MonteCarloResult monte_carlo_spare_mttf(const std::vector<double>& alphas,
                                        std::int64_t spares, double beta,
                                        double eta, std::int64_t trials,
                                        std::uint64_t seed, int threads) {
  validate_inputs(alphas, beta, eta, trials);
  const obs::TraceSpan span("monte_carlo_spare_mttf", "rel");
  const auto t0 = std::chrono::steady_clock::now();
  const FailureSampler sampler = make_sampler(alphas, beta, eta);
  ROTA_REQUIRE(spares >= 0 &&
                   spares < static_cast<std::int64_t>(sampler.c_pow.size()),
               "spares must be fewer than the active PE count");

  struct Moments {
    double sum = 0.0;
    double sum_sq = 0.0;
    std::int64_t full_scans = 0;
    std::int64_t exact_logs = 0;
  };
  const std::int64_t chunks = util::ceil_div(trials, kMonteCarloChunkTrials);
  const Moments total = par::parallel_reduce<Moments>(
      chunks, threads, Moments{},
      [&](std::int64_t c) {
        const ChunkBounds b = chunk_bounds(c, kMonteCarloChunkTrials, trials);
        util::SplitMix64 rng = chunk_rng(seed, c);
        SpareScratch scratch(sampler.c_pow.size());
        Moments m;
        for (std::int64_t t = b.begin; t < b.end; ++t) {
          const double sample =
              sample_spare_failure(sampler, scratch, spares, rng);
          m.sum += sample;
          m.sum_sq += sample * sample;
        }
        m.full_scans = scratch.full_scans;
        m.exact_logs = scratch.exact_logs;
        return m;
      },
      [](Moments acc, Moments m) {
        acc.sum += m.sum;
        acc.sum_sq += m.sum_sq;
        acc.full_scans += m.full_scans;
        acc.exact_logs += m.exact_logs;
        return acc;
      });
  report_batch("mc.spare_mttf", trials, t0);
  auto& reg = obs::MetricsRegistry::global();
  reg.add("mc.spare_full_scans", total.full_scans);
  reg.add("mc.spare_exact_logs", total.exact_logs);

  MonteCarloResult res;
  res.trials = trials;
  const double n = static_cast<double>(trials);
  res.mttf = total.sum / n;
  const double var = std::max(0.0, total.sum_sq / n - res.mttf * res.mttf);
  res.stderr_ = std::sqrt(var / n);
  return res;
}

MonteCarloResult monte_carlo_mttf(const std::vector<double>& alphas,
                                  double beta, double eta,
                                  std::int64_t trials, std::uint64_t seed,
                                  int threads) {
  validate_inputs(alphas, beta, eta, trials);
  const obs::TraceSpan span("monte_carlo_mttf", "rel");
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t chunks =
      util::ceil_div(trials, kMonteCarloChunkTrials);
  // Progress only on the serial path: the reporter is single-threaded by
  // design (rate-limited stderr), and parallel runs are short anyway.
  const bool serial = par::resolve_threads(threads) <= 1;
  obs::ProgressReporter progress("monte-carlo mttf", serial ? trials : 0);

  McPartial partial;
  monte_carlo_mttf_step(alphas, beta, eta, trials, seed, threads, &partial,
                        chunks);
  if (serial) progress.tick(trials);
  report_batch("mc.mttf", trials, t0);
  return monte_carlo_mttf_finalize(partial, trials);
}

bool monte_carlo_mttf_step(const std::vector<double>& alphas, double beta,
                           double eta, std::int64_t trials,
                           std::uint64_t seed, int threads,
                           McPartial* partial, std::int64_t max_chunks) {
  validate_inputs(alphas, beta, eta, trials);
  ROTA_REQUIRE(partial != nullptr && partial->next_chunk >= 0,
               "monte_carlo_mttf_step needs a valid partial");
  ROTA_REQUIRE(max_chunks >= 1, "need at least one chunk per step");
  const std::int64_t chunks = util::ceil_div(trials, kMonteCarloChunkTrials);
  const std::int64_t first = partial->next_chunk;
  if (first >= chunks) return false;
  const std::int64_t step = std::min(max_chunks, chunks - first);
  const FailureSampler sampler = make_sampler(alphas, beta, eta);

  struct Moments {
    double sum = 0.0;
    double sum_sq = 0.0;
  };
  // Seeding the fold with the carried moments preserves the exact
  // left-to-right summation order of the uninterrupted run:
  // ((…(0+m0)+m1…)+m_k — no matter where the run was cut.
  const Moments total = par::parallel_reduce<Moments>(
      step, threads, Moments{partial->sum, partial->sum_sq},
      [&](std::int64_t i) {
        const std::int64_t c = first + i;
        const ChunkBounds b = chunk_bounds(c, kMonteCarloChunkTrials, trials);
        util::SplitMix64 rng = chunk_rng(seed, c);
        std::vector<double> u(sampler.c_pow.size());
        Moments m;
        for (std::int64_t t = b.begin; t < b.end; ++t) {
          const double sample = sample_failure(sampler, u, rng);
          m.sum += sample;
          m.sum_sq += sample * sample;
        }
        return m;
      },
      [](Moments acc, Moments m) {
        acc.sum += m.sum;
        acc.sum_sq += m.sum_sq;
        return acc;
      });
  partial->sum = total.sum;
  partial->sum_sq = total.sum_sq;
  partial->next_chunk = first + step;
  return partial->next_chunk < chunks;
}

MonteCarloResult monte_carlo_mttf_finalize(const McPartial& partial,
                                           std::int64_t trials) {
  ROTA_REQUIRE(trials >= 1, "need at least one trial");
  ROTA_REQUIRE(partial.next_chunk >=
                   util::ceil_div(trials, kMonteCarloChunkTrials),
               "cannot finalize a partial Monte-Carlo run (chunks remain)");
  MonteCarloResult res;
  res.trials = trials;
  const double n = static_cast<double>(trials);
  res.mttf = partial.sum / n;
  const double var = std::max(0.0, partial.sum_sq / n - res.mttf * res.mttf);
  res.stderr_ = std::sqrt(var / n);
  return res;
}

VariationResult lifetime_improvement_under_variation(
    const std::vector<double>& baseline_alphas,
    const std::vector<double>& wl_alphas, double beta, double sigma,
    std::int64_t trials, std::uint64_t seed, int threads) {
  validate_inputs(baseline_alphas, beta, 1.0, trials);
  validate_inputs(wl_alphas, beta, 1.0, trials);
  ROTA_REQUIRE(baseline_alphas.size() == wl_alphas.size(),
               "activity vectors must describe the same array");
  ROTA_REQUIRE(sigma >= 0.0, "variation sigma must be non-negative");
  const obs::TraceSpan span("lifetime_improvement_under_variation", "rel");
  const auto t0 = std::chrono::steady_clock::now();

  // With per-PE scale η_i, the serial-chain MTTF is
  // Γ(1+1/β)/(Σ (α_i/η_i)^β)^{1/β}; the Γ factor cancels in the ratio.
  // Each term (α_i/η_i)^β = exp(β·(log α_i + w_i)) with w_i = −σ·N_i, so
  // both sums are one kern::sum_exp_affine over precomputed log
  // activities and the trial's shared perturbation vector. A zero
  // activity logs to −inf and contributes exactly 0, as before.
  const std::size_t n = baseline_alphas.size();
  std::vector<double> log_base(n);
  std::vector<double> log_wl(n);
  for (std::size_t i = 0; i < n; ++i) {
    log_base[i] = kern::log1(baseline_alphas[i]);
    log_wl[i] = kern::log1(wl_alphas[i]);
  }
  const std::int64_t chunks = util::ceil_div(trials, kVariationChunkTrials);
  std::vector<double> ratios = par::parallel_reduce<std::vector<double>>(
      chunks, threads, std::vector<double>{},
      [&](std::int64_t c) {
        const ChunkBounds b = chunk_bounds(c, kVariationChunkTrials, trials);
        util::SplitMix64 rng = chunk_rng(seed, c);
        // Box–Muller normal deviates for the lognormal scale samples.
        auto next_normal = [&rng]() {
          const double u1 = std::max(rng.next_double(), 1e-18);
          const double u2 = rng.next_double();
          return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
        };
        std::vector<double> w(n);
        std::vector<double> chunk_ratios;
        chunk_ratios.reserve(static_cast<std::size_t>(b.end - b.begin));
        for (std::int64_t trial = b.begin; trial < b.end; ++trial) {
          for (std::size_t i = 0; i < n; ++i) w[i] = -sigma * next_normal();
          const double sum_base =
              kern::sum_exp_affine(log_base.data(), w.data(), beta, n);
          const double sum_wl =
              kern::sum_exp_affine(log_wl.data(), w.data(), beta, n);
          ROTA_ENSURE(sum_base > 0.0 && sum_wl > 0.0,
                      "degenerate variation sample");
          chunk_ratios.push_back(
              kern::pow1(sum_base / sum_wl, 1.0 / beta));
        }
        return chunk_ratios;
      },
      [](std::vector<double> acc, std::vector<double> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  report_batch("mc.variation", trials, t0);
  std::sort(ratios.begin(), ratios.end());

  VariationResult res;
  res.trials = trials;
  double sum = 0.0;
  for (double r : ratios) sum += r;
  res.mean = sum / static_cast<double>(trials);
  auto quantile = [&ratios](double q) {
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(ratios.size() - 1));
    return ratios[idx];
  };
  res.p05 = quantile(0.05);
  res.p50 = quantile(0.50);
  res.p95 = quantile(0.95);
  return res;
}

double monte_carlo_reliability(const std::vector<double>& alphas, double t,
                               double beta, double eta, std::int64_t trials,
                               std::uint64_t seed, int threads) {
  validate_inputs(alphas, beta, eta, trials);
  ROTA_REQUIRE(t >= 0.0, "time must be non-negative");
  const obs::TraceSpan span("monte_carlo_reliability", "rel");
  const auto t0 = std::chrono::steady_clock::now();
  const std::int64_t chunks =
      util::ceil_div(trials, kMonteCarloChunkTrials);
  const FailureSampler sampler = make_sampler(alphas, beta, eta);
  const std::int64_t alive = par::parallel_reduce<std::int64_t>(
      chunks, threads, std::int64_t{0},
      [&](std::int64_t c) {
        const ChunkBounds b = chunk_bounds(c, kMonteCarloChunkTrials, trials);
        util::SplitMix64 rng = chunk_rng(seed, c);
        std::vector<double> u(sampler.c_pow.size());
        std::int64_t chunk_alive = 0;
        for (std::int64_t i = b.begin; i < b.end; ++i) {
          if (sample_failure(sampler, u, rng) > t) ++chunk_alive;
        }
        return chunk_alive;
      },
      [](std::int64_t acc, std::int64_t part) { return acc + part; });
  report_batch("mc.reliability", trials, t0);
  return static_cast<double>(alive) / static_cast<double>(trials);
}

}  // namespace rota::rel
