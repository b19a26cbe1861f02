#pragma once

#include <cstdint>
#include <vector>

#include "reliability/weibull.hpp"

/// \file monte_carlo.hpp
/// Monte-Carlo validation of the closed-form array MTTF (Eq. 3): sample
/// each PE's failure time from its Weibull marginal — PE (i,j) with
/// relative activity α fails at t = (η/α)·(−ln U)^{1/β} — and take the
/// array failure as the minimum (serial chain). The estimator converges
/// to array_mttf(); the test suite checks agreement within sampling error,
/// which independently validates the algebra behind Eqs. 2–4.
///
/// Determinism contract (DESIGN.md §9): trials are drawn in fixed-size
/// chunks, each from its own RNG substream seeded `seed ⊕ chunk_index`,
/// and per-chunk partial results are combined in ascending chunk order.
/// The decomposition depends only on `trials`, never on `threads`, so
/// every estimate is **bit-identical for any thread count** — `threads`
/// (1 = serial, 0 = hardware concurrency) only buys wall-clock time.

namespace rota::rel {

/// Trials per RNG substream chunk — part of the determinism contract:
/// changing it changes the sampled streams (not their statistics).
inline constexpr std::int64_t kMonteCarloChunkTrials = 4096;
/// Chunk size for the heavier per-trial variation sweep.
inline constexpr std::int64_t kVariationChunkTrials = 256;

/// Result of a Monte-Carlo MTTF estimation.
struct MonteCarloResult {
  double mttf = 0.0;        ///< sample mean of array failure times
  double stderr_ = 0.0;     ///< standard error of the mean
  std::int64_t trials = 0;
};

/// Estimate the array MTTF by sampling. PEs with α = 0 never fail.
/// \pre alphas non-empty, finite and non-negative, with at least one
/// positive entry; beta and eta finite and positive; trials >= 1.
[[nodiscard]] MonteCarloResult monte_carlo_mttf(const std::vector<double>& alphas,
                                  double beta = kJedecShape, double eta = 1.0,
                                  std::int64_t trials = 10000,
                                  std::uint64_t seed = 0x6d634d54,
                                  int threads = 1);

/// With-spares / with-repair extension of the serial-chain estimator: the
/// device survives until `spares` + 1 PEs have failed — each of the first
/// `spares` failures is repaired instantly by claiming a spare, which is
/// exactly the k-out-of-n model behind the spare_array_mttf closed form —
/// so a trial's failure time is the (spares+1)-th order statistic of the
/// per-PE Weibull failure times. Rides the same chunked-substream
/// determinism contract as monte_carlo_mttf (bit-identical at any thread
/// count); the test suite cross-checks it against spare_array_mttf within
/// sampling error. Each trial ranks kern approximations of the per-PE
/// times and computes the exact log1p only for the PEs whose error
/// bracket overlaps the selected one's (DESIGN.md §14.6); the counters
/// `mc.spare_full_scans` (trials that selected over every PE) and
/// `mc.spare_exact_logs` (log1p calls) track the cost.
/// \pre spares >= 0 and fewer than the active PE count.
[[nodiscard]] MonteCarloResult monte_carlo_spare_mttf(
    const std::vector<double>& alphas, std::int64_t spares,
    double beta = kJedecShape, double eta = 1.0, std::int64_t trials = 10000,
    std::uint64_t seed = 0x6d635370, int threads = 1);

/// Partial state of an interruptible MTTF estimation: the moments
/// accumulated over chunks [0, next_chunk). Because every chunk draws
/// from its own RNG substream and partials fold in ascending chunk order
/// (the determinism contract above), carrying these three numbers across
/// a process restart — hexfloat-encoded, so bit-exactly — reproduces the
/// uninterrupted estimate to the last bit. This is what `rota mc
/// --checkpoint` persists through fi::Checkpoint.
struct McPartial {
  double sum = 0.0;     ///< Σ tᵢ over completed chunks
  double sum_sq = 0.0;  ///< Σ tᵢ² over completed chunks
  std::int64_t next_chunk = 0;  ///< first chunk not yet sampled
};

/// Advance `partial` by up to `max_chunks` chunks of a `trials`-long run
/// (parallel inside the step; fold order stays ascending). Returns true
/// while chunks remain. \pre same preconditions as monte_carlo_mttf,
/// max_chunks >= 1, 0 <= partial->next_chunk.
bool monte_carlo_mttf_step(const std::vector<double>& alphas, double beta,
                           double eta, std::int64_t trials,
                           std::uint64_t seed, int threads,
                           McPartial* partial, std::int64_t max_chunks);

/// Turn a fully-advanced partial into the estimate; bit-identical to
/// monte_carlo_mttf with the same inputs regardless of how the chunks
/// were stepped. \pre partial covers every chunk of `trials`.
[[nodiscard]] MonteCarloResult monte_carlo_mttf_finalize(
    const McPartial& partial, std::int64_t trials);

/// Empirical survival probability R(t) by sampling (for plotting and for
/// cross-checking array_reliability()).
[[nodiscard]] double monte_carlo_reliability(const std::vector<double>& alphas, double t,
                               double beta = kJedecShape, double eta = 1.0,
                               std::int64_t trials = 10000,
                               std::uint64_t seed = 0x6d634d54,
                               int threads = 1);

/// Distribution summary of the Eq. 4 lifetime-improvement ratio when each
/// PE's Weibull scale η carries lognormal process variation.
struct VariationResult {
  double mean = 0.0;
  double p05 = 0.0;  ///< 5th percentile of the improvement
  double p50 = 0.0;  ///< median
  double p95 = 0.0;  ///< 95th percentile
  std::int64_t trials = 0;
};

/// Sample per-PE scales η_ij = η·exp(σ·N(0,1)) (common random numbers for
/// the baseline and wear-leveled fields, i.e. the *same die*), evaluate
/// both MTTFs in closed form per sample, and summarize the improvement
/// ratio. σ = 0 collapses to the deterministic Eq. 4 value.
/// \pre both activity vectors same non-zero size, each with a positive
/// entry; sigma >= 0; trials >= 1.
[[nodiscard]] VariationResult lifetime_improvement_under_variation(
    const std::vector<double>& baseline_alphas,
    const std::vector<double>& wl_alphas, double beta = kJedecShape,
    double sigma = 0.1, std::int64_t trials = 2000,
    std::uint64_t seed = 0x76617254, int threads = 1);

}  // namespace rota::rel
