#pragma once

#include <cstdint>
#include <vector>

#include "reliability/weibull.hpp"

/// \file spares.hpp
/// Extension beyond the paper: lifetime of a PE array with spare capacity.
/// The paper models the accelerator as a strict serial chain ("operable
/// only when all PEs survive", Eq. 2). Real designs often tolerate a few
/// failed PEs by remapping work onto spares. This module computes the
/// reliability of a k-out-of-n system with *heterogeneous* per-PE stress:
///
///   R_s(t) = P(at most s PEs have failed by t)
///
/// evaluated exactly with the Poisson-binomial recurrence over the per-PE
/// failure probabilities F_ij(t) = 1 − exp(−(t·α_ij/η)^β), and the MTTF
/// via numeric integration of R_s(t). F depends on a PE only through α,
/// so each evaluation computes it once per distinct activity level and
/// runs the recurrence over the PEs in input order, four integration
/// nodes at a time in kern::poisson_binomial_x4 — bit-identical to a
/// per-PE evaluation (DESIGN.md §14.6). The abl_spares bench uses it to
/// show how wear-leveling and sparing compose.

namespace rota::rel {

/// Reliability at time t of an array that tolerates up to `spares` failed
/// PEs. spares = 0 degenerates to array_reliability().
/// \pre alphas non-empty, all finite and non-negative; spares >= 0;
/// beta and eta finite and positive.
[[nodiscard]] double spare_array_reliability(const std::vector<double>& alphas, double t,
                               std::int64_t spares,
                               double beta = kJedecShape, double eta = 1.0);

/// MTTF of the spare-tolerant array: ∫ R_s(t) dt, integrated numerically
/// (adaptive horizon, trapezoid rule; relative accuracy ~1e-4).
/// \pre as spare_array_reliability, and spares < the number of PEs with
/// α > 0 (inactive PEs never fail, so a larger pool never runs out).
[[nodiscard]] double spare_array_mttf(const std::vector<double>& alphas,
                        std::int64_t spares, double beta = kJedecShape,
                        double eta = 1.0);

/// Tracks which PEs of a w×h array have failed and which spare PE carries
/// each failed PE's work — the operational counterpart of the analytic
/// k-out-of-n model above, used by the fi degrade engine to answer "what
/// happens when PE (u,v) dies mid-inference". Spares are a pool of
/// `spares` extra PEs (ids 0..spares-1); spares can themselves
/// fail (their primary migrates to a fresh spare when one is free), and
/// transiently-failed primaries can be restored (their spare returns to
/// the pool). The class is pure bookkeeping: usage/wear accounting stays
/// in wear::UsageTracker, and fi::run_degraded_lifetime attributes
/// redirected work using the mapping recorded here.
class SpareRemapper {
 public:
  /// \pre width >= 1, height >= 1, spares >= 0
  SpareRemapper(std::int64_t width, std::int64_t height, std::int64_t spares);

  /// Result of one fault event.
  struct Outcome {
    bool remapped = false;   ///< work has a live spare to land on
    std::int64_t spare = -1; ///< the spare in service for this PE, or -1
  };

  /// Monotonic event counters plus the current pool occupancy; the class
  /// invariant (checked on every mutation) is
  ///   spares_in_service + spares_free + spares_dead == spares.
  struct Stats {
    std::int64_t primary_faults = 0;  ///< distinct primary PEs failed
    std::int64_t spare_faults = 0;    ///< spare PEs failed
    std::int64_t remaps = 0;          ///< successful spare assignments
    std::int64_t migrations = 0;      ///< remaps caused by a spare dying
    std::int64_t unmapped = 0;        ///< fault events left without a spare
    std::int64_t restores = 0;        ///< transient primaries recovered
    std::int64_t spares_in_service = 0;
    std::int64_t spares_free = 0;
    std::int64_t spares_dead = 0;
  };

  /// Primary PE (u,v) fails permanently (or transiently — see
  /// restore_primary). Assigns the lowest-id free spare; with the pool
  /// exhausted the PE is left unmapped (its work is lost, the array is
  /// degraded). Faulting an already-dead primary is a no-op returning the
  /// current mapping. \pre 0 <= u < width, 0 <= v < height
  Outcome fault_primary(std::int64_t u, std::int64_t v);

  /// Spare PE `spare` fails. If it was in service, its primary migrates
  /// to the next free spare (counted as a migration); with none free the
  /// primary becomes unmapped. Faulting a dead spare is a no-op.
  /// \pre 0 <= spare < spares
  Outcome fault_spare(std::int64_t spare);

  /// Transient recovery of primary (u,v): the PE is alive again and its
  /// spare (if any) returns to the free pool. No-op when the PE is alive.
  /// \pre 0 <= u < width, 0 <= v < height
  void restore_primary(std::int64_t u, std::int64_t v);

  [[nodiscard]] bool is_dead(std::int64_t u, std::int64_t v) const;
  /// The spare in service for (u,v), or -1 (alive or unmapped).
  [[nodiscard]] std::int64_t spare_of(std::int64_t u, std::int64_t v) const;
  [[nodiscard]] std::int64_t spares_free() const;
  [[nodiscard]] std::int64_t width() const { return width_; }
  [[nodiscard]] std::int64_t height() const { return height_; }
  [[nodiscard]] std::int64_t spare_count() const {
    return static_cast<std::int64_t>(spare_state_.size());
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  enum class SpareState { kFree, kInService, kDead };

  [[nodiscard]] std::size_t index_of(std::int64_t u, std::int64_t v) const;
  /// Lowest-id free spare, or -1.
  [[nodiscard]] std::int64_t claim_free_spare();
  void check_invariants() const;

  std::int64_t width_;
  std::int64_t height_;
  std::vector<bool> primary_dead_;
  std::vector<std::int64_t> primary_spare_;  ///< spare id or -1
  std::vector<SpareState> spare_state_;
  std::vector<std::int64_t> spare_primary_;  ///< primary index or -1
  Stats stats_;
};

}  // namespace rota::rel
