#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "util/rng.hpp"
#include "wear/usage_tracker.hpp"

/// \file policy.hpp
/// Wear-leveling policies: strategies that choose where each utilization
/// space is anchored on the PE array. The paper's three schemes —
/// Baseline (fixed corner), RWL (per-layer rotational striding) and
/// RWL+RO (striding relayed across layers, Algorithm 1) — plus two
/// extension policies used by the ablation benches.

namespace rota::wear {

// Placement (the anchor a policy emits per tile) lives in
// usage_tracker.hpp next to the batch API that consumes it.

/// Identifiers for the built-in policies.
enum class PolicyKind {
  kBaseline,        ///< fixed lower-left corner (conventional accelerator)
  kRwl,             ///< rotational wear-leveling, reset at each layer
  kRwlRo,           ///< RWL + residual optimization (paper's proposal)
  kRandomStart,     ///< uniformly random origin per tile (ablation)
  kDiagonalStride,  ///< u and v advance together every tile (ablation)
};

[[nodiscard]] std::string to_string(PolicyKind kind);

/// Strategy interface. A policy is created for a fixed array size and
/// driven by the simulator: begin_layer() at every layer boundary, then
/// one next_origin() per data tile.
class Policy {
 public:
  Policy(std::int64_t width, std::int64_t height);
  virtual ~Policy() = default;

  [[nodiscard]] std::int64_t width() const { return width_; }
  [[nodiscard]] std::int64_t height() const { return height_; }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual PolicyKind kind() const = 0;

  /// True if the policy anchors spaces where they cross array edges and
  /// therefore needs the torus local network to operate.
  [[nodiscard]] virtual bool requires_torus() const = 0;

  /// Called once before each layer's tiles, with that layer's space.
  virtual void begin_layer(const sched::UtilSpace& space) = 0;

  /// Origin for the next tile; advances the internal stride state.
  virtual Placement next_origin(const sched::UtilSpace& space) = 0;

  /// Return to the initial state (origin at the lower-left corner).
  virtual void reset() = 0;

  [[nodiscard]] virtual std::unique_ptr<Policy> clone() const = 0;

  /// Serializable rotation state for checkpoint/resume. pack_state()
  /// captures everything next_origin() depends on beyond the construction
  /// parameters (stride coordinates, RNG state); unpack_state() restores
  /// it exactly. Stateless policies return an empty vector and accept only
  /// an empty one.
  [[nodiscard]] virtual std::vector<std::uint64_t> pack_state() const {
    return {};
  }
  virtual void unpack_state(const std::vector<std::uint64_t>& state);

  /// True if pack_state() is a complete description of the policy's
  /// future behaviour: two iteration boundaries with equal packed states
  /// place every later tile identically. WearSimulator::run_iterations
  /// then jumps whole iteration periods (simulator.hpp). Opting in is a
  /// promise; the default is false, so policies whose state never repeats
  /// (RandomStart) keep literal stepping.
  [[nodiscard]] virtual bool pack_state_is_complete() const { return false; }

  /// Optional O(1) fast path: record up to `tiles` allocations of `space`
  /// into `tracker` — each weighted by `weight` counts — with an effect
  /// identical to that many next_origin() calls, returning how many tiles
  /// were consumed (0 = no fast path). Called only after begin_layer() for
  /// the same space.
  virtual std::int64_t bulk_process(const sched::UtilSpace& space,
                                    std::int64_t tiles, UsageTracker& tracker,
                                    bool allow_wrap, std::int64_t weight);

 private:
  std::int64_t width_;
  std::int64_t height_;
};

/// Seed of make_policy() and wear::run_policy() when the caller names none.
inline constexpr std::uint64_t kDefaultPolicySeed = 0x9e3779b9;

/// Create a policy instance. `seed` is used by kRandomStart only.
[[nodiscard]] std::unique_ptr<Policy> make_policy(
    PolicyKind kind, std::int64_t width, std::int64_t height,
    std::uint64_t seed = kDefaultPolicySeed);

}  // namespace rota::wear
