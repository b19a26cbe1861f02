#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/array_state.hpp"
#include "wear/policy.hpp"

/// \file masked_policy.hpp
/// Fault-aware wear leveling: a decorator that constrains any inner
/// rotation policy to the live PEs of a degraded array. The inner policy
/// keeps generating its rotation trajectory (RWL stride, diagonal,
/// random); the mask filters it down to anchors whose utilization window
/// avoids every dead, un-spared PE, so rotation levels wear over live
/// silicon only and never lands work on dead tiles.
///
/// Semantics per tile: advance the inner trajectory until it emits a
/// feasible origin (consuming the infeasible prefix), bounded by a probe
/// limit; if no feasible origin shows up within the limit, fall back to
/// the ArrayState's canonical anchor for the window. With an all-live
/// mask every call delegates straight to the inner policy, so a
/// fault-aware run is byte-identical to a fault-oblivious one until the
/// first un-spared fault lands.
///
/// The bulk fast path exploits that the deterministic policies' state
/// transition is an invertible map, so their origin stream is a pure
/// cycle of length ≤ w·h: discover the cycle once (on a clone), filter
/// it against the mask, and batch whole passes through the feasible
/// subset via UsageTracker::add_spaces. Placements match the per-tile
/// path exactly; the inner state does too, except after a whole number
/// of passes, where the bulk path leaves it at the cycle start and the
/// per-tile path one raw step past the last feasible origin (DESIGN.md
/// §16.2 — kept because recorded degrade timelines depend on it).

namespace rota::wear {

class MaskedPolicy final : public Policy {
 public:
  /// \pre inner != nullptr; a concrete mask must match inner's geometry.
  MaskedPolicy(std::unique_ptr<Policy> inner, sched::ArrayState mask);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] PolicyKind kind() const override { return inner_->kind(); }
  [[nodiscard]] bool requires_torus() const override;

  void begin_layer(const sched::UtilSpace& space) override;
  Placement next_origin(const sched::UtilSpace& space) override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::unique_ptr<Policy> clone() const override;

  std::int64_t bulk_process(const sched::UtilSpace& space, std::int64_t tiles,
                            UsageTracker& tracker, bool allow_wrap,
                            std::int64_t weight) override;

  [[nodiscard]] std::vector<std::uint64_t> pack_state() const override {
    return inner_->pack_state();
  }
  void unpack_state(const std::vector<std::uint64_t>& state) override {
    inner_->unpack_state(state);
  }
  /// The mask only changes on a remap, between simulator runs, so the
  /// inner state is the whole story.
  [[nodiscard]] bool pack_state_is_complete() const override {
    return inner_->pack_state_is_complete();
  }

  /// Swap in a new live map after a remap/reschedule; the inner rotation
  /// state is untouched. \pre a concrete mask matches the geometry.
  void set_mask(sched::ArrayState mask);

  [[nodiscard]] const sched::ArrayState& mask() const { return mask_; }
  [[nodiscard]] const Policy& inner() const { return *inner_; }

 private:
  [[nodiscard]] std::int64_t probe_limit() const;

  std::unique_ptr<Policy> inner_;
  sched::ArrayState mask_;
};

}  // namespace rota::wear
