#pragma once

#include <memory>
#include <ostream>
#include <vector>

#include "wear/policy.hpp"

/// \file trace.hpp
/// Placement tracing: a decorator that records every utilization-space
/// anchoring decision a policy makes. Traces are what an RTL or FPGA
/// validation flow diffs against the hardware controller's (u, v)
/// sequence, and they double as golden files for regression testing.
/// Note that tracing forces the per-tile path (both the per-layer bulk
/// path and the iteration-period jump are bypassed so every placement is
/// observed).

namespace rota::wear {

/// One recorded anchoring decision.
struct TraceRecord {
  std::int64_t tile_index = 0;  ///< global tile counter, 0-based
  std::int64_t layer_index = 0; ///< 0-based layer (begin_layer) counter
  std::int64_t x = 0;           ///< space width
  std::int64_t y = 0;           ///< space height
  std::int64_t u = 0;           ///< anchor column
  std::int64_t v = 0;           ///< anchor row
};

/// Policy decorator that records placements while delegating behavior.
class TracingPolicy final : public Policy {
 public:
  /// Wraps (and owns) `inner`. \pre inner non-null.
  explicit TracingPolicy(std::unique_ptr<Policy> inner);

  std::string name() const override;
  PolicyKind kind() const override;
  bool requires_torus() const override;
  void begin_layer(const sched::UtilSpace& space) override;
  Placement next_origin(const sched::UtilSpace& space) override;
  void reset() override;
  std::unique_ptr<Policy> clone() const override;
  /// The inner policy's rotation state (the trace itself is not part of
  /// it), so a traced stride policy checkpoints and resumes mid-rotation.
  [[nodiscard]] std::vector<std::uint64_t> pack_state() const override;
  void unpack_state(const std::vector<std::uint64_t>& state) override;
  // Intentionally no bulk_process or pack_state_is_complete override:
  // tracing needs every tile.

  [[nodiscard]] const std::vector<TraceRecord>& records() const { return records_; }
  void clear_trace() { records_.clear(); }

 private:
  std::unique_ptr<Policy> inner_;
  std::vector<TraceRecord> records_;
  std::int64_t tile_counter_ = 0;
  std::int64_t layer_counter_ = -1;
};

/// Write a trace as CSV (tile,layer,x,y,u,v).
void write_trace_csv(const std::vector<TraceRecord>& records,
                     std::ostream& out);

}  // namespace rota::wear
