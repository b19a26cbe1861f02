#pragma once

#include <cstdint>
#include <vector>

#include "util/grid.hpp"

/// \file usage_tracker.hpp
/// Per-PE usage accounting: each utilization-space allocation increments
/// the counter of every PE the space covers (A_PE in the paper's Table I).
/// Internally a 2-D difference array makes each allocation O(1) regardless
/// of the space size — wraparound splits into at most four rectangles —
/// and the full counter grid is materialized lazily when statistics are
/// requested (at iteration boundaries in the evaluation harness).
///
/// Hot-path structure (DESIGN.md §14): materialization runs as three
/// unit-stride passes over the row-major backing vectors (horizontal
/// prefix, vertical row += previous row via kern::add_i64, uniform via
/// kern::add_scalar_i64), and per-tile overflow checks are amortized —
/// add_space spends one checked multiply only when a precomputed budget
/// runs out, add_spaces charges a whole batch with a single check.

namespace rota::wear {

/// Anchor (lower-left PE) of a utilization space, 0-indexed.
struct Placement {
  std::int64_t u = 0;
  std::int64_t v = 0;
};

/// Summary statistics over the PE usage counters.
struct UsageStats {
  std::int64_t min = 0;       ///< min(A_PE)
  std::int64_t max = 0;       ///< max(A_PE)
  std::int64_t max_diff = 0;  ///< D_max = max − min
  double r_diff = 0.0;        ///< R_diff = D_max / min (inf when min == 0)
  double mean = 0.0;
};

/// Tracks A_PE over a w×h PE array.
class UsageTracker {
 public:
  UsageTracker(std::int64_t width, std::int64_t height);

  [[nodiscard]] std::int64_t width() const { return width_; }
  [[nodiscard]] std::int64_t height() const { return height_; }

  /// Record `count` allocations of an x×y utilization space anchored at
  /// (u, v) (0-indexed, lower-left PE of the space).
  ///
  /// \param allow_wrap torus semantics: the space may cross the right and
  ///        top edges and wrap around. With allow_wrap == false (mesh), the
  ///        space must fit: u + x <= w and v + y <= h or the call throws.
  /// \pre 0 <= u < w, 0 <= v < h, 1 <= x <= w, 1 <= y <= h, count >= 0.
  void add_space(std::int64_t u, std::int64_t v, std::int64_t x,
                 std::int64_t y, std::int64_t count, bool allow_wrap);

  /// Record one x×y space at every origin in origins[0..tiles), each with
  /// `weight` allocations — equivalent to `tiles` add_space calls but with
  /// a single overflow-checked total update for the whole batch and cheap
  /// per-tile bounds compares. Preconditions per tile match add_space.
  void add_spaces(const Placement* origins, std::size_t tiles,
                  std::int64_t x, std::int64_t y, std::int64_t weight,
                  bool allow_wrap);

  /// Add `count` to every PE (used by the periodic fast-forward path).
  void add_uniform(std::int64_t count);

  /// Add `times`·cells[i] to every PE i (row-major, w·h cells, all
  /// non-negative): the iteration-period jump's bulk step, which replays
  /// one recorded period's usage delta `times` over. The new total is
  /// overflow-checked before any cell is touched, so a throw leaves the
  /// tracker unchanged. \pre cells.size() == w·h, times >= 0.
  void add_cells(const std::vector<std::int64_t>& cells, std::int64_t times);

  /// Materialized per-PE counters.
  [[nodiscard]] const util::Grid<std::int64_t>& usage() const;

  [[nodiscard]] UsageStats stats() const;

  /// Reset all counters to zero.
  void clear();

  /// Replace the counters with a previously materialized grid (row-major,
  /// w·h cells, all non-negative) — the checkpoint/resume inverse of
  /// usage(): restore_cells(t.usage().cells()) leaves the tracker with
  /// byte-identical counters and total. \pre cells.size() == w·h.
  void restore_cells(const std::vector<std::int64_t>& cells);

  /// Total allocations recorded so far (Σ count · x · y consistency check).
  [[nodiscard]] std::int64_t total_pe_allocations() const;

 private:
  void add_rect(std::int64_t c0, std::int64_t r0, std::int64_t c1,
                std::int64_t r1, std::int64_t count);
  /// The add_rect splits of one (possibly wrapped) space; no validation,
  /// no total/dirty bookkeeping.
  void splat_space(std::int64_t u, std::int64_t v, std::int64_t x,
                   std::int64_t y, std::int64_t count);
  /// Refresh budget_ from the current total (see member comment).
  void recompute_budget();
  void materialize() const;

  std::int64_t width_;
  std::int64_t height_;
  util::Grid<std::int64_t> diff_;          ///< (w+1)×(h+1) difference array
  std::int64_t uniform_ = 0;               ///< whole-array additions
  std::int64_t total_allocations_ = 0;
  /// How many more allocation counts add_space can accept — assuming the
  /// worst-case w×h space — before total_allocations_ could overflow:
  /// (INT64_MAX − total) / (w·h). While count fits the budget the checked
  /// multiply chain is skipped entirely; on exhaustion the slow path
  /// recomputes the exact checked total (and throws where the unamortized
  /// code would have).
  std::int64_t budget_ = 0;
  mutable util::Grid<std::int64_t> usage_;
  mutable bool dirty_ = true;
};

}  // namespace rota::wear
