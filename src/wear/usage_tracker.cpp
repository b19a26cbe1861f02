#include "wear/usage_tracker.hpp"

#include <limits>

#include "kern/kern.hpp"
#include "util/check.hpp"
#include "util/safe_math.hpp"

namespace rota::wear {

UsageTracker::UsageTracker(std::int64_t width, std::int64_t height)
    : width_(width),
      height_(height),
      diff_(static_cast<std::size_t>(width + 1),
            static_cast<std::size_t>(height + 1)),
      usage_(static_cast<std::size_t>(width),
             static_cast<std::size_t>(height)) {
  ROTA_REQUIRE(width > 0 && height > 0, "tracker dimensions must be positive");
  recompute_budget();
}

void UsageTracker::recompute_budget() {
  // width_·height_ fits: the usage grid of that many cells was allocated.
  budget_ = (std::numeric_limits<std::int64_t>::max() - total_allocations_) /
            (width_ * height_);
}

void UsageTracker::add_rect(std::int64_t c0, std::int64_t r0, std::int64_t c1,
                            std::int64_t r1, std::int64_t count) {
  // Half-open rectangle [c0, c1) × [r0, r1) in the difference array.
  auto uc0 = static_cast<std::size_t>(c0);
  auto ur0 = static_cast<std::size_t>(r0);
  auto uc1 = static_cast<std::size_t>(c1);
  auto ur1 = static_cast<std::size_t>(r1);
  diff_(uc0, ur0) += count;
  diff_(uc1, ur0) -= count;
  diff_(uc0, ur1) -= count;
  diff_(uc1, ur1) += count;
}

void UsageTracker::splat_space(std::int64_t u, std::int64_t v, std::int64_t x,
                               std::int64_t y, std::int64_t count) {
  const std::int64_t x_main = std::min(x, width_ - u);
  const std::int64_t x_wrap = x - x_main;
  const std::int64_t y_main = std::min(y, height_ - v);
  const std::int64_t y_wrap = y - y_main;

  add_rect(u, v, u + x_main, v + y_main, count);
  if (x_wrap > 0) add_rect(0, v, x_wrap, v + y_main, count);
  if (y_wrap > 0) add_rect(u, 0, u + x_main, y_wrap, count);
  if (x_wrap > 0 && y_wrap > 0) add_rect(0, 0, x_wrap, y_wrap, count);
}

void UsageTracker::add_space(std::int64_t u, std::int64_t v, std::int64_t x,
                             std::int64_t y, std::int64_t count,
                             bool allow_wrap) {
  ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
               "space origin out of range");
  ROTA_REQUIRE(x >= 1 && x <= width_ && y >= 1 && y <= height_,
               "space size out of range");
  ROTA_REQUIRE(count >= 0, "allocation count must be non-negative");
  if (!allow_wrap) {
    ROTA_REQUIRE(u + x <= width_ && v + y <= height_,
                 "utilization space crosses the array edge on a mesh");
  }
  if (count == 0) return;

  // Conservation-counter arithmetic, amortized: while `count` fits the
  // precomputed budget, count·x·y ≤ count·w·h ≤ INT64_MAX − total holds by
  // construction and the product is added unchecked. Only when the budget
  // runs out is the exact checked chain evaluated (which throws before any
  // difference-array cell is touched, exactly like the unamortized code).
  if (count <= budget_) {
    budget_ -= count;
    total_allocations_ += count * x * y;
  } else {
    total_allocations_ = util::checked_add(
        total_allocations_, util::checked_mul(util::checked_mul(count, x), y));
    recompute_budget();
  }

  splat_space(u, v, x, y, count);
  dirty_ = true;
}

void UsageTracker::add_spaces(const Placement* origins, std::size_t tiles,
                              std::int64_t x, std::int64_t y,
                              std::int64_t weight, bool allow_wrap) {
  ROTA_REQUIRE(tiles == 0 || origins != nullptr,
               "add_spaces needs origins when tiles > 0");
  ROTA_REQUIRE(x >= 1 && x <= width_ && y >= 1 && y <= height_,
               "space size out of range");
  ROTA_REQUIRE(weight >= 0, "allocation count must be non-negative");
  if (tiles == 0 || weight == 0) return;

  // One checked total update for the whole batch, then only cheap
  // per-tile bounds compares in the loop.
  const std::int64_t per_tile =
      util::checked_mul(util::checked_mul(weight, x), y);
  const std::int64_t new_total = util::checked_add(
      total_allocations_,
      util::checked_mul(per_tile, static_cast<std::int64_t>(tiles)));

  // Validate every origin before touching any cell so a bad tile throws
  // with the tracker unchanged, like add_space does.
  const bool must_fit = !allow_wrap;
  for (std::size_t i = 0; i < tiles; ++i) {
    const std::int64_t u = origins[i].u;
    const std::int64_t v = origins[i].v;
    ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
                 "space origin out of range");
    if (must_fit) {
      ROTA_REQUIRE(u + x <= width_ && v + y <= height_,
                   "utilization space crosses the array edge on a mesh");
    }
  }
  for (std::size_t i = 0; i < tiles; ++i) {
    splat_space(origins[i].u, origins[i].v, x, y, weight);
  }

  total_allocations_ = new_total;
  recompute_budget();
  dirty_ = true;
}

void UsageTracker::add_uniform(std::int64_t count) {
  ROTA_REQUIRE(count >= 0, "uniform count must be non-negative");
  if (count == 0) return;
  const std::int64_t new_total = util::checked_add(
      total_allocations_,
      util::checked_mul(util::checked_mul(count, width_), height_));
  uniform_ = util::checked_add(uniform_, count);
  total_allocations_ = new_total;
  recompute_budget();
  dirty_ = true;
}

void UsageTracker::materialize() const {
  if (!dirty_) return;
  // 2-D prefix sum of the difference array, restricted to [0,w)×[0,h),
  // as three unit-stride passes over the row-major backing stores. Integer
  // addition is associative, so the result is identical to the fused
  // single pass this replaces — the horizontal prefix is inherently
  // serial per row, but the vertical and uniform passes vectorize.
  const auto w = static_cast<std::size_t>(width_);
  const auto h = static_cast<std::size_t>(height_);
  const std::int64_t* diff_cells = diff_.cells().data();
  const std::size_t diff_stride = w + 1;
  std::int64_t* usage_cells = usage_.cells().data();

  for (std::size_t r = 0; r < h; ++r) {
    const std::int64_t* diff_row = diff_cells + r * diff_stride;
    std::int64_t* usage_row = usage_cells + r * w;
    std::int64_t row_acc = 0;
    for (std::size_t c = 0; c < w; ++c) {
      row_acc += diff_row[c];
      usage_row[c] = row_acc;
    }
  }
  for (std::size_t r = 1; r < h; ++r) {
    kern::add_i64(usage_cells + r * w, usage_cells + (r - 1) * w, w);
  }
  if (uniform_ != 0) {
    kern::add_scalar_i64(usage_cells, uniform_, w * h);
  }
  dirty_ = false;
}

const util::Grid<std::int64_t>& UsageTracker::usage() const {
  materialize();
  return usage_;
}

UsageStats UsageTracker::stats() const {
  materialize();
  // The int64 sum is exact: Σ cells == total_allocations_, which the
  // allocation paths keep overflow-checked.
  const kern::I64Stats ks =
      kern::minmax_sum_i64(usage_.cells().data(), usage_.size());
  UsageStats s;
  s.min = ks.min;
  s.max = ks.max;
  s.max_diff = s.max - s.min;
  s.mean = static_cast<double>(ks.sum) / static_cast<double>(usage_.size());
  if (s.max_diff == 0) {
    s.r_diff = 0.0;
  } else if (s.min == 0) {
    s.r_diff = std::numeric_limits<double>::infinity();
  } else {
    s.r_diff = static_cast<double>(s.max_diff) / static_cast<double>(s.min);
  }
  return s;
}

void UsageTracker::clear() {
  diff_.fill(0);
  usage_.fill(0);
  uniform_ = 0;
  total_allocations_ = 0;
  recompute_budget();
  dirty_ = true;
}

void UsageTracker::add_cells(const std::vector<std::int64_t>& cells,
                             std::int64_t times) {
  ROTA_REQUIRE(cells.size() == static_cast<std::size_t>(width_ * height_),
               "add_cells grid does not match the tracker geometry");
  ROTA_REQUIRE(times >= 0, "add_cells repeat count must be non-negative");
  std::int64_t sum = 0;
  for (const std::int64_t count : cells) {
    ROTA_REQUIRE(count >= 0, "add_cells counters must be non-negative");
    sum = util::checked_add(sum, count);
  }
  const std::int64_t new_total =
      util::checked_add(total_allocations_, util::checked_mul(sum, times));
  if (new_total == total_allocations_) return;
  // One 1×1 rect per cell; count·times ≤ sum·times, which was checked.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i] == 0) continue;
    const auto c = static_cast<std::int64_t>(i) % width_;
    const auto r = static_cast<std::int64_t>(i) / width_;
    add_rect(c, r, c + 1, r + 1, cells[i] * times);
  }
  total_allocations_ = new_total;
  recompute_budget();
  dirty_ = true;
}

void UsageTracker::restore_cells(const std::vector<std::int64_t>& cells) {
  ROTA_REQUIRE(cells.size() == static_cast<std::size_t>(width_ * height_),
               "restore_cells grid does not match the tracker geometry");
  clear();
  // The next materialize() reproduces exactly the snapshotted counters,
  // and the total is rebuilt with the same overflow-checked chain.
  add_cells(cells, 1);
}

std::int64_t UsageTracker::total_pe_allocations() const {
  return total_allocations_;
}

}  // namespace rota::wear
