#include "sched/array_state.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/encode.hpp"

namespace rota::sched {

ArrayState::ArrayState(
    std::int64_t width, std::int64_t height,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& dead)
    : width_(width), height_(height) {
  ROTA_REQUIRE(width >= 1 && height >= 1,
               "ArrayState needs a positive geometry");
  dead_.assign(static_cast<std::size_t>(width_ * height_), 0);
  for (const auto& [u, v] : dead) {
    ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
                 "dead PE (" + std::to_string(u) + "," + std::to_string(v) +
                     ") outside the " + std::to_string(width_) + "x" +
                     std::to_string(height_) + " array");
    dead_[static_cast<std::size_t>(v * width_ + u)] = 1;
  }
  build_tables();
}

ArrayState::ArrayState(const rel::SpareRemapper& spares)
    : width_(spares.width()), height_(spares.height()) {
  dead_.assign(static_cast<std::size_t>(width_ * height_), 0);
  for (std::int64_t v = 0; v < height_; ++v) {
    for (std::int64_t u = 0; u < width_; ++u) {
      if (spares.is_dead(u, v) && spares.spare_of(u, v) < 0) {
        dead_[static_cast<std::size_t>(v * width_ + u)] = 1;
      }
    }
  }
  build_tables();
}

std::size_t ArrayState::size_index(std::int64_t x, std::int64_t y) const {
  ROTA_REQUIRE(x >= 1 && x <= width_ && y >= 1 && y <= height_,
               "window " + std::to_string(x) + "x" + std::to_string(y) +
                   " outside the " + std::to_string(width_) + "x" +
                   std::to_string(height_) + " array");
  return static_cast<std::size_t>((y - 1) * width_ + (x - 1));
}

void ArrayState::build_tables() {
  const std::size_t cells = static_cast<std::size_t>(width_ * height_);
  dead_count_ = 0;
  for (const std::uint8_t d : dead_) dead_count_ += d;

  fits_.assign(cells, 1);
  anchor_u_.assign(cells, 0);
  anchor_v_.assign(cells, 0);
  if (dead_count_ == 0) return;  // digest stays "live", every window fits

  // Digest the geometry plus the sorted dead set (row-major scan order is
  // already sorted by (v, u)).
  std::string content =
      std::to_string(width_) + "x" + std::to_string(height_) + "|";
  for (std::int64_t v = 0; v < height_; ++v) {
    for (std::int64_t u = 0; u < width_; ++u) {
      if (dead_[static_cast<std::size_t>(v * width_ + u)] != 0) {
        content += std::to_string(u) + "," + std::to_string(v) + ";";
      }
    }
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "fnv1a:%016llx",
                static_cast<unsigned long long>(util::fnv1a64(content)));
  digest_ = hex;

  // Doubled-grid prefix sums make every wrapped-window dead count O(1):
  // prefix[i][j] = dead PEs in rows < i, cols < j of the 2h×2w tiling.
  const std::int64_t w2 = 2 * width_;
  const std::int64_t h2 = 2 * height_;
  std::vector<std::int64_t> prefix(
      static_cast<std::size_t>((h2 + 1) * (w2 + 1)), 0);
  const auto pre = [&](std::int64_t i, std::int64_t j) -> std::int64_t& {
    return prefix[static_cast<std::size_t>(i * (w2 + 1) + j)];
  };
  for (std::int64_t i = 1; i <= h2; ++i) {
    for (std::int64_t j = 1; j <= w2; ++j) {
      const std::int64_t d = dead_[static_cast<std::size_t>(
          ((i - 1) % height_) * width_ + ((j - 1) % width_))];
      pre(i, j) = d + pre(i - 1, j) + pre(i, j - 1) - pre(i - 1, j - 1);
    }
  }
  const auto window_dead = [&](std::int64_t u, std::int64_t v, std::int64_t x,
                               std::int64_t y) {
    return pre(v + y, u + x) - pre(v, u + x) - pre(v + y, u) + pre(v, u);
  };

  for (std::int64_t y = 1; y <= height_; ++y) {
    for (std::int64_t x = 1; x <= width_; ++x) {
      const std::size_t idx = static_cast<std::size_t>((y - 1) * width_ +
                                                       (x - 1));
      fits_[idx] = 0;
      for (std::int64_t v = 0; v < height_ && fits_[idx] == 0; ++v) {
        for (std::int64_t u = 0; u < width_; ++u) {
          if (window_dead(u, v, x, y) == 0) {
            fits_[idx] = 1;
            anchor_u_[idx] = u;
            anchor_v_[idx] = v;
            break;
          }
        }
      }
    }
  }
}

std::int64_t ArrayState::live_count(std::int64_t width,
                                    std::int64_t height) const {
  ROTA_REQUIRE(width >= 1 && height >= 1,
               "live_count needs a positive geometry");
  if (width_ == 0) return width * height;
  ROTA_REQUIRE(width == width_ && height == height_,
               "ArrayState is " + std::to_string(width_) + "x" +
                   std::to_string(height_) + " but the accelerator array is " +
                   std::to_string(width) + "x" + std::to_string(height));
  return width_ * height_ - dead_count_;
}

bool ArrayState::dead(std::int64_t u, std::int64_t v) const {
  ROTA_REQUIRE(width_ > 0, "dead() needs a concrete ArrayState");
  ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
               "PE (" + std::to_string(u) + "," + std::to_string(v) +
                   ") outside the array");
  return dead_[static_cast<std::size_t>(v * width_ + u)] != 0;
}

bool ArrayState::window_clear(std::int64_t u, std::int64_t v, std::int64_t x,
                              std::int64_t y) const {
  if (width_ == 0) return true;
  ROTA_REQUIRE(u >= 0 && u < width_ && v >= 0 && v < height_,
               "window anchor outside the array");
  (void)size_index(x, y);  // validates the window size
  if (dead_count_ == 0) return true;
  for (std::int64_t dv = 0; dv < y; ++dv) {
    const std::int64_t row = (v + dv) % height_;
    for (std::int64_t du = 0; du < x; ++du) {
      const std::int64_t col = (u + du) % width_;
      if (dead_[static_cast<std::size_t>(row * width_ + col)] != 0) {
        return false;
      }
    }
  }
  return true;
}

std::pair<std::int64_t, std::int64_t> ArrayState::anchor(std::int64_t x,
                                                         std::int64_t y) const {
  if (width_ == 0) return {0, 0};
  const std::size_t idx = size_index(x, y);
  ROTA_REQUIRE(fits_[idx] != 0, "anchor() of an infeasible window");
  return {anchor_u_[idx], anchor_v_[idx]};
}

}  // namespace rota::sched
