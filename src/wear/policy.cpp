#include "wear/policy.hpp"

#include "util/check.hpp"
#include "util/math.hpp"
#include "util/safe_math.hpp"
#include "wear/rwl_math.hpp"

namespace rota::wear {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kBaseline: return "Baseline";
    case PolicyKind::kRwl: return "RWL";
    case PolicyKind::kRwlRo: return "RWL+RO";
    case PolicyKind::kRandomStart: return "RandomStart";
    case PolicyKind::kDiagonalStride: return "DiagonalStride";
  }
  ROTA_UNREACHABLE("unhandled PolicyKind");
}

Policy::Policy(std::int64_t width, std::int64_t height)
    : width_(width), height_(height) {
  ROTA_REQUIRE(width > 0 && height > 0, "policy dimensions must be positive");
}

std::int64_t Policy::bulk_process(const sched::UtilSpace&, std::int64_t,
                                  UsageTracker&, bool, std::int64_t) {
  return 0;  // default: no fast path
}

void Policy::unpack_state(const std::vector<std::uint64_t>& state) {
  ROTA_REQUIRE(state.empty(),
               "policy " + name() + " carries no serializable state but got " +
                   std::to_string(state.size()) + " words");
}

namespace {

// ---------------------------------------------------------------------------
// Baseline: every utilization space anchored at the lower-left corner.
// ---------------------------------------------------------------------------
class BaselinePolicy final : public Policy {
 public:
  using Policy::Policy;

  std::string name() const override { return to_string(kind()); }
  PolicyKind kind() const override { return PolicyKind::kBaseline; }
  bool requires_torus() const override { return false; }
  void begin_layer(const sched::UtilSpace&) override {}
  Placement next_origin(const sched::UtilSpace&) override { return {0, 0}; }
  void reset() override {}
  bool pack_state_is_complete() const override { return true; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<BaselinePolicy>(*this);
  }

  std::int64_t bulk_process(const sched::UtilSpace& space, std::int64_t tiles,
                            UsageTracker& tracker, bool allow_wrap,
                            std::int64_t weight) override {
    tracker.add_space(0, 0, space.x, space.y, util::checked_mul(tiles, weight),
                      allow_wrap);
    return tiles;
  }
};

// ---------------------------------------------------------------------------
// Rotational striding shared by RWL and RWL+RO — the literal Algorithm 1:
// after each tile the origin strides right by x (mod w); when the
// horizontal coordinate loops back to the leftmost column (u == 0, the
// paper's u == 1 in 1-indexed form), the origin strides up by y (mod h).
// RWL resets the origin at every layer; RWL+RO relays it across layers
// (residual optimization).
//
// The absolute column-0 trigger matters: it makes successive inference
// iterations interfere instead of merely translating one fixed wear
// pattern around the torus, which is what disperses the per-layer
// residues "in an unbiased fashion" (§IV-D). A layer whose stride lattice
// misses column 0 (gcd(w, x) does not divide the entry coordinate) keeps
// v frozen for that layer and levels its horizontal band only — the next
// layer's geometry moves the band on.
// ---------------------------------------------------------------------------
class StridePolicy : public Policy {
 public:
  using Policy::Policy;

  bool requires_torus() const override { return true; }

  void begin_layer(const sched::UtilSpace&) override {
    if (reset_per_layer()) {
      u_ = 0;
      v_ = 0;
    }
  }

  Placement next_origin(const sched::UtilSpace& space) override {
    const Placement here{u_, v_};
    u_ = (u_ + space.x) % width();
    if (u_ == 0) v_ = (v_ + space.y) % height();
    return here;
  }

  void reset() override {
    u_ = 0;
    v_ = 0;
  }

  std::int64_t bulk_process(const sched::UtilSpace& space, std::int64_t tiles,
                            UsageTracker& tracker, bool allow_wrap,
                            std::int64_t weight) override {
    if (!allow_wrap) return 0;
    const RwlParams params{width(), height(), space.x, space.y, tiles};
    const std::int64_t g = util::gcd(width(), space.x);
    const std::int64_t strides_x = sweep_tiles(params);  // X of Eq. (5)
    if (u_ % g != 0) {
      // Column 0 unreachable: v stays frozen and X-sweeps cover the
      // horizontal band [v, v+y) uniformly, x/g times per PE each.
      if (tiles < strides_x) return 0;
      const std::int64_t sweeps = tiles / strides_x;
      tracker.add_space(
          0, v_, width(), space.y,
          util::checked_mul(util::checked_mul(sweeps, uniform_per_sweep(params)),
                            weight),
          allow_wrap);
      return sweeps * strides_x;
    }

    // The trajectory passes through column 0. Decompose the tile stream
    // into (A) whole periods — each covers the full origin lattice exactly
    // once, uniform over every PE, and restores (u, v); (B) a per-tile
    // alignment run to column 0; (C) whole X-sweeps — each covers the band
    // [v, v+y) uniformly and steps v by y once; (D) a sub-sweep tail left
    // to the caller's per-tile reference path.
    std::int64_t consumed = 0;
    const std::int64_t period = period_tiles(params);
    if (tiles >= period) {
      const std::int64_t periods = tiles / period;
      tracker.add_uniform(util::checked_mul(
          util::checked_mul(periods, uniform_per_period(params)), weight));
      consumed += periods * period;
    }

    // Aligning costs < strides_x per-tile updates — the same price the
    // caller would pay — so only do it when at least one whole sweep
    // follows to recoup it.
    const std::int64_t align = tiles_to_column_zero(width(), space.x, u_);
    if (tiles - consumed < align + strides_x) return consumed;
    for (std::int64_t i = 0; i < align; ++i) {
      tracker.add_space(u_, v_, space.x, space.y, weight, allow_wrap);
      u_ = (u_ + space.x) % width();
      if (u_ == 0) v_ = (v_ + space.y) % height();
    }
    consumed += align;

    const std::int64_t sweeps = (tiles - consumed) / strides_x;
    const std::int64_t band_count =
        util::checked_mul(uniform_per_sweep(params), weight);
    for (std::int64_t s = 0; s < sweeps; ++s) {
      tracker.add_space(0, v_, width(), space.y, band_count, allow_wrap);
      v_ = (v_ + space.y) % height();
    }
    consumed += sweeps * strides_x;
    return consumed;
  }

  std::vector<std::uint64_t> pack_state() const override {
    return {static_cast<std::uint64_t>(u_), static_cast<std::uint64_t>(v_)};
  }

  bool pack_state_is_complete() const override { return true; }

  void unpack_state(const std::vector<std::uint64_t>& state) override {
    ROTA_REQUIRE(state.size() == 2, "stride policy state is two words");
    const auto u = static_cast<std::int64_t>(state[0]);
    const auto v = static_cast<std::int64_t>(state[1]);
    ROTA_REQUIRE(u >= 0 && u < width() && v >= 0 && v < height(),
                 "stride policy state outside the array");
    u_ = u;
    v_ = v;
  }

 protected:
  virtual bool reset_per_layer() const = 0;

 private:
  std::int64_t u_ = 0;
  std::int64_t v_ = 0;
};

class RwlPolicy final : public StridePolicy {
 public:
  using StridePolicy::StridePolicy;
  std::string name() const override { return to_string(kind()); }
  PolicyKind kind() const override { return PolicyKind::kRwl; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RwlPolicy>(*this);
  }

 protected:
  bool reset_per_layer() const override { return true; }
};

class RwlRoPolicy final : public StridePolicy {
 public:
  using StridePolicy::StridePolicy;
  std::string name() const override { return to_string(kind()); }
  PolicyKind kind() const override { return PolicyKind::kRwlRo; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RwlRoPolicy>(*this);
  }

 protected:
  bool reset_per_layer() const override { return false; }
};

// ---------------------------------------------------------------------------
// RandomStart: uniformly random origin for every tile (ablation). Needs the
// torus because random origins wrap; converges to level wear only in
// expectation, with a √t-growing usage spread.
// ---------------------------------------------------------------------------
class RandomStartPolicy final : public Policy {
 public:
  RandomStartPolicy(std::int64_t width, std::int64_t height,
                    std::uint64_t seed)
      : Policy(width, height), seed_(seed), rng_(seed) {}

  std::string name() const override { return to_string(kind()); }
  PolicyKind kind() const override { return PolicyKind::kRandomStart; }
  bool requires_torus() const override { return true; }
  void begin_layer(const sched::UtilSpace&) override {}

  Placement next_origin(const sched::UtilSpace&) override {
    return {static_cast<std::int64_t>(
                rng_.next_below(static_cast<std::uint64_t>(width()))),
            static_cast<std::int64_t>(
                rng_.next_below(static_cast<std::uint64_t>(height())))};
  }

  void reset() override { rng_ = util::SplitMix64(seed_); }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RandomStartPolicy>(*this);
  }

  std::vector<std::uint64_t> pack_state() const override {
    return {rng_.state()};
  }

  void unpack_state(const std::vector<std::uint64_t>& state) override {
    ROTA_REQUIRE(state.size() == 1, "RandomStart state is one word");
    rng_.set_state(state[0]);
  }

 private:
  std::uint64_t seed_;
  util::SplitMix64 rng_;
};

// ---------------------------------------------------------------------------
// DiagonalStride: u and v advance together after every tile (ablation).
// Covers only the diagonal sub-lattice of origins, so PEs off that lattice
// wear-level poorly — a counterexample motivating the paper's band order.
// ---------------------------------------------------------------------------
class DiagonalStridePolicy final : public Policy {
 public:
  using Policy::Policy;

  std::string name() const override { return to_string(kind()); }
  PolicyKind kind() const override { return PolicyKind::kDiagonalStride; }
  bool requires_torus() const override { return true; }
  void begin_layer(const sched::UtilSpace&) override {}

  Placement next_origin(const sched::UtilSpace& space) override {
    const Placement here{u_, v_};
    u_ = (u_ + space.x) % width();
    v_ = (v_ + space.y) % height();
    return here;
  }

  void reset() override {
    u_ = 0;
    v_ = 0;
  }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<DiagonalStridePolicy>(*this);
  }

  std::vector<std::uint64_t> pack_state() const override {
    return {static_cast<std::uint64_t>(u_), static_cast<std::uint64_t>(v_)};
  }

  bool pack_state_is_complete() const override { return true; }

  void unpack_state(const std::vector<std::uint64_t>& state) override {
    ROTA_REQUIRE(state.size() == 2, "DiagonalStride state is two words");
    const auto u = static_cast<std::int64_t>(state[0]);
    const auto v = static_cast<std::int64_t>(state[1]);
    ROTA_REQUIRE(u >= 0 && u < width() && v >= 0 && v < height(),
                 "DiagonalStride state outside the array");
    u_ = u;
    v_ = v;
  }

 private:
  std::int64_t u_ = 0;
  std::int64_t v_ = 0;
};

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind, std::int64_t width,
                                    std::int64_t height, std::uint64_t seed) {
  switch (kind) {
    case PolicyKind::kBaseline:
      return std::make_unique<BaselinePolicy>(width, height);
    case PolicyKind::kRwl:
      return std::make_unique<RwlPolicy>(width, height);
    case PolicyKind::kRwlRo:
      return std::make_unique<RwlRoPolicy>(width, height);
    case PolicyKind::kRandomStart:
      return std::make_unique<RandomStartPolicy>(width, height, seed);
    case PolicyKind::kDiagonalStride:
      return std::make_unique<DiagonalStridePolicy>(width, height);
  }
  ROTA_UNREACHABLE("unhandled PolicyKind");
}

}  // namespace rota::wear
