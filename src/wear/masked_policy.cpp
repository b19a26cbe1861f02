#include "wear/masked_policy.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/safe_math.hpp"

namespace rota::wear {

namespace {

void require_mask_matches(const Policy& inner, const sched::ArrayState& mask) {
  if (!mask.concrete()) return;
  ROTA_REQUIRE(mask.width() == inner.width() &&
                   mask.height() == inner.height(),
               "mask is " + std::to_string(mask.width()) + "x" +
                   std::to_string(mask.height()) + " but the policy array is " +
                   std::to_string(inner.width()) + "x" +
                   std::to_string(inner.height()));
}

}  // namespace

MaskedPolicy::MaskedPolicy(std::unique_ptr<Policy> inner,
                           sched::ArrayState mask)
    : Policy(inner ? inner->width() : 1, inner ? inner->height() : 1),
      inner_(std::move(inner)),
      mask_(std::move(mask)) {
  ROTA_REQUIRE(inner_ != nullptr, "MaskedPolicy needs an inner policy");
  require_mask_matches(*inner_, mask_);
}

std::string MaskedPolicy::name() const { return inner_->name() + "+masked"; }

bool MaskedPolicy::requires_torus() const {
  // Feasible windows and fallback anchors wrap freely, so a degraded mask
  // needs the torus even when the inner policy would not.
  return inner_->requires_torus() || mask_.dead_count() > 0;
}

void MaskedPolicy::begin_layer(const sched::UtilSpace& space) {
  inner_->begin_layer(space);
}

void MaskedPolicy::set_mask(sched::ArrayState mask) {
  ROTA_REQUIRE(!mask.concrete() || (mask.width() == inner_->width() &&
                                    mask.height() == inner_->height()),
               "mask is " + std::to_string(mask.width()) + "x" +
                   std::to_string(mask.height()) +
                   " but the policy array is " +
                   std::to_string(inner_->width()) + "x" +
                   std::to_string(inner_->height()));
  mask_ = std::move(mask);
}

std::int64_t MaskedPolicy::probe_limit() const {
  // Deterministic policies emit a pure origin cycle of length ≤ w·h (the
  // state transition is invertible over at most w·h states), so w·h
  // probes are guaranteed to visit every reachable origin. RandomStart
  // has no cycle; 4·w·h probes make a miss astronomically unlikely while
  // keeping the fallback deterministic.
  const std::int64_t cells = width() * height();
  return kind() == PolicyKind::kRandomStart ? 4 * cells : cells;
}

Placement MaskedPolicy::next_origin(const sched::UtilSpace& space) {
  if (mask_.dead_count() == 0) return inner_->next_origin(space);
  const std::int64_t limit = probe_limit();
  for (std::int64_t i = 0; i < limit; ++i) {
    const Placement p = inner_->next_origin(space);
    if (mask_.window_clear(p.u, p.v, space.x, space.y)) return p;
  }
  ROTA_REQUIRE(mask_.fits(space.x, space.y),
               "no live " + std::to_string(space.x) + "x" +
                   std::to_string(space.y) +
                   " window on the degraded array — the schedule must be "
                   "rebuilt before simulating");
  const auto [u, v] = mask_.anchor(space.x, space.y);
  return {u, v};
}

std::int64_t MaskedPolicy::bulk_process(const sched::UtilSpace& space,
                                        std::int64_t tiles,
                                        UsageTracker& tracker, bool allow_wrap,
                                        std::int64_t weight) {
  if (mask_.dead_count() == 0) {
    return inner_->bulk_process(space, tiles, tracker, allow_wrap, weight);
  }
  if (!allow_wrap) return 0;  // degraded anchors wrap; torus only
  if (kind() == PolicyKind::kRandomStart) return 0;  // no cycle to batch
  if (tiles <= 0) return 0;

  // Discover the inner origin cycle on a clone so the real state is only
  // advanced by the exact number of raw steps the per-tile path consumes.
  const std::int64_t cells = width() * height();
  const auto probe = inner_->clone();
  std::vector<Placement> cycle;
  const Placement start = probe->next_origin(space);
  cycle.push_back(start);
  while (static_cast<std::int64_t>(cycle.size()) <= cells) {
    const Placement p = probe->next_origin(space);
    if (p.u == start.u && p.v == start.v) break;
    cycle.push_back(p);
  }
  const auto length = static_cast<std::int64_t>(cycle.size());
  if (length > cells) return 0;  // not a pure cycle; keep the slow path

  std::vector<Placement> feasible;
  std::vector<std::int64_t> position;
  for (std::int64_t k = 0; k < length; ++k) {
    if (mask_.window_clear(cycle[static_cast<std::size_t>(k)].u,
                           cycle[static_cast<std::size_t>(k)].v, space.x,
                           space.y)) {
      feasible.push_back(cycle[static_cast<std::size_t>(k)]);
      position.push_back(k);
    }
  }

  const auto advance_raw = [&](std::int64_t steps) {
    for (std::int64_t i = 0; i < steps; ++i) inner_->next_origin(space);
  };

  if (feasible.empty()) {
    // Every tile exhausts the probe limit and lands on the fallback
    // anchor; each consumes probe_limit() raw steps of the cycle.
    ROTA_REQUIRE(mask_.fits(space.x, space.y),
                 "no live window on the degraded array — the schedule must "
                 "be rebuilt before simulating");
    const auto [u, v] = mask_.anchor(space.x, space.y);
    tracker.add_space(u, v, space.x, space.y, util::checked_mul(tiles, weight),
                      allow_wrap);
    advance_raw(((tiles % length) * (probe_limit() % length)) % length);
    return tiles;
  }

  // Per-tile, the k-th tile of a pass gets the k-th feasible origin. Whole
  // passes are treated as state-neutral and only the remainder advances;
  // the per-tile path instead ends a whole pass one raw step past the
  // last feasible origin (see the header), which differs unless that
  // origin closes the cycle.
  const auto live = static_cast<std::int64_t>(feasible.size());
  const std::int64_t passes = tiles / live;
  const std::int64_t rest = tiles % live;
  if (passes > 0) {
    tracker.add_spaces(feasible.data(), feasible.size(), space.x, space.y,
                       util::checked_mul(passes, weight), allow_wrap);
  }
  if (rest > 0) {
    tracker.add_spaces(feasible.data(), static_cast<std::size_t>(rest),
                       space.x, space.y, weight, allow_wrap);
    advance_raw(position[static_cast<std::size_t>(rest - 1)] + 1);
  }
  return tiles;
}

std::unique_ptr<Policy> MaskedPolicy::clone() const {
  return std::make_unique<MaskedPolicy>(inner_->clone(), mask_);
}

}  // namespace rota::wear
