#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "arch/config.hpp"
#include "obs/metrics.hpp"
#include "sched/array_state.hpp"
#include "sched/schedule.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "wear/masked_policy.hpp"
#include "wear/policy.hpp"
#include "wear/rwl_math.hpp"
#include "wear/simulator.hpp"
#include "wear/usage_tracker.hpp"

namespace rota::wear {
namespace {

using util::precondition_error;

/// Naive reference: add a (possibly wrapping) space cell by cell.
void naive_add(util::Grid<std::int64_t>& grid, std::int64_t u, std::int64_t v,
               std::int64_t x, std::int64_t y, std::int64_t count) {
  const auto w = static_cast<std::int64_t>(grid.width());
  const auto h = static_cast<std::int64_t>(grid.height());
  for (std::int64_t dc = 0; dc < x; ++dc) {
    for (std::int64_t dr = 0; dr < y; ++dr) {
      grid(static_cast<std::size_t>((u + dc) % w),
           static_cast<std::size_t>((v + dr) % h)) += count;
    }
  }
}

// -------------------------------------------------------- usage tracker ----

TEST(UsageTracker, SimpleRectangle) {
  UsageTracker t(5, 4);
  t.add_space(1, 1, 2, 2, 3, false);
  const auto& u = t.usage();
  EXPECT_EQ(u.at(1, 1), 3);
  EXPECT_EQ(u.at(2, 2), 3);
  EXPECT_EQ(u.at(0, 0), 0);
  EXPECT_EQ(u.at(3, 1), 0);
  EXPECT_EQ(t.total_pe_allocations(), 3 * 2 * 2);
}

TEST(UsageTracker, WrapAroundBothAxes) {
  UsageTracker t(5, 4);
  t.add_space(4, 3, 3, 2, 1, true);  // wraps right and top
  const auto& u = t.usage();
  // Columns {4, 0, 1} × rows {3, 0} covered.
  for (std::int64_t c : {4, 0, 1})
    for (std::int64_t r : {3, 0})
      EXPECT_EQ(u.at(static_cast<std::size_t>(c),
                     static_cast<std::size_t>(r)),
                1)
          << c << ',' << r;
  EXPECT_EQ(u.at(2, 0), 0);
  EXPECT_EQ(u.at(4, 1), 0);
}

TEST(UsageTracker, MeshRejectsWrap) {
  UsageTracker t(5, 4);
  EXPECT_THROW(t.add_space(4, 0, 2, 1, 1, false), precondition_error);
  EXPECT_THROW(t.add_space(0, 3, 1, 2, 1, false), precondition_error);
  EXPECT_NO_THROW(t.add_space(3, 2, 2, 2, 1, false));
}

TEST(UsageTracker, RejectsOutOfRangeArguments) {
  UsageTracker t(5, 4);
  EXPECT_THROW(t.add_space(-1, 0, 1, 1, 1, true), precondition_error);
  EXPECT_THROW(t.add_space(0, 4, 1, 1, 1, true), precondition_error);
  EXPECT_THROW(t.add_space(0, 0, 6, 1, 1, true), precondition_error);
  EXPECT_THROW(t.add_space(0, 0, 1, 5, 1, true), precondition_error);
  EXPECT_THROW(t.add_space(0, 0, 1, 1, -1, true), precondition_error);
}

TEST(UsageTracker, ZeroCountIsNoOp) {
  UsageTracker t(3, 3);
  t.add_space(0, 0, 2, 2, 0, true);
  EXPECT_EQ(t.stats().max, 0);
  EXPECT_EQ(t.total_pe_allocations(), 0);
}

TEST(UsageTracker, UniformAddition) {
  UsageTracker t(3, 2);
  t.add_uniform(7);
  t.add_space(0, 0, 1, 1, 2, false);
  EXPECT_EQ(t.usage().at(0, 0), 9);
  EXPECT_EQ(t.usage().at(2, 1), 7);
  EXPECT_EQ(t.total_pe_allocations(), 7 * 6 + 2);
}

TEST(UsageTracker, ClearResets) {
  UsageTracker t(3, 2);
  t.add_space(0, 0, 3, 2, 5, false);
  t.add_uniform(1);
  t.clear();
  EXPECT_EQ(t.stats().max, 0);
  EXPECT_EQ(t.total_pe_allocations(), 0);
}

TEST(UsageTracker, StatsBasics) {
  UsageTracker t(2, 2);
  t.add_space(0, 0, 1, 1, 10, false);
  t.add_space(1, 1, 1, 1, 4, false);
  const UsageStats s = t.stats();
  EXPECT_EQ(s.max, 10);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max_diff, 10);
  EXPECT_TRUE(std::isinf(s.r_diff));  // min == 0
  EXPECT_DOUBLE_EQ(s.mean, 14.0 / 4.0);
}

TEST(UsageTracker, RDiffFiniteWhenMinPositive) {
  UsageTracker t(2, 1);
  t.add_space(0, 0, 2, 1, 4, false);
  t.add_space(1, 0, 1, 1, 1, false);
  const UsageStats s = t.stats();
  EXPECT_EQ(s.min, 4);
  EXPECT_EQ(s.max_diff, 1);
  EXPECT_DOUBLE_EQ(s.r_diff, 0.25);
}

TEST(UsageTracker, PerfectlyLevelHasZeroRDiff) {
  UsageTracker t(4, 4);
  t.add_uniform(9);
  EXPECT_DOUBLE_EQ(t.stats().r_diff, 0.0);
  EXPECT_EQ(t.stats().max_diff, 0);
}

/// Property: the difference-array implementation matches the naive
/// per-cell reference for random wrapped placements.
TEST(UsageTracker, MatchesNaiveReferenceOnRandomPlacements) {
  util::SplitMix64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t w = 1 + static_cast<std::int64_t>(rng.next_below(12));
    const std::int64_t h = 1 + static_cast<std::int64_t>(rng.next_below(12));
    UsageTracker t(w, h);
    util::Grid<std::int64_t> ref(static_cast<std::size_t>(w),
                                 static_cast<std::size_t>(h));
    for (int i = 0; i < 30; ++i) {
      const std::int64_t u =
          static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
      const std::int64_t v =
          static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
      const std::int64_t x =
          1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
      const std::int64_t y =
          1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
      const std::int64_t count =
          static_cast<std::int64_t>(rng.next_below(4));
      t.add_space(u, v, x, y, count, true);
      naive_add(ref, u, v, x, y, count);
    }
    EXPECT_TRUE(t.usage() == ref) << "trial " << trial;
  }
}

TEST(UsageTracker, AddSpacesMatchesPerTileAddSpace) {
  util::SplitMix64 rng(3131);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t w = 1 + static_cast<std::int64_t>(rng.next_below(12));
    const std::int64_t h = 1 + static_cast<std::int64_t>(rng.next_below(12));
    const std::int64_t x =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
    const std::int64_t y =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
    const std::int64_t weight =
        1 + static_cast<std::int64_t>(rng.next_below(5));
    std::vector<Placement> origins;
    const std::size_t tiles = 1 + rng.next_below(50);
    for (std::size_t i = 0; i < tiles; ++i) {
      origins.push_back(
          {static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w))),
           static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)))});
    }
    UsageTracker batched(w, h);
    UsageTracker reference(w, h);
    batched.add_spaces(origins.data(), origins.size(), x, y, weight, true);
    for (const Placement& at : origins) {
      reference.add_space(at.u, at.v, x, y, weight, true);
    }
    EXPECT_TRUE(batched.usage() == reference.usage()) << "trial " << trial;
    EXPECT_EQ(batched.total_pe_allocations(),
              reference.total_pe_allocations());
  }
}

TEST(UsageTracker, AddSpacesBadOriginLeavesTrackerUnchanged) {
  UsageTracker t(6, 6);
  t.add_space(1, 1, 2, 2, 3, true);
  const std::int64_t total = t.total_pe_allocations();
  const Placement origins[] = {{0, 0}, {2, 2}, {6, 0}};  // last out of range
  EXPECT_THROW(t.add_spaces(origins, 3, 2, 2, 1, true), precondition_error);
  EXPECT_EQ(t.total_pe_allocations(), total);
  EXPECT_EQ(t.stats().max, 3);  // only the original space is recorded
}

TEST(UsageTracker, AddSpacesOverflowThrowsBeforeMutation) {
  UsageTracker t(4, 4);
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max() / 2;
  const Placement origins[] = {{0, 0}, {1, 1}};
  EXPECT_THROW(t.add_spaces(origins, 2, 2, 2, huge, true),
               util::invariant_error);
  EXPECT_EQ(t.total_pe_allocations(), 0);
  EXPECT_EQ(t.stats().max, 0);
}

TEST(UsageTracker, AmortizedBudgetStaysExactNearOverflow) {
  // Drive the counter close to INT64_MAX with add_uniform, then keep
  // allocating through the amortized add_space path: totals must stay
  // exact and the eventual overflow must still throw.
  UsageTracker t(2, 2);
  const std::int64_t near =
      std::numeric_limits<std::int64_t>::max() / 4 - 10;
  t.add_uniform(near);  // total = 4·near
  std::int64_t expected = 4 * near;
  for (int i = 0; i < 8; ++i) {
    t.add_space(0, 0, 1, 1, 1, true);  // slow or amortized path, both exact
    expected += 1;
    ASSERT_EQ(t.total_pe_allocations(), expected);
  }
  EXPECT_THROW(t.add_uniform(20), util::invariant_error);
  EXPECT_EQ(t.total_pe_allocations(), expected);
}

TEST(UsageTracker, AddCellsMatchesRepeatedAddition) {
  UsageTracker delta(5, 4);
  delta.add_space(3, 2, 4, 3, 2, true);  // wraps both axes
  delta.add_space(0, 0, 1, 1, 5, false);
  UsageTracker jumped(5, 4);
  UsageTracker stepped(5, 4);
  jumped.add_space(1, 1, 2, 2, 1, false);
  stepped.add_space(1, 1, 2, 2, 1, false);
  jumped.add_cells(delta.usage().cells(), 7);
  for (int k = 0; k < 7; ++k) {
    stepped.add_space(3, 2, 4, 3, 2, true);
    stepped.add_space(0, 0, 1, 1, 5, false);
  }
  EXPECT_EQ(jumped.usage().cells(), stepped.usage().cells());
  EXPECT_EQ(jumped.total_pe_allocations(), stepped.total_pe_allocations());
  // Still usable afterwards, with a coherent overflow budget.
  jumped.add_space(4, 3, 5, 4, 3, true);
  stepped.add_space(4, 3, 5, 4, 3, true);
  EXPECT_EQ(jumped.usage().cells(), stepped.usage().cells());
}

TEST(UsageTracker, AddCellsRejectsBadInputBeforeMutation) {
  UsageTracker t(3, 2);
  t.add_space(0, 0, 3, 2, 1, false);
  const std::vector<std::int64_t> before = t.usage().cells();
  EXPECT_THROW(t.add_cells({1, 2, 3}, 1), precondition_error);  // size
  EXPECT_THROW(t.add_cells({1, 0, 0, -1, 0, 0}, 1), precondition_error);
  EXPECT_THROW(t.add_cells({1, 0, 0, 0, 0, 0}, -1), precondition_error);
  EXPECT_THROW(t.add_cells({1, 0, 0, 0, 0, 0},
                           std::numeric_limits<std::int64_t>::max()),
               util::invariant_error);  // total overflow
  EXPECT_EQ(t.usage().cells(), before);
  EXPECT_EQ(t.total_pe_allocations(), 6);
}

// ------------------------------------------------------------- RWL math ----

TEST(RwlMath, PaperWorkedExampleResNetC5) {
  // §IV-C / Fig. 5: ResNet C5 with 8×8 spaces and Z = 32 tiles on the
  // 14×12 Eyeriss array: lcm(14,8) = 56, X = 7, W = 4, Y = 4, H_RWL = 2.
  const RwlDerived d = rwl_derive({14, 12, 8, 8, 32});
  EXPECT_EQ(d.strides_x, 7);
  EXPECT_EQ(d.unfold_w, 4);
  EXPECT_EQ(d.strides_y, 4);
  EXPECT_EQ(d.unfold_h, 2);
  EXPECT_EQ(d.d_max_bound, 5);  // W + 1
}

TEST(RwlMath, UnfoldIdentity) {
  // X·x == W·w == lcm(w, x) by construction.
  for (std::int64_t w : {5, 8, 12, 14, 16}) {
    for (std::int64_t x = 1; x <= w; ++x) {
      const RwlDerived d = rwl_derive({w, 12, x, 4, 100});
      EXPECT_EQ(d.strides_x * x, d.unfold_w * w);
    }
  }
}

TEST(RwlMath, DivisibleSpaceNeedsNoUnfolding) {
  // x | w → one pass across the array levels it: W = 1, X = w/x.
  const RwlDerived d = rwl_derive({12, 12, 4, 4, 9});
  EXPECT_EQ(d.strides_x, 3);
  EXPECT_EQ(d.unfold_w, 1);
}

TEST(RwlMath, ZeroTilesYieldsZeroCoverage) {
  // z = 0: no strides taken, nothing leveled, bound degenerates to 0.
  const RwlDerived d = rwl_derive({14, 12, 8, 8, 0});
  EXPECT_EQ(d.strides_x, 7);   // Eqs. (5)–(6) depend only on (w, x)
  EXPECT_EQ(d.unfold_w, 4);
  EXPECT_EQ(d.strides_y, 0);
  EXPECT_EQ(d.unfold_h, 0);
  EXPECT_EQ(d.min_a_pe, 0);
  EXPECT_DOUBLE_EQ(d.r_diff_bound, 0.0);
}

TEST(RwlMath, SpaceEqualToArrayIsSingleStride) {
  // x = w: lcm(w, w) = w, so one stride levels a whole band (X = W = 1)
  // and the bound collapses to D_max <= 2.
  const RwlDerived d = rwl_derive({14, 12, 14, 4, 33});
  EXPECT_EQ(d.strides_x, 1);
  EXPECT_EQ(d.unfold_w, 1);
  EXPECT_EQ(d.strides_y, 33);
  EXPECT_EQ(d.unfold_h, 33 * 4 / 12);
  EXPECT_EQ(d.d_max_bound, 2);

  // Cross-check against the naive per-tile simulator path.
  UsageTracker t(14, 12);
  auto policy = make_policy(PolicyKind::kRwl, 14, 12);
  const sched::UtilSpace space{14, 4};
  policy->begin_layer(space);
  for (std::int64_t i = 0; i < 33; ++i) {
    const Placement at = policy->next_origin(space);
    EXPECT_EQ(at.u, 0);  // full-width space can only anchor at column 0
    t.add_space(at.u, at.v, 14, 4, 1, true);
  }
  const UsageStats st = t.stats();
  EXPECT_LE(st.max_diff, d.d_max_bound);
  EXPECT_GE(st.min, d.min_a_pe);
}

TEST(RwlMath, NontrivialGcdCosetsMatchSimulator) {
  // gcd(w, x) = 4: the horizontal stride lattice has 4 cosets and only
  // w/gcd = 3 distinct origins per band; the closed forms must still
  // bound the simulated wear exactly.
  const RwlParams p{12, 10, 8, 4, 47};
  const RwlDerived d = rwl_derive(p);
  EXPECT_EQ(d.strides_x, 3);  // lcm(12,8)/8
  EXPECT_EQ(d.unfold_w, 2);   // lcm(12,8)/12
  EXPECT_EQ(period_tiles(p), (12 / 4) * (10 / 2));
  EXPECT_EQ(uniform_per_period(p), (8 / 4) * (4 / 2));

  UsageTracker t(12, 10);
  auto policy = make_policy(PolicyKind::kRwl, 12, 10);
  const sched::UtilSpace space{8, 4};
  policy->begin_layer(space);
  for (std::int64_t i = 0; i < p.z; ++i) {
    const Placement at = policy->next_origin(space);
    EXPECT_EQ(at.u % 4, 0);  // origins stay on the gcd-coset through 0
    t.add_space(at.u, at.v, 8, 4, 1, true);
  }
  const UsageStats st = t.stats();
  EXPECT_LE(st.max_diff, d.d_max_bound);
  EXPECT_GE(st.min, d.min_a_pe);
}

TEST(RwlMath, ArrayScalingSweepStaysExactUpToNearOverflow) {
  // Fig. 10 scales the array; push the same shapes to lcm magnitudes near
  // INT64_MAX. With w = 2^k and x = 2^k − 1 coprime, lcm = w·x ≈ 2^(2k);
  // the unfold identity X·x == W·w must hold exactly (no silent wrap).
  for (int k : {10, 20, 30, 31}) {
    const std::int64_t w = std::int64_t{1} << k;
    const RwlParams p{w, 12, w - 1, 8, 100};
    const RwlDerived d = rwl_derive(p);
    EXPECT_EQ(d.strides_x, w);      // lcm/(w−1)
    EXPECT_EQ(d.unfold_w, w - 1);   // lcm/w
    EXPECT_EQ(d.strides_x * (w - 1), d.unfold_w * w) << "k=" << k;
  }
  // One doubling further the lcm exceeds INT64_MAX: the math must throw
  // rather than report a wrapped (wrong) leveling bound.
  const std::int64_t w32 = std::int64_t{1} << 32;
  EXPECT_THROW((void)rwl_derive({w32, 12, w32 - 1, 8, 100}),
               util::invariant_error);
}

TEST(UsageTracker, AllocationCounterOverflowThrows) {
  // count·x·y beyond int64 must throw, not wrap the conservation counter.
  UsageTracker t(4, 4);
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max() / 2;
  EXPECT_THROW(t.add_space(0, 0, 2, 2, huge, true), util::invariant_error);
  EXPECT_THROW(t.add_uniform(huge), util::invariant_error);
}

TEST(RwlMath, RejectsOversizedSpace) {
  EXPECT_THROW((void)rwl_derive({14, 12, 15, 8, 10}), precondition_error);
  EXPECT_THROW((void)rwl_derive({14, 12, 8, 13, 10}), precondition_error);
  EXPECT_THROW((void)rwl_derive({0, 12, 1, 1, 10}), precondition_error);
}

TEST(RwlMath, PeriodCoversLatticeOnce) {
  // period · x · y == uniform · w · h (total coverage consistency).
  util::SplitMix64 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t w = 2 + static_cast<std::int64_t>(rng.next_below(20));
    const std::int64_t h = 2 + static_cast<std::int64_t>(rng.next_below(20));
    const std::int64_t x =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
    const std::int64_t y =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
    const RwlParams p{w, h, x, y, 1};
    EXPECT_EQ(period_tiles(p) * x * y, uniform_per_period(p) * w * h);
  }
}

/// Property (drives the fast-forward): one period of the stride policy,
/// started from ANY phase, covers every PE exactly uniform_per_period
/// times and returns the stride state to where it began.
TEST(RwlMath, PeriodIsUniformFromAnyPhase) {
  util::SplitMix64 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t w = 2 + static_cast<std::int64_t>(rng.next_below(14));
    const std::int64_t h = 2 + static_cast<std::int64_t>(rng.next_below(14));
    const std::int64_t x =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
    const std::int64_t y =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
    const RwlParams p{w, h, x, y, 0};
    const std::int64_t period = period_tiles(p);
    const std::int64_t phase =
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(period)));

    auto policy = make_policy(PolicyKind::kRwlRo, w, h);
    const sched::UtilSpace space{x, y};
    policy->begin_layer(space);
    for (std::int64_t i = 0; i < phase; ++i) policy->next_origin(space);

    const Placement before = [&] {
      auto probe = policy->clone();
      return probe->next_origin(space);
    }();

    UsageTracker t(w, h);
    for (std::int64_t i = 0; i < period; ++i) {
      const Placement at = policy->next_origin(space);
      t.add_space(at.u, at.v, x, y, 1, true);
    }
    const UsageStats st = t.stats();
    EXPECT_EQ(st.max_diff, 0) << "w" << w << " h" << h << " x" << x << " y"
                              << y << " phase " << phase;
    EXPECT_EQ(st.min, uniform_per_period(p));

    const Placement after = [&] {
      auto probe = policy->clone();
      return probe->next_origin(space);
    }();
    EXPECT_EQ(before.u, after.u);
    EXPECT_EQ(before.v, after.v);
  }
}

/// Property (drives the sub-period wrapped fast-forward): from u == 0, one
/// X-sweep covers the band [v, v+y) exactly uniform_per_sweep times, every
/// other PE not at all, returns u to 0 and advances v by y exactly once.
TEST(RwlMath, SweepIsUniformBandFromColumnZero) {
  util::SplitMix64 rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t w = 2 + static_cast<std::int64_t>(rng.next_below(14));
    const std::int64_t h = 2 + static_cast<std::int64_t>(rng.next_below(14));
    const std::int64_t x =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
    const std::int64_t y =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
    const RwlParams p{w, h, x, y, 0};
    const std::int64_t sweep = sweep_tiles(p);
    EXPECT_EQ(sweep * x, uniform_per_sweep(p) * w);  // coverage consistency

    // Walk one sweep per-tile from a fresh policy (u = 0, v = 0).
    auto policy = make_policy(PolicyKind::kRwl, w, h);
    const sched::UtilSpace space{x, y};
    policy->begin_layer(space);
    util::Grid<std::int64_t> grid(static_cast<std::size_t>(w),
                                  static_cast<std::size_t>(h));
    grid.fill(0);
    for (std::int64_t i = 0; i < sweep; ++i) {
      const Placement at = policy->next_origin(space);
      naive_add(grid, at.u, at.v, x, y, 1);
    }
    for (std::int64_t c = 0; c < w; ++c) {
      for (std::int64_t r = 0; r < h; ++r) {
        const std::int64_t expected =
            (r - 0 + h) % h < y ? uniform_per_sweep(p) : 0;
        ASSERT_EQ(grid(static_cast<std::size_t>(c),
                       static_cast<std::size_t>(r)),
                  expected)
            << "w" << w << " h" << h << " x" << x << " y" << y << " PE (" << c
            << "," << r << ")";
      }
    }
    const Placement next = policy->next_origin(space);
    EXPECT_EQ(next.u, 0);
    EXPECT_EQ(next.v, y % h);
  }
}

/// tiles_to_column_zero agrees with literally striding until u == 0, for
/// every on-lattice start column — including gcd(w, x) > 1 cosets.
TEST(RwlMath, TilesToColumnZeroMatchesStrideWalk) {
  util::SplitMix64 rng(4321);
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t w = 2 + static_cast<std::int64_t>(rng.next_below(40));
    const std::int64_t x =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
    const std::int64_t g = util::gcd(w, x);
    for (std::int64_t u = 0; u < w; u += g) {
      const std::int64_t k = tiles_to_column_zero(w, x, u);
      std::int64_t walked = 0;
      std::int64_t col = u;
      while (col != 0) {
        col = (col + x) % w;
        ++walked;
      }
      EXPECT_EQ(k, walked) << "w" << w << " x" << x << " u" << u;
    }
  }
}

TEST(RwlMath, TilesToColumnZeroRejectsOffLatticeColumn) {
  // gcd(14, 8) = 2: odd columns never reach 0.
  EXPECT_THROW((void)tiles_to_column_zero(14, 8, 5), precondition_error);
}

// ------------------------------------------------------------- policies ----

sched::LayerSchedule layer_of(std::int64_t x, std::int64_t y,
                              std::int64_t tiles, const char* name = "l") {
  sched::LayerSchedule ls;
  ls.layer_name = name;
  ls.space = sched::UtilSpace{x, y};
  ls.tiles = tiles;
  ls.compute_macs_per_pe = 1;
  ls.reduction_steps = 1;
  return ls;
}

TEST(Policy, BaselineAlwaysAnchorsAtOrigin) {
  auto p = make_policy(PolicyKind::kBaseline, 14, 12);
  const sched::UtilSpace space{5, 3};
  p->begin_layer(space);
  for (int i = 0; i < 10; ++i) {
    const Placement at = p->next_origin(space);
    EXPECT_EQ(at.u, 0);
    EXPECT_EQ(at.v, 0);
  }
  EXPECT_FALSE(p->requires_torus());
}

/// 1-indexed reference implementation transcribed verbatim from
/// Algorithm 1 of the paper: u ← (u + x − 1) % w + 1, and a vertical
/// stride when u == 1 (the origin loops back to the leftmost PE).
class Algorithm1Reference {
 public:
  Algorithm1Reference(std::int64_t w, std::int64_t h) : w_(w), h_(h) {}

  void begin_layer(std::int64_t x, std::int64_t y) {
    x_ = x;
    y_ = y;
  }

  Placement next() {
    const Placement at{u_ - 1, v_ - 1};  // convert to 0-indexed
    u_ = (u_ + x_ - 1) % w_ + 1;
    if (u_ == 1) v_ = (v_ + y_ - 1) % h_ + 1;
    return at;
  }

 private:
  std::int64_t w_;
  std::int64_t h_;
  std::int64_t x_ = 1;
  std::int64_t y_ = 1;
  std::int64_t u_ = 1;
  std::int64_t v_ = 1;
};

TEST(Policy, RwlRoMatchesAlgorithm1AcrossLayers) {
  util::SplitMix64 rng(4);
  const std::int64_t w = 14;
  const std::int64_t h = 12;
  auto policy = make_policy(PolicyKind::kRwlRo, w, h);
  Algorithm1Reference ref(w, h);
  for (int layer = 0; layer < 12; ++layer) {
    const std::int64_t x =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
    const std::int64_t y =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
    const std::int64_t z = 1 + static_cast<std::int64_t>(rng.next_below(60));
    const sched::UtilSpace space{x, y};
    policy->begin_layer(space);
    ref.begin_layer(x, y);
    for (std::int64_t i = 0; i < z; ++i) {
      const Placement got = policy->next_origin(space);
      const Placement want = ref.next();
      ASSERT_EQ(got.u, want.u) << "layer " << layer << " tile " << i;
      ASSERT_EQ(got.v, want.v) << "layer " << layer << " tile " << i;
    }
  }
}

TEST(Policy, RwlResetsEveryLayerButRwlRoDoesNot) {
  const sched::UtilSpace space{5, 4};
  auto rwl = make_policy(PolicyKind::kRwl, 14, 12);
  auto ro = make_policy(PolicyKind::kRwlRo, 14, 12);
  for (auto* p : {rwl.get(), ro.get()}) {
    p->begin_layer(space);
    for (int i = 0; i < 3; ++i) p->next_origin(space);
  }
  rwl->begin_layer(space);
  ro->begin_layer(space);
  const Placement r = rwl->next_origin(space);
  const Placement o = ro->next_origin(space);
  EXPECT_EQ(r.u, 0);
  EXPECT_EQ(r.v, 0);
  EXPECT_NE(o.u, 0);  // three 5-wide strides: u = 15 % 14 = 1
}

TEST(Policy, StrideSequenceMatchesPaperExample) {
  // w = 14, x = 8: origins 0, 8, 16%14=2, 10, 4, 12, 6, then back to 0
  // with a vertical stride — seven strides as X = lcm(14,8)/8 = 7.
  auto p = make_policy(PolicyKind::kRwl, 14, 12);
  const sched::UtilSpace space{8, 8};
  p->begin_layer(space);
  const std::int64_t expected_u[] = {0, 8, 2, 10, 4, 12, 6, 0};
  for (int i = 0; i < 8; ++i) {
    const Placement at = p->next_origin(space);
    EXPECT_EQ(at.u, expected_u[i]) << i;
    EXPECT_EQ(at.v, i < 7 ? 0 : 8);
  }
}

TEST(Policy, CloneIsIndependent) {
  auto p = make_policy(PolicyKind::kRwlRo, 14, 12);
  const sched::UtilSpace space{5, 4};
  p->begin_layer(space);
  p->next_origin(space);
  auto q = p->clone();
  const Placement a = p->next_origin(space);
  const Placement b = q->next_origin(space);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.v, b.v);
  p->next_origin(space);  // advancing p must not affect q
  const Placement c = q->next_origin(space);
  EXPECT_EQ(c.u, (b.u + 5) % 14);
}

TEST(Policy, RandomStartDeterministicPerSeed) {
  auto a = make_policy(PolicyKind::kRandomStart, 14, 12, 42);
  auto b = make_policy(PolicyKind::kRandomStart, 14, 12, 42);
  const sched::UtilSpace space{3, 3};
  for (int i = 0; i < 50; ++i) {
    const Placement pa = a->next_origin(space);
    const Placement pb = b->next_origin(space);
    EXPECT_EQ(pa.u, pb.u);
    EXPECT_EQ(pa.v, pb.v);
    EXPECT_GE(pa.u, 0);
    EXPECT_LT(pa.u, 14);
    EXPECT_GE(pa.v, 0);
    EXPECT_LT(pa.v, 12);
  }
}

TEST(Policy, ResetRestoresInitialSequence) {
  for (PolicyKind kind : {PolicyKind::kRwl, PolicyKind::kRwlRo,
                          PolicyKind::kRandomStart,
                          PolicyKind::kDiagonalStride}) {
    auto p = make_policy(kind, 14, 12, 7);
    const sched::UtilSpace space{5, 4};
    p->begin_layer(space);
    std::vector<Placement> first;
    for (int i = 0; i < 8; ++i) first.push_back(p->next_origin(space));
    p->reset();
    p->begin_layer(space);
    for (int i = 0; i < 8; ++i) {
      const Placement at = p->next_origin(space);
      EXPECT_EQ(at.u, first[static_cast<std::size_t>(i)].u) << to_string(kind);
      EXPECT_EQ(at.v, first[static_cast<std::size_t>(i)].v) << to_string(kind);
    }
  }
}

// ------------------------------------------------- paper bound properties ----

/// Eq. (9): after a fresh per-layer RWL pass, D_max <= W + 1; and Eq. (10)
/// never overestimates the simulated minimum usage.
TEST(RwlBounds, Eq9AndEq10HoldOnRandomConfigs) {
  util::SplitMix64 rng(123);
  for (int trial = 0; trial < 400; ++trial) {
    const std::int64_t w = 2 + static_cast<std::int64_t>(rng.next_below(30));
    const std::int64_t h = 2 + static_cast<std::int64_t>(rng.next_below(30));
    const std::int64_t x =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
    const std::int64_t y =
        1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
    const std::int64_t z = 1 + static_cast<std::int64_t>(rng.next_below(2000));
    const RwlDerived d = rwl_derive({w, h, x, y, z});

    UsageTracker t(w, h);
    auto policy = make_policy(PolicyKind::kRwl, w, h);
    const sched::UtilSpace space{x, y};
    policy->begin_layer(space);
    for (std::int64_t i = 0; i < z; ++i) {
      const Placement at = policy->next_origin(space);
      t.add_space(at.u, at.v, x, y, 1, true);
    }
    const UsageStats st = t.stats();
    EXPECT_LE(st.max_diff, d.d_max_bound)
        << "w" << w << " h" << h << " x" << x << " y" << y << " z" << z;
    EXPECT_GE(st.min, d.min_a_pe)
        << "w" << w << " h" << h << " x" << x << " y" << y << " z" << z;
  }
}

// ------------------------------------------------------------ simulator ----

sched::NetworkSchedule tiny_schedule(arch::AcceleratorConfig cfg) {
  sched::NetworkSchedule ns;
  ns.network_name = "tiny";
  ns.network_abbr = "tiny";
  ns.config = std::move(cfg);
  ns.layers.push_back(layer_of(8, 8, 32, "a"));
  ns.layers.push_back(layer_of(5, 12, 17, "b"));
  ns.layers.push_back(layer_of(14, 3, 9, "c"));
  return ns;
}

TEST(Simulator, MeshRejectsTorusPolicies) {
  WearSimulator sim(arch::eyeriss_like());
  auto policy = make_policy(PolicyKind::kRwlRo, 14, 12);
  const auto ns = tiny_schedule(arch::eyeriss_like());
  EXPECT_THROW(sim.run_iteration(ns, *policy), precondition_error);
}

TEST(Simulator, MeshAcceptsBaseline) {
  WearSimulator sim(arch::eyeriss_like());
  auto policy = make_policy(PolicyKind::kBaseline, 14, 12);
  const auto ns = tiny_schedule(arch::eyeriss_like());
  EXPECT_NO_THROW(sim.run_iteration(ns, *policy));
  EXPECT_EQ(sim.tracker().usage().at(0, 0), 32 + 17 + 9);
}

TEST(Simulator, RejectsMismatchedPolicyDimensions) {
  WearSimulator sim(arch::rota_like());
  auto policy = make_policy(PolicyKind::kRwlRo, 10, 10);
  const auto ns = tiny_schedule(arch::rota_like());
  EXPECT_THROW(sim.run_iteration(ns, *policy), precondition_error);
}

TEST(Simulator, SamplerCalledOncePerIteration) {
  WearSimulator sim(arch::rota_like());
  auto policy = make_policy(PolicyKind::kRwlRo, 14, 12);
  const auto ns = tiny_schedule(arch::rota_like());
  std::vector<std::int64_t> seen;
  sim.run_iterations(ns, *policy, 5,
                     [&](std::int64_t it, const UsageTracker&) {
                       seen.push_back(it);
                     });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

/// The exact-periodicity fast-forward must be bit-identical to the naive
/// per-tile path for every policy that implements it.
TEST(Simulator, FastForwardMatchesNaivePath) {
  util::SplitMix64 rng(555);
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kRwl,
                          PolicyKind::kRwlRo}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::int64_t w = 3 + static_cast<std::int64_t>(rng.next_below(14));
      const std::int64_t h = 3 + static_cast<std::int64_t>(rng.next_below(14));
      arch::AcceleratorConfig cfg = arch::rota_like();
      cfg.array_width = w;
      cfg.array_height = h;

      sched::NetworkSchedule ns;
      ns.network_name = "rand";
      ns.network_abbr = "rand";
      ns.config = cfg;
      const int layer_count = 1 + static_cast<int>(rng.next_below(5));
      for (int l = 0; l < layer_count; ++l) {
        const std::int64_t x =
            1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(w)));
        const std::int64_t y =
            1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(h)));
        const std::int64_t z =
            1 + static_cast<std::int64_t>(rng.next_below(900));
        std::string lname = "l";
        lname += std::to_string(l);
        ns.layers.push_back(layer_of(x, y, z, lname.c_str()));
      }

      WearSimulator fast(cfg, SimulatorOptions{true});
      WearSimulator naive(cfg, SimulatorOptions{false});
      auto pf = make_policy(kind, w, h);
      auto pn = make_policy(kind, w, h);
      fast.run_iterations(ns, *pf, 3);
      naive.run_iterations(ns, *pn, 3);
      EXPECT_TRUE(fast.tracker().usage() == naive.tracker().usage())
          << to_string(kind) << " trial " << trial;
    }
  }
}

TEST(Simulator, FastForwardMatchesNaiveInFrozenBandState) {
  // RWL+RO can enter a state whose horizontal coordinate is off the
  // column-0 stride lattice of the next layer (gcd(w, x) does not divide
  // u): v freezes and the fast path levels a horizontal band instead of
  // the whole array. Construct that state deliberately: layer A (x = 5,
  // one tile) leaves u = 5; layer B has x = 8 on w = 14 (gcd 2, 5 is odd).
  sched::NetworkSchedule ns;
  ns.config = arch::rota_like();
  ns.layers.push_back(layer_of(5, 4, 1, "odd_shift"));
  ns.layers.push_back(layer_of(8, 7, 300, "frozen_band"));

  WearSimulator fast(arch::rota_like(), SimulatorOptions{true});
  WearSimulator naive(arch::rota_like(), SimulatorOptions{false});
  auto pf = make_policy(PolicyKind::kRwlRo, 14, 12);
  auto pn = make_policy(PolicyKind::kRwlRo, 14, 12);
  fast.run_iterations(ns, *pf, 3);
  naive.run_iterations(ns, *pn, 3);
  EXPECT_TRUE(fast.tracker().usage() == naive.tracker().usage());

  // Sanity: the frozen layer really could not advance v — rows outside
  // its band plus the first layer's rows stay at low usage.
  const auto st = naive.tracker().stats();
  EXPECT_GT(st.max_diff, 0);
}

TEST(Simulator, FastForwardMatchesNaiveAcrossOddEvenLayerMixes) {
  // Random walks through layers with mixed gcd structure, so both bulk
  // branches (full-lattice and frozen-band) interleave.
  util::SplitMix64 rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    sched::NetworkSchedule ns;
    ns.config = arch::rota_like();
    const int layers = 4 + static_cast<int>(rng.next_below(5));
    for (int l = 0; l < layers; ++l) {
      const std::int64_t x =
          1 + static_cast<std::int64_t>(rng.next_below(14));
      const std::int64_t y =
          1 + static_cast<std::int64_t>(rng.next_below(12));
      const std::int64_t z =
          1 + static_cast<std::int64_t>(rng.next_below(600));
      std::string lname = "l";
      lname += std::to_string(l);
      ns.layers.push_back(layer_of(x, y, z, lname.c_str()));
    }
    WearSimulator fast(arch::rota_like(), SimulatorOptions{true});
    WearSimulator naive(arch::rota_like(), SimulatorOptions{false});
    auto pf = make_policy(PolicyKind::kRwlRo, 14, 12);
    auto pn = make_policy(PolicyKind::kRwlRo, 14, 12);
    fast.run_iterations(ns, *pf, 5);
    naive.run_iterations(ns, *pn, 5);
    EXPECT_TRUE(fast.tracker().usage() == naive.tracker().usage())
        << "trial " << trial;
  }
}

TEST(Simulator, AllocationConservation) {
  // Every policy records exactly Σ Z·x·y PE-allocations per iteration.
  const auto ns = tiny_schedule(arch::rota_like());
  std::int64_t expected = 0;
  for (const auto& l : ns.layers) expected += l.tiles * l.space.x * l.space.y;
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kRwl,
                          PolicyKind::kRwlRo, PolicyKind::kRandomStart,
                          PolicyKind::kDiagonalStride}) {
    WearSimulator sim(arch::rota_like());
    auto policy = make_policy(kind, 14, 12);
    sim.run_iterations(ns, *policy, 4);
    EXPECT_EQ(sim.tracker().total_pe_allocations(), 4 * expected)
        << to_string(kind);
    std::int64_t grid_sum = 0;
    for (std::int64_t v : sim.tracker().usage().cells()) grid_sum += v;
    EXPECT_EQ(grid_sum, 4 * expected) << to_string(kind);
  }
}

TEST(Simulator, RwlRoBoundsUsageDifferenceOverIterations) {
  // Fig. 6b: with RWL+RO the max usage difference stays bounded while the
  // baseline's grows linearly in the iteration count.
  const auto ns = tiny_schedule(arch::rota_like());
  WearSimulator ro_sim(arch::rota_like());
  auto ro = make_policy(PolicyKind::kRwlRo, 14, 12);
  std::int64_t ro_worst = 0;
  ro_sim.run_iterations(ns, *ro, 200,
                        [&](std::int64_t, const UsageTracker& t) {
                          ro_worst = std::max(ro_worst, t.stats().max_diff);
                        });

  WearSimulator base_sim(arch::rota_like());
  auto base = make_policy(PolicyKind::kBaseline, 14, 12);
  base_sim.run_iterations(ns, *base, 200);
  const std::int64_t base_final = base_sim.tracker().stats().max_diff;

  EXPECT_LT(ro_worst * 20, base_final);
}

TEST(Simulator, ActiveCycleMetricScalesCountersUniformly) {
  // For a schedule whose layers share one weight, cycle-weighted usage is
  // exactly the allocation-counted usage times that weight.
  sched::NetworkSchedule ns;
  ns.config = arch::rota_like();
  auto layer = layer_of(8, 8, 40, "a");
  layer.compute_macs_per_pe = 6;
  layer.reduction_steps = 2;
  layer.allocations_per_tile = 3;
  ns.layers.push_back(layer);

  wear::WearSimulator alloc_sim(
      arch::rota_like(), SimulatorOptions{true, WearMetric::kAllocations});
  wear::WearSimulator cyc_sim(
      arch::rota_like(), SimulatorOptions{true, WearMetric::kActiveCycles});
  auto p1 = make_policy(PolicyKind::kRwlRo, 14, 12);
  auto p2 = make_policy(PolicyKind::kRwlRo, 14, 12);
  alloc_sim.run_iterations(ns, *p1, 3);
  cyc_sim.run_iterations(ns, *p2, 3);

  const std::int64_t weight = 6 * 2 * 3;
  const auto& a = alloc_sim.tracker().usage();
  const auto& c = cyc_sim.tracker().usage();
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    EXPECT_EQ(c.cells()[i], a.cells()[i] * weight);
  }
}

TEST(Simulator, ActiveCycleFastForwardMatchesNaive) {
  sched::NetworkSchedule ns;
  ns.config = arch::rota_like();
  for (int l = 0; l < 3; ++l) {
    auto layer = layer_of(3 + 2 * l, 5 + l, 57 + 13 * l,
                          ("l" + std::to_string(l)).c_str());
    layer.layer_name = "l" + std::to_string(l);
    layer.compute_macs_per_pe = 2 + l;
    layer.reduction_steps = 1 + l;
    layer.allocations_per_tile = 1 + 2 * l;
    ns.layers.push_back(layer);
  }
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kRwl,
                          PolicyKind::kRwlRo}) {
    wear::WearSimulator fast(
        arch::rota_like(), SimulatorOptions{true, WearMetric::kActiveCycles});
    wear::WearSimulator naive(
        arch::rota_like(), SimulatorOptions{false, WearMetric::kActiveCycles});
    auto pf = make_policy(kind, 14, 12);
    auto pn = make_policy(kind, 14, 12);
    fast.run_iterations(ns, *pf, 4);
    naive.run_iterations(ns, *pn, 4);
    EXPECT_TRUE(fast.tracker().usage() == naive.tracker().usage())
        << to_string(kind);
  }
}

TEST(Simulator, OversizedSpaceRejected) {
  WearSimulator sim(arch::rota_like());
  auto policy = make_policy(PolicyKind::kRwlRo, 14, 12);
  sched::NetworkSchedule ns;
  ns.config = arch::rota_like();
  ns.layers.push_back(layer_of(15, 3, 4));
  EXPECT_THROW(sim.run_layer(ns.layers[0], *policy), precondition_error);
}

// ------------------------------------------------ iteration-period jump ----

/// Three layers with distinct per-tile weights, so the active-cycle
/// metric differs from the allocation count.
sched::NetworkSchedule weighted_schedule() {
  sched::NetworkSchedule ns = tiny_schedule(arch::rota_like());
  for (std::size_t l = 0; l < ns.layers.size(); ++l) {
    const auto k = static_cast<std::int64_t>(l);
    ns.layers[l].compute_macs_per_pe = 2 + k;
    ns.layers[l].reduction_steps = 1 + k;
    ns.layers[l].allocations_per_tile = 1 + 2 * k;
  }
  return ns;
}

/// The first repeated iteration-boundary state: the iteration `at` where
/// it first occurred and the period P after which it recurs — what the
/// simulator detects. The probe steps the same per-layer bulk paths as
/// run_iterations (a masked bulk path can leave a different rotation state
/// than the per-tile path, see below).
struct BoundaryCycle {
  std::int64_t at = 0;
  std::int64_t period = 0;
};

BoundaryCycle boundary_period(const sched::NetworkSchedule& ns,
                              const Policy& policy) {
  WearSimulator sim(ns.config);
  const auto probe = policy.clone();
  std::map<std::vector<std::uint64_t>, std::int64_t> seen;
  seen.emplace(probe->pack_state(), 0);
  for (std::int64_t it = 1;; ++it) {
    sim.run_iteration(ns, *probe);
    const auto [at, fresh] = seen.emplace(probe->pack_state(), it);
    if (!fresh) return {at->second, it - at->second};
  }
}

/// Iterations run_iterations jumps, from the cycle alone: a recurring start
/// state (at == 0) jumps once P iterations remain after its detection,
/// any other state once 2P remain (it steps one more period first).
std::int64_t expected_skipped(BoundaryCycle cycle, std::int64_t iterations) {
  const std::int64_t p = cycle.period;
  const std::int64_t detected = cycle.at + p;
  if (cycle.at == 0) {
    return iterations - detected >= p ? (iterations - detected) / p * p : 0;
  }
  if (iterations - detected < 2 * p) return 0;
  return (iterations - detected - p) / p * p;
}

/// Counter deltas of the global registry across a scope.
class CounterProbe {
 public:
  CounterProbe() : was_enabled_(reg().enabled()) { reg().set_enabled(true); }
  ~CounterProbe() { reg().set_enabled(was_enabled_); }
  CounterProbe(const CounterProbe&) = delete;
  CounterProbe& operator=(const CounterProbe&) = delete;
  [[nodiscard]] std::int64_t skipped() const {
    return reg().counter("wear.iterations_fast_forwarded") - base_;
  }

 private:
  static obs::MetricsRegistry& reg() { return obs::MetricsRegistry::global(); }
  bool was_enabled_;
  std::int64_t base_ = reg().counter("wear.iterations_fast_forwarded");
};

using DeadSet = std::vector<std::pair<std::int64_t, std::int64_t>>;

std::unique_ptr<Policy> masked(PolicyKind kind, const DeadSet& dead) {
  return std::make_unique<MaskedPolicy>(make_policy(kind, 14, 12),
                                        sched::ArrayState(14, 12, dead));
}

TEST(Simulator, IterationJumpMatchesLiteralSteppingExactly) {
  const sched::NetworkSchedule ns = weighted_schedule();
  const std::vector<DeadSet> dead_sets = {
      {}, {{3, 3}}, {{3, 3}, {10, 7}}, {{3, 3}, {10, 7}, {6, 1}}};
  const auto ignore = [](std::int64_t, const UsageTracker&) {};
  for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kRwl,
                          PolicyKind::kRwlRo, PolicyKind::kDiagonalStride}) {
    for (std::size_t d = 0; d < dead_sets.size(); ++d) {
      const std::string name = to_string(kind) + " dead=" + std::to_string(d);
      const auto prototype = d == 0 ? make_policy(kind, 14, 12)
                                    : masked(kind, dead_sets[d]);
      ASSERT_TRUE(prototype->pack_state_is_complete()) << name;
      const BoundaryCycle cycle = boundary_period(ns, *prototype);
      const std::int64_t period = cycle.period;
      // Detection needs the cycle inside the simulator's w·h+1 state cap.
      ASSERT_LE(cycle.at + period, 14 * 12 + 1) << name;
      // Intact stride orbits are periodic from the start state; RWL's
      // per-layer reset makes the state after pass 1 the recurring one.
      if (d == 0) {
        EXPECT_EQ(cycle.at, kind == PolicyKind::kRwl ? 1 : 0) << name;
      }
      for (WearMetric metric :
           {WearMetric::kAllocations, WearMetric::kActiveCycles}) {
        for (std::int64_t iterations :
             {std::int64_t{1}, period - 1, period, period + 1,
              2 * period - 1, 2 * period, 2 * period + 3, 3 * period - 1,
              3 * period, std::int64_t{1000}}) {
          const std::string what = name + " at=" + std::to_string(cycle.at) +
                                   " P=" + std::to_string(period) +
                                   " iterations=" + std::to_string(iterations);
          WearSimulator jumped(arch::rota_like(),
                               SimulatorOptions{true, metric});
          auto pj = prototype->clone();
          const CounterProbe probe;
          jumped.run_iterations(ns, *pj, iterations);
          EXPECT_EQ(probe.skipped(), expected_skipped(cycle, iterations))
              << what;
          if (iterations == 1000) {
            EXPECT_GT(probe.skipped(), 0) << what;
          }

          // Literal iteration stepping over the same per-layer paths (a
          // sampler forces it): the jump must be invisible.
          WearSimulator stepped(arch::rota_like(),
                                SimulatorOptions{true, metric});
          auto ps = prototype->clone();
          stepped.run_iterations(ns, *ps, iterations, ignore);
          EXPECT_EQ(jumped.tracker().usage().cells(),
                    stepped.tracker().usage().cells())
              << what;
          EXPECT_EQ(jumped.tracker().total_pe_allocations(),
                    stepped.tracker().total_pe_allocations())
              << what;
          EXPECT_EQ(pj->pack_state(), ps->pack_state()) << what;

          // The per-tile reference. MaskedPolicy's bulk path on a degraded
          // mask leaves the inner rotation state at the cycle start after
          // a whole number of passes over the feasible origins, where the
          // per-tile path leaves it one step past the last feasible one,
          // so a masked stride policy can drift from its per-tile
          // reference independently of the iteration jump.
          if (d > 0 && kind != PolicyKind::kBaseline) continue;
          WearSimulator literal(arch::rota_like(),
                                SimulatorOptions{false, metric});
          auto pl = prototype->clone();
          literal.run_iterations(ns, *pl, iterations);
          EXPECT_EQ(jumped.tracker().usage().cells(),
                    literal.tracker().usage().cells())
              << what;
          EXPECT_EQ(pj->pack_state(), pl->pack_state()) << what;
        }
      }
    }
  }
}

TEST(Simulator, RandomStartNeverJumps) {
  const sched::NetworkSchedule ns = tiny_schedule(arch::rota_like());
  auto policy = make_policy(PolicyKind::kRandomStart, 14, 12, 5);
  EXPECT_FALSE(policy->pack_state_is_complete());
  EXPECT_FALSE(masked(PolicyKind::kRandomStart, {{2, 2}})
                   ->pack_state_is_complete());
  WearSimulator sim(arch::rota_like());
  const CounterProbe probe;
  sim.run_iterations(ns, *policy, 300);
  EXPECT_EQ(probe.skipped(), 0);
}

TEST(Simulator, SampledRunsStepLiterally) {
  const sched::NetworkSchedule ns = tiny_schedule(arch::rota_like());
  auto sampled = make_policy(PolicyKind::kRwlRo, 14, 12);
  auto plain = make_policy(PolicyKind::kRwlRo, 14, 12);
  WearSimulator sampled_sim(arch::rota_like());
  WearSimulator plain_sim(arch::rota_like());
  std::int64_t calls = 0;
  const CounterProbe probe;
  sampled_sim.run_iterations(ns, *sampled, 1000,
                             [&](std::int64_t it, const UsageTracker&) {
                               EXPECT_EQ(it, ++calls);
                             });
  EXPECT_EQ(calls, 1000);
  EXPECT_EQ(probe.skipped(), 0);
  plain_sim.run_iterations(ns, *plain, 1000);  // period 168: jumps
  EXPECT_GT(probe.skipped(), 0);
  EXPECT_EQ(sampled_sim.tracker().usage().cells(),
            plain_sim.tracker().usage().cells());
}

/// The six per-layer `wear.*` counters of the global registry.
struct LayerCounts {
  std::int64_t layers = 0;
  std::int64_t tiles_fast_forwarded = 0;
  std::int64_t tiles_per_tile = 0;
  std::int64_t fast_forward_hits = 0;
  std::int64_t fast_forward_misses = 0;
  std::int64_t counter_updates = 0;

  bool operator==(const LayerCounts&) const = default;
};

void PrintTo(const LayerCounts& c, std::ostream* os) {
  *os << "{layers " << c.layers << ", ff " << c.tiles_fast_forwarded
      << ", per-tile " << c.tiles_per_tile << ", hits " << c.fast_forward_hits
      << ", misses " << c.fast_forward_misses << ", updates "
      << c.counter_updates << "}";
}

LayerCounts read_layer_counters() {
  const auto& reg = obs::MetricsRegistry::global();
  return {reg.counter("wear.layers"),
          reg.counter("wear.tiles_fast_forwarded"),
          reg.counter("wear.tiles_per_tile"),
          reg.counter("wear.fast_forward_hits"),
          reg.counter("wear.fast_forward_misses"),
          reg.counter("wear.counter_updates")};
}

LayerCounts operator-(LayerCounts a, const LayerCounts& b) {
  a.layers -= b.layers;
  a.tiles_fast_forwarded -= b.tiles_fast_forwarded;
  a.tiles_per_tile -= b.tiles_per_tile;
  a.fast_forward_hits -= b.fast_forward_hits;
  a.fast_forward_misses -= b.fast_forward_misses;
  a.counter_updates -= b.counter_updates;
  return a;
}

/// Adds what one layer contributes to the counters, from the schedule and
/// a probe policy kept in step with the simulated one: the probe's bulk
/// path (if the simulator uses it) consumes what it can, the rest are
/// per-tile placements.
void add_expected(const sched::LayerSchedule& layer, Policy& probe,
                  UsageTracker& scratch, bool fast_forward,
                  LayerCounts& sum) {
  probe.begin_layer(layer.space);
  const std::int64_t bulk =
      fast_forward ? probe.bulk_process(layer.space, layer.tiles, scratch,
                                        true, 1)
                   : 0;
  for (std::int64_t t = bulk; t < layer.tiles; ++t) {
    (void)probe.next_origin(layer.space);
  }
  ++sum.layers;
  sum.tiles_fast_forwarded += bulk;
  sum.tiles_per_tile += layer.tiles - bulk;
  if (bulk > 0) ++sum.fast_forward_hits;
  if (layer.tiles - bulk > 0) ++sum.fast_forward_misses;
  sum.counter_updates += layer.tiles * layer.space.x * layer.space.y;
}

TEST(Simulator, LayerCountersEqualTheirPerLayerSums) {
  const sched::NetworkSchedule ns = weighted_schedule();
  const std::size_t n_layers = ns.layers.size();
  const auto ignore = [](std::int64_t, const UsageTracker&) {};
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  for (const bool fast_forward : {true, false}) {
    for (const DeadSet& dead : {DeadSet{}, DeadSet{{3, 3}, {10, 7}}}) {
      const auto prototype = dead.empty()
                                 ? make_policy(PolicyKind::kRwlRo, 14, 12)
                                 : masked(PolicyKind::kRwlRo, dead);
      const std::string what =
          std::string(fast_forward ? "bulk" : "per-tile") +
          " dead=" + std::to_string(dead.size());
      WearSimulator sim(
          arch::rota_like(),
          SimulatorOptions{fast_forward, WearMetric::kActiveCycles});
      const auto policy = prototype->clone();
      const auto probe = prototype->clone();
      UsageTracker scratch(14, 12);
      const CounterProbe enable;

      // Seven run_layer calls, cycling through the schedule's layers.
      LayerCounts expected;
      LayerCounts base = read_layer_counters();
      for (std::size_t i = 0; i < 7; ++i) {
        const sched::LayerSchedule& layer = ns.layers[i % n_layers];
        sim.run_layer(layer, *policy);
        add_expected(layer, *probe, scratch, fast_forward, expected);
      }
      EXPECT_EQ(read_layer_counters() - base, expected)
          << what << " run_layer";

      // One run_iteration.
      expected = {};
      base = read_layer_counters();
      sim.run_iteration(ns, *policy);
      for (const auto& layer : ns.layers) {
        add_expected(layer, *probe, scratch, fast_forward, expected);
      }
      EXPECT_EQ(read_layer_counters() - base, expected)
          << what << " run_iteration";

      // A sampled run steps every iteration literally.
      expected = {};
      base = read_layer_counters();
      sim.run_iterations(ns, *policy, 5, ignore);
      for (int it = 0; it < 5; ++it) {
        for (const auto& layer : ns.layers) {
          add_expected(layer, *probe, scratch, fast_forward, expected);
        }
      }
      EXPECT_EQ(read_layer_counters() - base, expected)
          << what << " run_iterations";
      EXPECT_EQ(expected.layers, 5 * static_cast<std::int64_t>(n_layers));
      EXPECT_EQ(policy->pack_state(), probe->pack_state()) << what;
      hits += expected.fast_forward_hits;
      misses += expected.fast_forward_misses;
    }
  }
  // The cases reach both the bulk and the per-tile path.
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

}  // namespace
}  // namespace rota::wear
