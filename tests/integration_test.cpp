#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "nn/workloads.hpp"
#include "reliability/array_reliability.hpp"
#include "sim/engine.hpp"
#include "wear/rwl_math.hpp"

/// Cross-module integration and end-to-end property tests: these exercise
/// the full stack (workloads → mapper → wear simulator → reliability) the
/// same way the benches do, with scaled-down iteration counts.

namespace rota {
namespace {

using wear::PolicyKind;

// ----------------------------------------------------- work conservation ----

TEST(Integration, TrackerTotalsMatchScheduleArithmetic) {
  Experiment exp({arch::rota_like(), 7});
  const auto res = exp.run(nn::make_mobilenet_v3(),
                           {PolicyKind::kBaseline, PolicyKind::kRwlRo});
  std::int64_t expected = 0;
  for (const auto& l : res.schedule.layers)
    expected += l.tiles * l.space.x * l.space.y;
  expected *= res.iterations;
  for (const auto& run : res.runs) {
    std::int64_t sum = 0;
    for (std::int64_t v : run.usage.cells()) sum += v;
    EXPECT_EQ(sum, expected) << run.policy_name;
  }
}

// -------------------------------------------- per-layer upper bound (Fig 9) ----

TEST(Integration, PerLayerImprovementRespectsTheoreticalBound) {
  // Run per-layer RWL on single-layer "networks" and compare the measured
  // improvement with the §V-C bound utilization^{1/β−1}.
  Experiment exp({arch::rota_like(), 100});
  sched::Mapper& mapper = exp.mapper();
  const auto net = nn::make_squeezenet();
  for (const auto& layer : net.layers()) {
    const auto ls = mapper.schedule_layer(layer);
    nn::Network single("single:" + layer.name, "one",
                       nn::Domain::kLightweight);
    single.add(layer);
    const auto res =
        exp.run(single, {PolicyKind::kBaseline, PolicyKind::kRwl});
    const double gain = res.improvement_over_baseline(PolicyKind::kRwl);
    const double bound = rel::perfect_wl_upper_bound(
        ls.utilization(exp.config().accel), exp.config().beta);
    EXPECT_LE(gain, bound * (1.0 + 1e-9)) << layer.name;
    EXPECT_GE(gain, 1.0 - 1e-9) << layer.name;
  }
}

TEST(Integration, RwlApproachesBoundOnDivisorFriendlyLayer) {
  // An 7×12 space on the 14×12 array levels perfectly (X = 2): per-layer
  // RWL should sit essentially on the bound.
  Experiment exp({arch::rota_like(), 50});
  nn::Network single("divisor", "one", nn::Domain::kLightweight);
  single.add(nn::gemm("g", 12, 7 * 64, 256));
  const auto res = exp.run(single, {PolicyKind::kBaseline, PolicyKind::kRwl});
  const auto& ls = res.schedule.layers.at(0);
  const double gain = res.improvement_over_baseline(PolicyKind::kRwl);
  const double bound = rel::perfect_wl_upper_bound(
      ls.utilization(exp.config().accel), exp.config().beta);
  EXPECT_GT(gain, 0.9 * bound);
}

// ---------------------------------------------------- policy comparisons ----

TEST(Integration, PolicyOrderingOnLightweightNetwork) {
  // Paper Fig. 8 discussion: on small networks residual accumulation hurts
  // RWL-only, so Baseline <= RWL <= RWL+RO after enough iterations.
  Experiment exp({arch::rota_like(), 400});
  const auto res = exp.run(
      nn::make_mobilenet_v3(),
      {PolicyKind::kBaseline, PolicyKind::kRwl, PolicyKind::kRwlRo});
  const double rwl = res.improvement_over_baseline(PolicyKind::kRwl);
  const double ro = res.improvement_over_baseline(PolicyKind::kRwlRo);
  EXPECT_GT(rwl, 1.0);
  EXPECT_GE(ro, rwl - 1e-9);
}

TEST(Integration, RandomStartLevelsWorseThanRwlRo) {
  // Random anchoring levels in expectation but keeps a √t spread; the
  // deterministic lattice should dominate it at equal work.
  Experiment exp({arch::rota_like(), 60});
  const auto res = exp.run(nn::make_squeezenet(),
                           {PolicyKind::kBaseline, PolicyKind::kRwlRo,
                            PolicyKind::kRandomStart});
  const double ro = res.improvement_over_baseline(PolicyKind::kRwlRo);
  const double rnd = res.improvement_over_baseline(PolicyKind::kRandomStart);
  EXPECT_GT(rnd, 1.0);       // random still beats the fixed corner
  EXPECT_GE(ro, rnd - 1e-9); // but not the rotational lattice
  const PolicyRun* ro_run = res.find_run(PolicyKind::kRwlRo);
  const PolicyRun* rnd_run = res.find_run(PolicyKind::kRandomStart);
  ASSERT_NE(ro_run, nullptr);
  ASSERT_NE(rnd_run, nullptr);
  EXPECT_LE(ro_run->stats.max_diff, rnd_run->stats.max_diff);
}

TEST(Integration, DiagonalStrideLeavesLatticeGapsOnAlignedGeometry) {
  // The diagonal ablation shows why the paper's band-major order matters:
  // when x | w and y | h and the strides advance together, the origin
  // visits only the diagonal sub-lattice {(i·x, i·y)} and entire regions
  // of the array are never touched. Band-major RWL+RO covers the full
  // product lattice. A 12×12 array with a 6×6 space is the minimal case:
  // diagonal hits (0,0) and (6,6) only, so (0..5, 6..11) stays cold.
  arch::AcceleratorConfig cfg = arch::rota_like();
  cfg.array_width = 12;
  cfg.array_height = 12;
  // Aggregate-initialize: assigning the short strings after default
  // construction trips a GCC 12 -Wmaybe-uninitialized false positive at
  // -O3.
  sched::NetworkSchedule ns{"aligned", "al", cfg, {}};
  sched::LayerSchedule l;
  l.layer_name = "l0";
  l.space = {6, 6};
  l.tiles = 400;
  ns.layers.push_back(l);

  wear::WearSimulator diag_sim(cfg);
  auto diag = wear::make_policy(PolicyKind::kDiagonalStride, 12, 12);
  diag_sim.run_iteration(ns, *diag);
  wear::WearSimulator ro_sim(cfg);
  auto ro = wear::make_policy(PolicyKind::kRwlRo, 12, 12);
  ro_sim.run_iteration(ns, *ro);

  EXPECT_EQ(diag_sim.tracker().stats().min, 0);  // cold quadrants
  EXPECT_GT(ro_sim.tracker().stats().min, 0);
  EXPECT_LT(ro_sim.tracker().stats().max_diff,
            diag_sim.tracker().stats().max_diff);
}

// ----------------------------------------------------- Fig. 10 trend ----

TEST(Integration, LargerArraysGiveMoreImprovement) {
  const auto net = nn::make_squeezenet();
  auto improvement_at = [&](std::int64_t side) {
    ExperimentConfig cfg;
    cfg.accel = arch::scaled_array(side, arch::TopologyKind::kTorus2D);
    cfg.iterations = 60;
    Experiment exp(cfg);
    const auto res =
        exp.run(net, {PolicyKind::kBaseline, PolicyKind::kRwlRo});
    return res.improvement_over_baseline(PolicyKind::kRwlRo);
  };
  const double at8 = improvement_at(8);
  const double at24 = improvement_at(24);
  EXPECT_GT(at24, at8);
}

// -------------------------------------------- timing is policy-independent ----

TEST(Integration, WearLevelingCostsZeroCycles) {
  // Same schedule, mesh vs torus: identical execution cycles, and the
  // counter update hides under compute in every layer (paper §V-D).
  sched::Mapper mapper(arch::eyeriss_like(), sched::ObjectiveSpec{});
  const auto ns = mapper.schedule_network(nn::make_efficientnet_b0());
  const sim::ExecutionEngine mesh_engine(arch::eyeriss_like());
  const sim::ExecutionEngine torus_engine(arch::rota_like());
  EXPECT_DOUBLE_EQ(mesh_engine.network_cycles(ns),
                   torus_engine.network_cycles(ns));
  for (const auto& layer : ns.layers) {
    EXPECT_TRUE(torus_engine.estimate_layer(layer).controller_update_hidden);
  }
}

// ------------------------------------------------------- RWL math anchor ----

TEST(Integration, ScheduledLayersSatisfyRwlBoundsEndToEnd) {
  // Take real scheduled utilization spaces (not synthetic ones) and check
  // the Eq. 9 / Eq. 10 bounds against fresh per-layer RWL simulation.
  sched::Mapper mapper(arch::rota_like(), sched::ObjectiveSpec{});
  const auto ns = mapper.schedule_network(nn::make_squeezenet());
  for (const auto& l : ns.layers) {
    const std::int64_t z = std::min<std::int64_t>(l.tiles, 5000);
    const wear::RwlParams params{14, 12, l.space.x, l.space.y, z};
    const wear::RwlDerived d = wear::rwl_derive(params);
    wear::UsageTracker t(14, 12);
    auto policy = wear::make_policy(PolicyKind::kRwl, 14, 12);
    const sched::UtilSpace space{l.space.x, l.space.y};
    policy->begin_layer(space);
    for (std::int64_t i = 0; i < z; ++i) {
      const auto at = policy->next_origin(space);
      t.add_space(at.u, at.v, space.x, space.y, 1, true);
    }
    const auto st = t.stats();
    EXPECT_LE(st.max_diff, d.d_max_bound) << l.layer_name;
    EXPECT_GE(st.min, d.min_a_pe) << l.layer_name;
  }
}

// ----------------------------------------------------------- full sweep ----

TEST(Integration, AllNineWorkloadsImproveUnderRwlRo) {
  // Scaled-down Fig. 8: every Table II workload must gain from RWL+RO.
  for (const auto& net : nn::all_workloads()) {
    Experiment exp({arch::rota_like(), 12});
    const auto res =
        exp.run(net, {PolicyKind::kBaseline, PolicyKind::kRwlRo});
    const double gain = res.improvement_over_baseline(PolicyKind::kRwlRo);
    EXPECT_GT(gain, 1.05) << net.name();
    EXPECT_LT(gain, 4.0) << net.name();
  }
}

}  // namespace
}  // namespace rota
