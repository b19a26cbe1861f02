#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/api_v1.hpp"
#include "core/experiment.hpp"
#include "nn/workloads.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace rota {
namespace {

using util::precondition_error;
using wear::PolicyKind;

ExperimentConfig quick_config(std::int64_t iterations = 50) {
  ExperimentConfig cfg;
  cfg.iterations = iterations;
  return cfg;
}

TEST(Experiment, RunsRequestedPoliciesInOrder) {
  Experiment exp(quick_config());
  const auto res = exp.run(nn::make_squeezenet(),
                           {PolicyKind::kBaseline, PolicyKind::kRwlRo});
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_EQ(res.runs[0].kind, PolicyKind::kBaseline);
  EXPECT_EQ(res.runs[1].kind, PolicyKind::kRwlRo);
  EXPECT_EQ(res.network_abbr, "Sqz");
  EXPECT_EQ(res.iterations, 50);
}

TEST(Experiment, MissingPolicyLookupThrows) {
  Experiment exp(quick_config());
  const auto res = exp.run(nn::make_squeezenet(), {PolicyKind::kBaseline});
  EXPECT_THROW((void)res.improvement_over_baseline(PolicyKind::kRwlRo),
               precondition_error);
}

TEST(Experiment, FindRunIsNonThrowing) {
  Experiment exp(quick_config());
  const auto res = exp.run(nn::make_squeezenet(),
                           {PolicyKind::kBaseline, PolicyKind::kRwl});
  const PolicyRun* base = res.find_run(PolicyKind::kBaseline);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->kind, PolicyKind::kBaseline);
  EXPECT_EQ(base, &res.runs[0]);
  // An absent policy is a nullptr, not an exception.
  EXPECT_EQ(res.find_run(PolicyKind::kRwlRo), nullptr);
}

TEST(ApiV1, ResultsInsteadOfExceptions) {
  namespace api = rota::api::v1;
  static_assert(api::kSchemaVersion == obs::kSchemaVersion);

  EXPECT_FALSE(api::find_workload("Zzz").ok());
  EXPECT_EQ(api::find_workload("Zzz").error().code,
            api::ErrorCode::kInvalidArgument);
  auto net = api::find_workload("Sqz");
  ASSERT_TRUE(net.ok());

  ExperimentConfig cfg = quick_config();
  auto res = api::run_experiment(cfg, net.value(),
                                 {PolicyKind::kBaseline, PolicyKind::kRwl});
  ASSERT_TRUE(res.ok()) << res.error().message;
  EXPECT_EQ(res.value().network_abbr, "Sqz");

  auto found = api::find_run(res.value(), PolicyKind::kRwl);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().kind, PolicyKind::kRwl);
  auto absent = api::find_run(res.value(), PolicyKind::kRwlRo);
  ASSERT_FALSE(absent.ok());
  EXPECT_EQ(absent.error().code, api::ErrorCode::kNotFound);

  auto gain = api::lifetime_improvement(res.value(), PolicyKind::kRwl);
  ASSERT_TRUE(gain.ok());
  EXPECT_EQ(gain.value(),
            res.value().improvement_over_baseline(PolicyKind::kRwl));
  EXPECT_FALSE(api::lifetime_improvement(res.value(), PolicyKind::kRwlRo)
                   .ok());

  // Data errors that the historical surface throws for come back as
  // structured errors here.
  ExperimentConfig broken = quick_config();
  broken.iterations = -1;
  EXPECT_FALSE(api::run_experiment(broken, net.value(),
                                   {PolicyKind::kBaseline})
                   .ok());
  ExperimentConfig bad_geometry = quick_config();
  bad_geometry.accel.array_width = 0;
  auto sched_err = api::schedule_workload(bad_geometry, net.value());
  ASSERT_FALSE(sched_err.ok());
  EXPECT_EQ(sched_err.error().code, api::ErrorCode::kInvalidArgument);

  auto sched_ok = api::schedule_workload(cfg, net.value());
  ASSERT_TRUE(sched_ok.ok());
  EXPECT_EQ(sched_ok.value().network_abbr, "Sqz");
}

TEST(Experiment, ImprovementRequiresBaselineRun) {
  Experiment exp(quick_config());
  const auto res = exp.run(nn::make_squeezenet(), {PolicyKind::kRwlRo});
  EXPECT_THROW((void)res.improvement_over_baseline(PolicyKind::kRwlRo),
               precondition_error);
}

TEST(Experiment, WearLevelingImprovesLifetime) {
  Experiment exp(quick_config());
  const auto res = exp.run(
      nn::make_squeezenet(),
      {PolicyKind::kBaseline, PolicyKind::kRwl, PolicyKind::kRwlRo});
  const double rwl = res.improvement_over_baseline(PolicyKind::kRwl);
  const double ro = res.improvement_over_baseline(PolicyKind::kRwlRo);
  EXPECT_GT(rwl, 1.1);
  EXPECT_GT(ro, 1.1);
  EXPECT_GE(ro, rwl - 1e-6);  // RO never loses to per-layer RWL
  // Baseline against itself is exactly 1.
  EXPECT_NEAR(res.improvement_over_baseline(PolicyKind::kBaseline), 1.0,
              1e-12);
}

TEST(Experiment, UsageGridsShareTotalWork) {
  Experiment exp(quick_config(20));
  const auto res = exp.run(
      nn::make_squeezenet(),
      {PolicyKind::kBaseline, PolicyKind::kRwl, PolicyKind::kRwlRo});
  std::int64_t reference = -1;
  for (const auto& run : res.runs) {
    std::int64_t sum = 0;
    for (std::int64_t v : run.usage.cells()) sum += v;
    if (reference < 0) reference = sum;
    EXPECT_EQ(sum, reference) << run.policy_name;
  }
}

TEST(Experiment, RwlRoAchievesNearZeroRDiff) {
  Experiment exp(quick_config(200));
  const auto res =
      exp.run(nn::make_squeezenet(), {PolicyKind::kBaseline,
                                      PolicyKind::kRwlRo});
  const PolicyRun* ro = res.find_run(PolicyKind::kRwlRo);
  const PolicyRun* base = res.find_run(PolicyKind::kBaseline);
  ASSERT_NE(ro, nullptr);
  ASSERT_NE(base, nullptr);
  EXPECT_LT(ro->stats.r_diff, 0.01);  // paper: R_diff ≈ 0 (Fig. 7)
  EXPECT_TRUE(std::isinf(base->stats.r_diff) || base->stats.r_diff > 1.0);
}

TEST(Experiment, TransientSamplesCoverEveryIteration) {
  Experiment exp(quick_config());
  const auto samples =
      exp.run_transient(nn::make_squeezenet(), PolicyKind::kRwlRo, 30);
  ASSERT_EQ(samples.size(), 30u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].iteration, static_cast<std::int64_t>(i + 1));
    EXPECT_GE(samples[i].max_usage_diff, 0);
    EXPECT_GT(samples[i].improvement, 0.0);
  }
}

TEST(Experiment, TransientImprovementConvergesUpward) {
  // Fig. 7: projected lifetime rises as R_diff falls. The improvement in
  // the second half of the run must dominate the very first iteration.
  Experiment exp(quick_config());
  const auto samples =
      exp.run_transient(nn::make_squeezenet(), PolicyKind::kRwlRo, 100);
  const double early = samples.front().improvement;
  double late = 0.0;
  for (std::size_t i = 50; i < samples.size(); ++i)
    late = std::max(late, samples[i].improvement);
  EXPECT_GT(late, early);
  // R_diff trends to ~0.
  EXPECT_LT(samples.back().r_diff, samples.front().r_diff + 1e-12);
  EXPECT_LT(samples.back().r_diff, 0.05);
}

TEST(Experiment, BaselineTransientDiffGrowsLinearly) {
  Experiment exp(quick_config());
  const auto samples =
      exp.run_transient(nn::make_squeezenet(), PolicyKind::kBaseline, 20);
  // D_max after iteration k is exactly k × D_max after one iteration.
  const std::int64_t d1 = samples.front().max_usage_diff;
  for (const auto& s : samples) {
    EXPECT_EQ(s.max_usage_diff, d1 * s.iteration);
  }
}

TEST(Experiment, SchedulerMemoizedAcrossRuns) {
  Experiment exp(quick_config(5));
  exp.run(nn::make_squeezenet(), {PolicyKind::kBaseline});
  const std::size_t after_first = exp.mapper().cache_size();
  exp.run(nn::make_squeezenet(), {PolicyKind::kRwlRo});
  EXPECT_EQ(exp.mapper().cache_size(), after_first);
}

TEST(Experiment, RunMixConcatenatesNetworks) {
  Experiment exp(quick_config(10));
  const std::vector<nn::Network> mix = {nn::make_squeezenet(),
                                        nn::make_mobilenet_v3()};
  const auto res = exp.run_mix(mix, {PolicyKind::kBaseline,
                                     PolicyKind::kRwlRo});
  EXPECT_EQ(res.network_abbr, "Sqz+Mb");
  EXPECT_EQ(res.schedule.layers.size(),
            mix[0].layer_count() + mix[1].layer_count());
  // Layer names carry the owning network's abbreviation.
  EXPECT_EQ(res.schedule.layers.front().layer_name.rfind("Sqz:", 0), 0u);
  EXPECT_EQ(res.schedule.layers.back().layer_name.rfind("Mb:", 0), 0u);
  // The relayed policy still wins on the mix.
  EXPECT_GT(res.improvement_over_baseline(PolicyKind::kRwlRo), 1.1);
}

TEST(Experiment, RunMixMatchesManualInterleaving) {
  // run_mix's usage must equal manually running both schedules through
  // one policy instance.
  Experiment exp(quick_config(5));
  const std::vector<nn::Network> mix = {nn::make_squeezenet(),
                                        nn::make_efficientnet_b0()};
  const auto res = exp.run_mix(mix, {PolicyKind::kRwlRo});

  sched::Mapper mapper(exp.config().accel, sched::ObjectiveSpec{});
  wear::WearSimulator sim(exp.config().accel);
  auto policy = wear::make_policy(PolicyKind::kRwlRo, 14, 12);
  const auto s0 = mapper.schedule_network(mix[0]);
  const auto s1 = mapper.schedule_network(mix[1]);
  for (int it = 0; it < 5; ++it) {
    sim.run_iteration(s0, *policy);
    sim.run_iteration(s1, *policy);
  }
  const PolicyRun* ro = res.find_run(PolicyKind::kRwlRo);
  ASSERT_NE(ro, nullptr);
  EXPECT_TRUE(ro->usage == sim.tracker().usage());
}

TEST(Experiment, RunMixRejectsEmptyMix) {
  Experiment exp(quick_config(1));
  EXPECT_THROW(exp.run_mix({}, {PolicyKind::kBaseline}),
               precondition_error);
}

TEST(Experiment, RejectsNegativeIterations) {
  ExperimentConfig cfg;
  cfg.iterations = -1;
  EXPECT_THROW(Experiment{cfg}, precondition_error);
}

TEST(Experiment, CustomBetaPropagates) {
  ExperimentConfig cfg = quick_config(20);
  cfg.beta = 2.0;
  Experiment exp(cfg);
  const auto res = exp.run(nn::make_squeezenet(),
                           {PolicyKind::kBaseline, PolicyKind::kRwlRo});
  EXPECT_DOUBLE_EQ(res.beta, 2.0);
  // A smaller shape parameter compresses the improvement (exponent 1/β−1
  // shrinks in magnitude... for β=2 vs 3.4 the bound util^{1/β−1} is
  // smaller), so the result must differ from the default-β run.
  Experiment exp34(quick_config(20));
  const auto res34 = exp34.run(nn::make_squeezenet(),
                               {PolicyKind::kBaseline, PolicyKind::kRwlRo});
  EXPECT_LT(res.improvement_over_baseline(PolicyKind::kRwlRo),
            res34.improvement_over_baseline(PolicyKind::kRwlRo));
}

TEST(ApiV1, ObjectiveScheduleDefaultsMatchTheHistoricalSurface) {
  namespace api = rota::api::v1;
  const auto net = api::find_workload("Sqz");
  ASSERT_TRUE(net.ok());
  const ExperimentConfig cfg = quick_config();
  const auto base = api::schedule_workload(cfg, net.value());
  ASSERT_TRUE(base.ok());
  const auto objective = api::schedule_network_with_objective(
      cfg, net.value(), sched::ObjectiveSpec{});
  ASSERT_TRUE(objective.ok()) << objective.error().message;
  ASSERT_EQ(objective.value().layers.size(), base.value().layers.size());
  for (std::size_t i = 0; i < base.value().layers.size(); ++i) {
    EXPECT_EQ(objective.value().layers[i].energy,
              base.value().layers[i].energy);
    EXPECT_EQ(objective.value().layers[i].cycles,
              base.value().layers[i].cycles);
    EXPECT_EQ(objective.value().layers[i].mapping,
              base.value().layers[i].mapping);
  }
  // Data errors come back as Results here too.
  ExperimentConfig bad = quick_config();
  bad.accel.array_width = 0;
  EXPECT_FALSE(api::schedule_network_with_objective(bad, net.value(),
                                                    sched::ObjectiveSpec{})
                   .ok());
}

TEST(ApiV1, ParetoNetworkSmoke) {
  namespace api = rota::api::v1;
  const auto net = api::find_workload("Sqz");
  ASSERT_TRUE(net.ok());
  const ExperimentConfig cfg = quick_config();
  const auto front =
      api::pareto_network(cfg, net.value(), sched::ObjectiveSpec::lifetime());
  ASSERT_TRUE(front.ok()) << front.error().message;
  EXPECT_EQ(front.value().objective, sched::ObjectiveSpec::lifetime());
  EXPECT_EQ(front.value().array_digest, "live");
  EXPECT_EQ(front.value().live_pes, cfg.accel.pe_count());
  ASSERT_EQ(front.value().layers.size(), net.value().layer_count());
  for (const auto& layer : front.value().layers) {
    ASSERT_FALSE(layer.points.empty()) << layer.layer_name;
    EXPECT_EQ(std::count_if(layer.points.begin(), layer.points.end(),
                            [](const sched::ParetoPoint& p) {
                              return p.selected;
                            }),
              1)
        << layer.layer_name;
  }
  ExperimentConfig bad = quick_config();
  bad.accel.array_height = 0;
  EXPECT_FALSE(
      api::pareto_network(bad, net.value(), sched::ObjectiveSpec{}).ok());
}

}  // namespace
}  // namespace rota
