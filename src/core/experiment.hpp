#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "nn/network.hpp"
#include "reliability/array_reliability.hpp"
#include "sched/mapper.hpp"
#include "wear/policy.hpp"
#include "wear/simulator.hpp"

/// \file experiment.hpp
/// The top-level experiment driver: schedule a workload with the
/// energy-optimal mapper, run N inference iterations under each
/// wear-leveling policy, and evaluate per-PE usage and lifetime
/// reliability. This is the API the examples and every bench build on.

namespace rota {

/// Configuration of one experiment.
struct ExperimentConfig {
  arch::AcceleratorConfig accel = arch::rota_like();
  std::int64_t iterations = 1000;   ///< inference passes (paper: 1,000)
  double beta = rel::kJedecShape;   ///< Weibull shape parameter
  std::uint64_t seed = 0x526f5441;  ///< for stochastic policies ("RoTA")
  /// Wear accounting: allocation counts (the paper's A_PE) or
  /// busy-cycle-weighted counts (extension).
  wear::WearMetric metric = wear::WearMetric::kAllocations;
  /// Worker lanes for scheduling and policy/workload cells: 1 = serial
  /// (default, the historical path), 0 = one lane per hardware thread.
  /// Results are bit-identical for any value (DESIGN.md §9).
  int threads = 1;
};

/// Outcome of running one policy over the workload.
struct PolicyRun {
  wear::PolicyKind kind = wear::PolicyKind::kBaseline;
  std::string policy_name;
  util::Grid<std::int64_t> usage;  ///< final per-PE usage counters
  wear::UsageStats stats;          ///< D_max, min/max A_PE, R_diff
};

/// Outcome of a full experiment on one network.
struct ExperimentResult {
  std::string network_name;
  std::string network_abbr;
  sched::NetworkSchedule schedule;
  std::int64_t iterations = 0;
  double beta = rel::kJedecShape;
  std::vector<PolicyRun> runs;

  /// The run for a given policy, or nullptr if the policy was not part of
  /// this experiment. The non-throwing lookup used by the v1 API and the
  /// service layer.
  [[nodiscard]] const PolicyRun* find_run(wear::PolicyKind kind) const noexcept;

  /// Relative lifetime improvement of `kind` over the baseline run
  /// (Eq. 4). Requires both runs to be present.
  [[nodiscard]] double improvement_over_baseline(wear::PolicyKind kind) const;
};

/// One transient sample (Figs. 6 and 7).
struct TransientSample {
  std::int64_t iteration = 0;
  std::int64_t max_usage_diff = 0;  ///< D_max
  double r_diff = 0.0;
  double improvement = 0.0;  ///< lifetime vs. baseline at same iteration
};

/// Experiment driver bound to one accelerator configuration. Scheduling
/// results are memoized across calls through the embedded mapper.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config = {});

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  sched::Mapper& mapper() { return mapper_; }

  /// Schedule (memoized) a network on this experiment's accelerator.
  sched::NetworkSchedule schedule(const nn::Network& net);

  /// Run `config().iterations` passes of `net` under each policy.
  ExperimentResult run(const nn::Network& net,
                       const std::vector<wear::PolicyKind>& policies);

  /// Multi-network serving (§IV-D: the stride state relays "across layers
  /// and networks"): each iteration executes every network in `mix` once,
  /// in order, without resetting policy state between them.
  ExperimentResult run_mix(const std::vector<nn::Network>& mix,
                           const std::vector<wear::PolicyKind>& policies);

  /// Full evaluation sweep: every network under every policy, one result
  /// per network in input order. With config().threads != 1 the
  /// policy×workload cells run concurrently (each cell owns its policy
  /// and simulator, so cells are independent); outputs are identical to
  /// calling run() per network.
  std::vector<ExperimentResult> run_sweep(
      const std::vector<nn::Network>& nets,
      const std::vector<wear::PolicyKind>& policies);

  /// Run one policy and sample D_max / R_diff / improvement-vs-baseline
  /// after every iteration. The baseline usage needed for the improvement
  /// series is computed analytically per iteration (the baseline anchors
  /// every space at the corner, so its usage is iteration-linear).
  std::vector<TransientSample> run_transient(const nn::Network& net,
                                             wear::PolicyKind kind,
                                             std::int64_t iterations);

 private:
  /// Run every policy over one fixed schedule, one PolicyRun per policy
  /// in input order (cells run concurrently when threads != 1).
  std::vector<PolicyRun> run_policies(
      const sched::NetworkSchedule& ns,
      const std::vector<wear::PolicyKind>& policies);

  ExperimentConfig config_;
  sched::Mapper mapper_;
};

}  // namespace rota
