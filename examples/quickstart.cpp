/// \file quickstart.cpp
/// Minimal end-to-end use of the RoTA library: schedule SqueezeNet on the
/// default 14×12 torus accelerator, run 100 inference iterations under the
/// baseline and the proposed RWL+RO wear-leveling policy, and report the
/// usage statistics and the lifetime-reliability improvement (Eq. 4).

#include <iostream>

#include "core/rota.hpp"

int main() {
  using rota::wear::PolicyKind;

  rota::ExperimentConfig cfg;
  cfg.iterations = 100;
  rota::Experiment exp(cfg);

  const rota::nn::Network net = rota::nn::make_squeezenet();
  std::cout << "workload: " << net.name() << " (" << net.layer_count()
            << " compute layers, " << net.total_macs() << " MACs)\n";

  const rota::ExperimentResult result =
      exp.run(net, {PolicyKind::kBaseline, PolicyKind::kRwl,
                    PolicyKind::kRwlRo});

  std::cout << "mean PE utilization: "
            << rota::util::fmt_pct(result.schedule.mean_utilization())
            << "  (tiles/iteration: " << result.schedule.total_tiles()
            << ")\n\n";

  for (const auto& run : result.runs) {
    std::cout << run.policy_name << ": D_max = " << run.stats.max_diff
              << ", min(A_PE) = " << run.stats.min
              << ", R_diff = " << rota::util::fmt(run.stats.r_diff, 4)
              << '\n';
  }

  std::cout << "\nlifetime improvement over baseline (beta = "
            << result.beta << "):\n";
  for (PolicyKind kind : {PolicyKind::kRwl, PolicyKind::kRwlRo}) {
    std::cout << "  " << rota::wear::to_string(kind) << ": "
              << rota::util::fmt(result.improvement_over_baseline(kind), 2)
              << "x\n";
  }

  // find_run is the one policy lookup: nullptr when the policy was not
  // run (the throwing result.run(kind) accessor has been removed).
  const rota::wear::PolicyRun* ro = result.find_run(PolicyKind::kRwlRo);
  if (ro == nullptr) {
    std::cout << "RWL+RO run missing from experiment result\n";
    return 1;
  }
  std::cout << "\nRWL+RO usage heatmap after " << result.iterations
            << " iterations:\n" << rota::util::ascii_heatmap(ro->usage);
  return 0;
}
