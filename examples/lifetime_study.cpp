/// \file lifetime_study.cpp
/// Domain example: reliability sign-off of an accelerator for a given DNN
/// deployment. Picks a workload (by Table II abbreviation) and an
/// iteration budget from the command line, runs all three wear-leveling
/// schemes, and reports the lifetime improvement, the usage-difference
/// transient, and the reliability curve R(t) at the projected MTTF.
///
///   usage: lifetime_study [abbr] [iterations]     (default: YL 500)

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "core/rota.hpp"

int main(int argc, char** argv) {
  using namespace rota;
  using wear::PolicyKind;

  const std::string abbr = argc > 1 ? argv[1] : "YL";
  const std::int64_t iterations = argc > 2 ? std::atoll(argv[2]) : 500;

  nn::Network net = nn::workload_by_abbr(abbr);
  std::cout << "reliability study: " << net.name() << " x " << iterations
            << " inference iterations on the 14x12 RoTA array\n\n";

  ExperimentConfig cfg;
  cfg.iterations = iterations;
  Experiment exp(cfg);
  const ExperimentResult result =
      exp.run(net, {PolicyKind::kBaseline, PolicyKind::kRwl,
                    PolicyKind::kRwlRo});

  util::TextTable table({"scheme", "lifetime", "D_max", "R_diff",
                         "min(A_PE)", "max(A_PE)"});
  for (const auto& run : result.runs) {
    table.add_row({run.policy_name,
                   util::fmt(result.improvement_over_baseline(run.kind), 2) +
                       "x",
                   std::to_string(run.stats.max_diff),
                   util::fmt(run.stats.r_diff, 4),
                   std::to_string(run.stats.min),
                   std::to_string(run.stats.max)});
  }
  std::cout << table.str() << '\n';

  // Reliability curves: evaluate R(t) for each scheme at the baseline's
  // MTTF — the survival probability gained by wear-leveling at the moment
  // the unleveled design is expected to die.
  const rota::wear::PolicyRun* base_ptr =
      result.find_run(PolicyKind::kBaseline);
  if (base_ptr == nullptr) {
    std::cerr << "baseline run missing from experiment result\n";
    return 1;
  }
  const auto& base = *base_ptr;
  std::vector<double> base_alpha;
  for (auto v : base.usage.cells())
    base_alpha.push_back(static_cast<double>(v));
  // Normalize activities so the most-stressed baseline PE has alpha = 1.
  const double peak = *std::max_element(base_alpha.begin(), base_alpha.end());
  for (auto& a : base_alpha) a /= peak;
  const double t_star = rel::array_mttf(base_alpha, cfg.beta);

  std::cout << "survival probability at the baseline's MTTF (t* = "
            << util::fmt(t_star, 3) << " normalized units):\n";
  for (const auto& run : result.runs) {
    std::vector<double> alpha;
    for (auto v : run.usage.cells())
      alpha.push_back(static_cast<double>(v) / peak);
    std::cout << "  " << run.policy_name << ": R(t*) = "
              << util::fmt(rel::array_reliability(alpha, t_star, cfg.beta), 4)
              << '\n';
  }

  std::cout << "\nmax-usage-difference transient (RWL+RO):\n";
  const auto samples = exp.run_transient(net, PolicyKind::kRwlRo,
                                         std::min<std::int64_t>(iterations,
                                                                100));
  for (const auto& s : samples) {
    if (s.iteration % 20 != 0 && s.iteration != 1) continue;
    std::cout << "  iter " << s.iteration << ": D_max = " << s.max_usage_diff
              << ", lifetime vs baseline = " << util::fmt(s.improvement, 2)
              << "x\n";
  }
  return 0;
}
