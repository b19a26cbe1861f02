#include "wear/runner.hpp"

#include <algorithm>

namespace rota::wear {

PolicyRun run_policy(const arch::AcceleratorConfig& accel,
                     const sched::NetworkSchedule& schedule, PolicyKind kind,
                     std::int64_t iterations, WearMetric metric,
                     std::uint64_t seed) {
  auto policy =
      make_policy(kind, accel.array_width, accel.array_height, seed);
  WearSimulator sim(accel, {true, metric});
  sim.run_iterations(schedule, *policy, iterations);
  PolicyRun run;
  run.kind = kind;
  run.policy_name = policy->name();
  run.usage = sim.tracker().usage();
  run.stats = sim.tracker().stats();
  return run;
}

double usage_peak(const util::Grid<std::int64_t>& usage) {
  double peak = 1.0;
  for (std::int64_t v : usage.cells())
    peak = std::max(peak, static_cast<double>(v));
  return peak;
}

std::vector<double> usage_alphas(const util::Grid<std::int64_t>& usage,
                                 double peak) {
  std::vector<double> alphas;
  alphas.reserve(usage.size());
  for (std::int64_t v : usage.cells())
    alphas.push_back(static_cast<double>(v) / peak);
  return alphas;
}

}  // namespace rota::wear
