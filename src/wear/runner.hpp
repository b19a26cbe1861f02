#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "sched/schedule.hpp"
#include "util/grid.hpp"
#include "wear/policy.hpp"
#include "wear/simulator.hpp"
#include "wear/usage_tracker.hpp"

/// \file runner.hpp
/// One wear cell: one policy driven over one fixed schedule. Experiment's
/// policy cells, the svc engine's wear and lifetime ops, the CLI verbs and
/// the ablation benches all run their cells through run_policy, so their
/// usage grids agree by construction; usage_alphas is the one conversion
/// of those grids into Eq. 2–4 activity factors.

namespace rota::wear {

/// Outcome of running one policy over a schedule.
struct PolicyRun {
  PolicyKind kind = PolicyKind::kBaseline;
  std::string policy_name;
  util::Grid<std::int64_t> usage;  ///< final per-PE usage counters
  UsageStats stats;                ///< D_max, min/max A_PE, R_diff
};

/// make_policy(kind, w, h, seed) for the accelerator's array, then
/// `iterations` passes of `schedule` on a fast-forwarding WearSimulator
/// that counts `metric`.
[[nodiscard]] PolicyRun run_policy(
    const arch::AcceleratorConfig& accel,
    const sched::NetworkSchedule& schedule, PolicyKind kind,
    std::int64_t iterations, WearMetric metric = WearMetric::kAllocations,
    std::uint64_t seed = kDefaultPolicySeed);

/// The shared activity scale of a usage grid: its largest counter, and
/// never less than 1.
[[nodiscard]] double usage_peak(const util::Grid<std::int64_t>& usage);

/// Activity factors α = count / peak in cell order. The default peak of 1
/// gives the raw counts, which is how Eq. 4 compares two runs.
[[nodiscard]] std::vector<double> usage_alphas(
    const util::Grid<std::int64_t>& usage, double peak = 1.0);

}  // namespace rota::wear
