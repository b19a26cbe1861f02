#pragma once

#include <cstdint>
#include <functional>

#include "arch/config.hpp"
#include "sched/schedule.hpp"
#include "wear/policy.hpp"
#include "wear/usage_tracker.hpp"

/// \file simulator.hpp
/// The wear simulator: drives a wear-leveling policy over a network
/// schedule, tile by tile, accumulating per-PE usage counts — the
/// simulator the paper "composed to track the usage count of individual
/// PEs" (§V). Two exact, property-tested fast-forwards make long runs of
/// billion-tile workloads tractable: inside a layer, policies batch whole
/// stride periods (Policy::bulk_process); across iterations,
/// run_iterations jumps whole iteration periods once the policy's packed
/// state repeats at an iteration boundary.

namespace rota::wear {

/// How much each utilization-space allocation adds to a PE's counter.
enum class WearMetric {
  /// One count per allocation — the paper's A_PE definition (Table I).
  kAllocations,
  /// Weight each allocation by the tile's per-PE busy time
  /// (allocations_per_tile × reduction_steps × compute MACs), modeling
  /// stress ∝ active cycles instead of activations. An extension used by
  /// the abl_weighting bench to show the conclusions are insensitive to
  /// the wear metric.
  kActiveCycles,
};

/// Simulator knobs.
struct SimulatorOptions {
  /// Use the exact fast paths where available: policies' per-layer bulk
  /// path and the iteration-period jump of run_iterations. Disable to force
  /// the per-tile reference path (tests compare the two).
  bool fast_forward = true;
  WearMetric metric = WearMetric::kAllocations;
};

/// Drives policies over schedules and owns the usage counters.
class WearSimulator {
 public:
  explicit WearSimulator(arch::AcceleratorConfig cfg,
                         SimulatorOptions options = {});

  [[nodiscard]] const arch::AcceleratorConfig& config() const { return cfg_; }
  UsageTracker& tracker() { return tracker_; }
  [[nodiscard]] const UsageTracker& tracker() const { return tracker_; }

  /// Process one layer's tiles under `policy`.
  /// Throws util::precondition_error if the policy needs a torus but the
  /// configured array is a mesh, or if the schedule's utilization space
  /// does not fit the array.
  ///
  /// The per-layer counters (`wear.layers`, `wear.tiles_fast_forwarded`,
  /// `wear.tiles_per_tile`, `wear.fast_forward_hits`,
  /// `wear.fast_forward_misses`, `wear.counter_updates`) are summed in a
  /// plain struct and published to the metrics registry once per public
  /// call: once by run_layer, once per pass by run_iteration.
  void run_layer(const sched::LayerSchedule& layer, Policy& policy);

  /// Process one full inference pass (all layers, in order).
  void run_iteration(const sched::NetworkSchedule& schedule, Policy& policy);

  /// Callback invoked after each iteration: (1-based iteration index,
  /// tracker). Used by the benches to sample D_max / R_diff transients.
  using IterationSampler =
      std::function<void(std::int64_t, const UsageTracker&)>;

  /// Run `iterations` inference passes; `sampler` may be empty.
  ///
  /// Without a sampler, with fast_forward on and a policy whose
  /// pack_state_is_complete(), the run jumps whole iteration periods. It
  /// takes one usage snapshot at its start, then steps literally while
  /// noting the packed state at each boundary (at most w·h+1 states, never
  /// a usage snapshot per iteration). When the state at iteration `at`
  /// repeats after P more iterations:
  ///  - `at == 0` (the start state recurs): the P iterations already
  ///    stepped are one period, so once at least P iterations remain it
  ///    adds K × (usage(now) − usage(start)) through
  ///    UsageTracker::add_cells. Without a per-layer reset a stride
  ///    policy's iteration map is a permutation of its states, so its
  ///    orbit is periodic from iteration 0: Baseline, RWL+RO and
  ///    DiagonalStride on intact arrays take this branch.
  ///  - `at > 0`: once at least 2P iterations remain it steps one more
  ///    period to record its usage delta and adds K× that. RWL (reset per
  ///    layer, recurring at `at = 1`) takes this branch, and so do most
  ///    masked stride policies on degraded arrays, whose skipped origins
  ///    make the map non-injective.
  /// The remainder is stepped literally. Usage grid and policy state are
  /// bit-identical to literal stepping. Counter `wear.iterations` counts
  /// every simulated iteration, jumped or not;
  /// `wear.iterations_fast_forwarded` counts the jumped ones. A sampler
  /// sees every iteration, so sampled runs always step literally
  /// (DESIGN.md §16.4).
  void run_iterations(const sched::NetworkSchedule& schedule, Policy& policy,
                      std::int64_t iterations,
                      const IterationSampler& sampler = {});

 private:
  arch::AcceleratorConfig cfg_;
  SimulatorOptions options_;
  UsageTracker tracker_;
  bool allow_wrap_;

  /// The per-layer `wear.*` counters of one public call.
  struct LayerCounters {
    std::int64_t layers = 0;
    std::int64_t tiles_fast_forwarded = 0;
    std::int64_t tiles_per_tile = 0;
    std::int64_t fast_forward_hits = 0;
    std::int64_t fast_forward_misses = 0;
    std::int64_t counter_updates = 0;
  };

  /// run_layer without publishing: adds the layer's counts to `counters`.
  void step_layer(const sched::LayerSchedule& layer, Policy& policy,
                  LayerCounters& counters);
  /// Add `counters` to the metrics registry (no-op while it is disabled).
  static void publish(const LayerCounters& counters);
};

}  // namespace rota::wear
