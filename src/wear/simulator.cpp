#include "wear/simulator.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace rota::wear {

WearSimulator::WearSimulator(arch::AcceleratorConfig cfg,
                             SimulatorOptions options)
    : cfg_(std::move(cfg)),
      options_(options),
      tracker_(cfg_.array_width, cfg_.array_height),
      allow_wrap_(cfg_.topology == arch::TopologyKind::kTorus2D) {
  cfg_.validate();
}

void WearSimulator::run_layer(const sched::LayerSchedule& layer,
                              Policy& policy) {
  LayerCounters counters;
  step_layer(layer, policy, counters);
  publish(counters);
}

void WearSimulator::run_iteration(const sched::NetworkSchedule& schedule,
                                  Policy& policy) {
  LayerCounters counters;
  for (const auto& layer : schedule.layers) step_layer(layer, policy, counters);
  publish(counters);
}

void WearSimulator::step_layer(const sched::LayerSchedule& layer,
                               Policy& policy, LayerCounters& counters) {
  const sched::UtilSpace& space = layer.space;
  ROTA_REQUIRE(space.x >= 1 && space.x <= cfg_.array_width &&
                   space.y >= 1 && space.y <= cfg_.array_height,
               "utilization space does not fit the PE array: " +
                   layer.layer_name);
  ROTA_REQUIRE(policy.width() == cfg_.array_width &&
                   policy.height() == cfg_.array_height,
               "policy was built for a different array size");
  ROTA_REQUIRE(!policy.requires_torus() || allow_wrap_,
               "policy " + policy.name() +
                   " needs torus connections, but the configured array is a "
                   "mesh");

  std::int64_t weight = 1;
  if (options_.metric == WearMetric::kActiveCycles) {
    // Per-PE busy time of one data tile. Pre-grouping schedules built by
    // hand may leave the hierarchy fields at their defaults.
    const std::int64_t per_output =
        std::max<std::int64_t>(1, layer.compute_macs_per_pe) *
        std::max<std::int64_t>(1, layer.reduction_steps);
    weight = per_output * std::max<std::int64_t>(1, layer.allocations_per_tile);
  }

  policy.begin_layer(space);
  std::int64_t remaining = layer.tiles;
  std::int64_t fast_forwarded = 0;
  if (options_.fast_forward && remaining > 0) {
    fast_forwarded = policy.bulk_process(space, remaining, tracker_,
                                         allow_wrap_, weight);
    remaining -= fast_forwarded;
    ROTA_ENSURE(remaining >= 0, "bulk_process consumed more tiles than given");
  }
  const std::int64_t per_tile = remaining;
  // Deliberately per-tile, not buffered through UsageTracker::add_spaces:
  // the tracker's amortized overflow budget already keeps this loop free
  // of checked arithmetic, and staging origins through a batch array
  // measured ~20% slower here (the memory round-trip costs more than the
  // interleaving it avoids).
  for (; remaining > 0; --remaining) {
    const Placement at = policy.next_origin(space);
    tracker_.add_space(at.u, at.v, space.x, space.y, weight, allow_wrap_);
  }

  ++counters.layers;
  counters.tiles_fast_forwarded += fast_forwarded;
  counters.tiles_per_tile += per_tile;
  // Which path handled the layer: exact periodicity fast path vs. the
  // per-tile reference fallback (partial bulk consumption counts both).
  if (fast_forwarded > 0) ++counters.fast_forward_hits;
  if (per_tile > 0) ++counters.fast_forward_misses;
  counters.counter_updates += layer.tiles * space.x * space.y;
}

void WearSimulator::publish(const LayerCounters& counters) {
  auto& reg = obs::MetricsRegistry::global();
  if (!reg.enabled() || counters.layers == 0) return;
  reg.add("wear.layers", counters.layers);
  reg.add("wear.tiles_fast_forwarded", counters.tiles_fast_forwarded);
  reg.add("wear.tiles_per_tile", counters.tiles_per_tile);
  if (counters.fast_forward_hits > 0) {
    reg.add("wear.fast_forward_hits", counters.fast_forward_hits);
  }
  if (counters.fast_forward_misses > 0) {
    reg.add("wear.fast_forward_misses", counters.fast_forward_misses);
  }
  reg.add("wear.counter_updates", counters.counter_updates);
}

void WearSimulator::run_iterations(const sched::NetworkSchedule& schedule,
                                   Policy& policy, std::int64_t iterations,
                                   const IterationSampler& sampler) {
  ROTA_REQUIRE(iterations >= 0, "iteration count must be non-negative");
  const std::string& label = schedule.network_abbr.empty()
                                 ? schedule.network_name
                                 : schedule.network_abbr;
  const obs::TraceSpan span(policy.name() + (label.empty() ? "" : " " + label),
                            "wear.run");
  obs::ProgressReporter progress("wear " + policy.name() +
                                     (label.empty() ? "" : " " + label),
                                 iterations);
  std::int64_t done = 0;
  const auto step = [&] {
    run_iteration(schedule, policy);
    progress.tick();
    ++done;
  };

  std::int64_t skipped = 0;
  if (!sampler && options_.fast_forward && policy.pack_state_is_complete()) {
    // Iteration-period jump: step literally, noting the packed state at
    // each boundary. Once a state repeats after P iterations, the wear of
    // every later P-iteration stretch is identical, so add one period's
    // usage delta K times. When the repeated state is the start state, the
    // P iterations already stepped are that period and their delta is
    // usage(now) − usage(start); otherwise step one more period to record
    // it. The policy ends a whole number of periods on, in the state it
    // already holds.
    const auto cap = static_cast<std::size_t>(cfg_.array_width *
                                              cfg_.array_height) + 1;
    std::vector<std::int64_t> before = tracker_.usage().cells();
    std::map<std::vector<std::uint64_t>, std::int64_t> seen;
    seen.emplace(policy.pack_state(), 0);
    while (done < iterations) {
      step();
      const auto [at, fresh] = seen.emplace(policy.pack_state(), done);
      if (fresh) {
        if (seen.size() > cap) break;  // no period in reach; stay literal
        continue;
      }
      const std::int64_t period = done - at->second;
      if (at->second == 0) {
        if (iterations - done < period) break;
      } else {
        if (iterations - done < 2 * period) break;
        before = tracker_.usage().cells();
        for (std::int64_t i = 0; i < period; ++i) step();
      }
      std::vector<std::int64_t> delta = tracker_.usage().cells();
      for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
      const std::int64_t periods = (iterations - done) / period;
      tracker_.add_cells(delta, periods);
      skipped = periods * period;
      done += skipped;
      progress.tick(skipped);
      break;
    }
  }
  while (done < iterations) {
    step();
    if (sampler) sampler(done, tracker_);
  }

  auto& reg = obs::MetricsRegistry::global();
  reg.add("wear.iterations", iterations);
  reg.add("wear.iterations_fast_forwarded", skipped);
}

}  // namespace rota::wear
