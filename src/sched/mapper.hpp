#pragma once

#include <array>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "nn/network.hpp"
#include "sched/array_state.hpp"
#include "sched/cost.hpp"
#include "sched/objective.hpp"
#include "sched/schedule.hpp"
#include "util/thread_annotations.hpp"

/// \file mapper.hpp
/// Exhaustive, deterministic search for the optimal mapping of each layer
/// — the NeuroSpector-lite substitute described in DESIGN.md. The mapping
/// space is bounded: both spatial dimension choices, every spatial factor
/// up to the array size, and a divisor-derived ladder of local-buffer
/// tiling factors. Results are memoized by layer shape, which collapses
/// the repeated blocks of ResNet / Llama-style networks to one search
/// each.
///
/// What "optimal" means is pluggable (DESIGN.md §15): the mapper is
/// constructed with an ObjectiveSpec — energy (the historical default),
/// projected lifetime, throughput, or a weighted scalarization over the
/// per-layer Pareto front of (energy, projected MTTF, cycles) — and with
/// an ArrayState whose dead PEs the feasibility check and the lifetime
/// math respect. pareto_layer()/pareto_network() expose the front itself.
///
/// Concurrency (DESIGN.md §9): the shape memo is striped across
/// independently locked shards, so schedule_network() can search distinct
/// shapes on pool workers concurrently. The search itself is a pure
/// function of the layer shape, objective and array state, which makes
/// the schedules and fronts bit-identical for every thread count; every
/// count, 1 included, runs the same dedupe-then-fan-out path.

namespace rota::sched {

/// Version of the mapper's search algorithm and cost model. Bump whenever
/// a change can alter the schedule chosen for some layer shape: persisted
/// schedule caches (rota::svc) key on this, so stale entries from an older
/// search are never replayed as current results. Version 4: objective /
/// array-state aware search (energy objective on an intact array chooses
/// exactly the version-3 schedules; the fingerprint still carries the
/// objective id and array digest so fronts never alias across objectives).
inline constexpr int kMapperVersion = 4;

/// Mapper search-space options.
struct MapperOptions {
  /// Restrict spatial and local-buffer tiling factors to exact divisors of
  /// their loop bounds — the Timeloop/NeuroSpector mapspace convention and
  /// the default, matching the mappings the paper's evaluation consumes.
  /// When false, any factor is admitted and the cost model charges the
  /// padding in traffic and tile count; this generalized mapper fills the
  /// array better and *shrinks* the wear-leveling headroom (see the
  /// abl_mapper bench).
  bool exact_factors_only = true;
  /// Worker lanes for schedule_network(): 1 = serial (default), 0 = one
  /// lane per hardware thread, N = at most N shapes searched at once.
  /// Any value yields identical schedules.
  int threads = 1;
};

/// Canonical memo key: the twelve LayerSpec shape fields (everything but
/// the name), compared and hashed as integers so a cache probe costs no
/// string formatting or allocation.
struct LayerShapeKey {
  int kind = 0;
  std::int64_t batch = 0;
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride_h = 0;
  std::int64_t stride_w = 0;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t groups = 0;

  [[nodiscard]] static LayerShapeKey of(const nn::LayerSpec& layer);
  bool operator==(const LayerShapeKey& other) const = default;
};

/// splitmix64-style avalanche over the key fields.
struct LayerShapeKeyHash {
  [[nodiscard]] std::size_t operator()(const LayerShapeKey& key) const;
};

/// Deterministic tie-breaking makes schedules reproducible across runs.
/// The energy objective orders candidates by energy ascending, then
/// cycles ascending, then utilization space sx·sy *descending* (a
/// performance-aware optimizer prefers more parallelism at equal cost),
/// then lexicographic mapping order over (dim_x, dim_y, sx, sy, lb_c,
/// lb_q, lb_s) — pinned by sched_test's comparator unit test. The other
/// objectives swap in their leading axis and fall through to the same
/// chain (objective.hpp).
class Mapper {
 public:
  /// The objective is mandatory, so every caller states what it
  /// optimizes. A non-default `array` must match cfg's geometry; the
  /// default all-live state plus the energy objective reproduces the
  /// historical mapper byte-for-byte.
  explicit Mapper(arch::AcceleratorConfig cfg, ObjectiveSpec objective,
                  arch::EnergyModel energy = {}, MapperOptions options = {},
                  ArrayState array = {});

  [[nodiscard]] const arch::AcceleratorConfig& config() const { return cost_.config(); }
  [[nodiscard]] const MapperOptions& options() const { return options_; }
  [[nodiscard]] const ObjectiveSpec& objective() const { return objective_; }
  [[nodiscard]] const ArrayState& array_state() const { return array_; }

  /// Objective-optimal schedule of one layer. Throws util::invariant_error
  /// if no feasible mapping exists (possible on a heavily degraded array;
  /// cannot happen for validated layers on an intact, non-degenerate
  /// accelerator). Thread-safe: concurrent callers share the striped
  /// shape memo.
  LayerSchedule schedule_layer(const nn::LayerSpec& layer);

  /// Schedule every layer of a network in execution order. Distinct layer
  /// shapes are deduped up front and searched on options().threads lanes;
  /// the layers are then assembled from the memo, so the schedules are
  /// bit-identical at any thread count.
  NetworkSchedule schedule_network(const nn::Network& net);

  /// The layer's full Pareto front over (energy, projected MTTF, cycles),
  /// canonically ordered, with this mapper's scalarization pick flagged
  /// `selected`. Not memoized (fronts are requested explicitly, not in
  /// inner loops).
  [[nodiscard]] LayerParetoFront pareto_layer(const nn::LayerSpec& layer) const;

  /// Per-layer fronts for a whole network; unique shapes are searched
  /// once (concurrently when options().threads != 1) and the results are
  /// slot-indexed, so the output is bit-identical at any thread count.
  [[nodiscard]] NetworkParetoFront pareto_network(const nn::Network& net) const;

  /// Number of distinct shapes searched so far (memoization statistic).
  [[nodiscard]] std::size_t cache_size() const;

 private:
  /// Candidate counters of one layer search (metrics feed).
  struct SearchCounters {
    std::int64_t evaluated = 0;
    std::int64_t feasible = 0;
  };

  /// Tiling-factor ladder for a loop bound, clipped to [1, cap]: the
  /// bound's divisors (precomputed by the caller, ascending), plus the cap
  /// itself in imperfect-factorization mode.
  [[nodiscard]] std::vector<std::int64_t> factor_ladder(
      const std::vector<std::int64_t>& bound_divisors, std::int64_t bound,
      std::int64_t cap) const;

  /// Candidate spatial factors for a loop bound across `array_dim` PEs.
  [[nodiscard]] std::vector<std::int64_t> spatial_candidates(
      const std::vector<std::int64_t>& bound_divisors, std::int64_t bound,
      std::int64_t array_dim) const;

  /// Walk the bounded mapping space in its one canonical order, invoking
  /// `fn(mapping, cost)` for every feasible candidate (cost-model valid
  /// *and* placeable on the array state). Defined in mapper.cpp; both the
  /// argmin and the Pareto searches are this enumeration plus a fold.
  template <class Fn>
  SearchCounters enumerate_candidates(const nn::LayerSpec& layer,
                                      Fn&& fn) const;

  [[nodiscard]] LayerSchedule search(const nn::LayerSpec& layer) const;
  [[nodiscard]] LayerSchedule search_weighted(const nn::LayerSpec& layer) const;

  /// The layer's Pareto front as parallel arrays (points[i] priced by
  /// costs[i]), canonically sorted. \post !points.empty().
  void build_front(const nn::LayerSpec& layer, std::vector<ParetoPoint>& points,
                   std::vector<CostResult>& costs) const;

  /// One lock stripe of the shape memo; shapes hash to a fixed shard, so
  /// concurrent searches of distinct shapes rarely contend.
  struct CacheShard {
    mutable util::Mutex mu;
    std::unordered_map<LayerShapeKey, LayerSchedule, LayerShapeKeyHash> map
        ROTA_GUARDED_BY(mu);
  };
  static constexpr std::size_t kCacheShards = 8;

  CacheShard& shard_of(const LayerShapeKey& key);

  CostModel cost_;
  ObjectiveSpec objective_;
  MapperOptions options_;
  ArrayState array_;
  std::array<CacheShard, kCacheShards> cache_;
};

}  // namespace rota::sched
