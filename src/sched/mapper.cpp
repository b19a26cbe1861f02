#include "sched/mapper.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace rota::sched {

LayerShapeKey LayerShapeKey::of(const nn::LayerSpec& layer) {
  LayerShapeKey key;
  key.kind = static_cast<int>(layer.kind);
  key.batch = layer.batch;
  key.out_channels = layer.out_channels;
  key.in_channels = layer.in_channels;
  key.in_h = layer.in_h;
  key.in_w = layer.in_w;
  key.kernel_h = layer.kernel_h;
  key.kernel_w = layer.kernel_w;
  key.stride_h = layer.stride_h;
  key.stride_w = layer.stride_w;
  key.pad_h = layer.pad_h;
  key.pad_w = layer.pad_w;
  key.groups = layer.groups;
  return key;
}

std::size_t LayerShapeKeyHash::operator()(const LayerShapeKey& key) const {
  // splitmix64 finalizer over each field: cheap, and the avalanche keeps
  // near-identical shapes (off-by-one bounds) in different buckets/shards.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    std::uint64_t z = (h += v + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  };
  mix(static_cast<std::uint64_t>(key.kind));
  mix(static_cast<std::uint64_t>(key.batch));
  mix(static_cast<std::uint64_t>(key.out_channels));
  mix(static_cast<std::uint64_t>(key.in_channels));
  mix(static_cast<std::uint64_t>(key.in_h));
  mix(static_cast<std::uint64_t>(key.in_w));
  mix(static_cast<std::uint64_t>(key.kernel_h));
  mix(static_cast<std::uint64_t>(key.kernel_w));
  mix(static_cast<std::uint64_t>(key.stride_h));
  mix(static_cast<std::uint64_t>(key.stride_w));
  mix(static_cast<std::uint64_t>(key.pad_h));
  mix(static_cast<std::uint64_t>(key.pad_w));
  mix(static_cast<std::uint64_t>(key.groups));
  return static_cast<std::size_t>(h);
}

Mapper::Mapper(arch::AcceleratorConfig cfg, ObjectiveSpec objective,
               arch::EnergyModel energy, MapperOptions options,
               ArrayState array)
    : cost_(std::move(cfg), energy),
      objective_(objective),
      options_(options),
      array_(std::move(array)) {
  if (array_.concrete()) {
    const auto& accel = cost_.config();
    ROTA_REQUIRE(array_.width() == accel.array_width &&
                     array_.height() == accel.array_height,
                 "ArrayState geometry " + std::to_string(array_.width()) +
                     "x" + std::to_string(array_.height()) +
                     " does not match the accelerator array " +
                     std::to_string(accel.array_width) + "x" +
                     std::to_string(accel.array_height));
  }
}

Mapper::CacheShard& Mapper::shard_of(const LayerShapeKey& key) {
  return cache_[LayerShapeKeyHash{}(key) % kCacheShards];
}

std::size_t Mapper::cache_size() const {
  std::size_t total = 0;
  for (const CacheShard& shard : cache_) {
    const util::MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

std::vector<std::int64_t> Mapper::factor_ladder(
    const std::vector<std::int64_t>& bound_divisors, std::int64_t bound,
    std::int64_t cap) const {
  ROTA_REQUIRE(bound > 0, "factor ladder needs a positive bound");
  std::vector<std::int64_t> ladder;
  cap = std::min(cap, bound);
  if (cap < 1) return ladder;
  ladder.reserve(bound_divisors.size());
  for (std::int64_t d : bound_divisors) {
    if (d <= cap) ladder.push_back(d);
  }
  if (!options_.exact_factors_only &&
      (ladder.empty() || ladder.back() != cap)) {
    ladder.push_back(cap);
  }
  return ladder;
}

std::vector<std::int64_t> Mapper::spatial_candidates(
    const std::vector<std::int64_t>& bound_divisors, std::int64_t bound,
    std::int64_t array_dim) const {
  const std::int64_t cap = std::min(array_dim, bound);
  std::vector<std::int64_t> out;
  if (options_.exact_factors_only) {
    out.reserve(bound_divisors.size());
    for (std::int64_t d : bound_divisors) {
      if (d <= cap) out.push_back(d);
    }
  } else {
    out.reserve(static_cast<std::size_t>(cap));
    for (std::int64_t f = 1; f <= cap; ++f) out.push_back(f);
  }
  return out;
}

namespace {

/// Fill a LayerSchedule from the winning (mapping, cost) pair.
LayerSchedule assemble_schedule(const nn::LayerSpec& layer, const Mapping& map,
                                const CostResult& cost) {
  LayerSchedule sched;
  sched.layer_name = layer.name;
  sched.shape_key = layer.shape_key();
  sched.space = UtilSpace{map.sx, map.sy};
  sched.tiles = cost.tiles;
  sched.mapping = map;
  sched.accesses = cost.accesses;
  sched.energy = cost.energy;
  sched.cycles = cost.cycles;
  sched.macs = layer.macs();
  sched.output_tiles = cost.output_tiles;
  sched.allocations_per_tile = cost.allocations_per_tile;
  sched.scatter_words = cost.scatter_words;
  sched.compute_macs_per_pe = cost.compute_macs_per_pe;
  sched.gather_words = cost.gather_words;
  sched.reduction_steps = cost.reduction_steps;
  return sched;
}

/// The error of a search that found no feasible mapping. Built by appends:
/// GCC 12 raises a false -Wrestrict on `"literal" + std::to_string(...)`.
std::string no_feasible_mapping_message(const nn::LayerSpec& layer,
                                        const ArrayState& array) {
  std::string msg = "no feasible mapping for layer ";
  msg += layer.name;
  if (array.dead_count() > 0) {
    msg += " on the degraded array (";
    msg += std::to_string(array.dead_count());
    msg += " dead PEs)";
  }
  return msg;
}

void report_candidate_metrics(const std::int64_t evaluated,
                              const std::int64_t feasible) {
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.add("mapper.candidates_evaluated", evaluated);
    reg.add("mapper.candidates_feasible", feasible);
    reg.add("mapper.candidates_pruned", evaluated - feasible);
  }
}

}  // namespace

template <class Fn>
Mapper::SearchCounters Mapper::enumerate_candidates(const nn::LayerSpec& layer,
                                                    Fn&& fn) const {
  const auto& cfg = cost_.config();
  const LayerBounds bounds = LayerBounds::of(layer);
  const std::int64_t cg = bounds.cg;
  const std::int64_t q = bounds.q;
  const std::int64_t p = bounds.p;
  const std::int64_t k = bounds.k;
  const std::int64_t r = bounds.r;
  const std::int64_t s = bounds.s;

  SearchCounters counters;

  // Divisors of each loop bound the ladders draw from, computed once per
  // search.
  const std::vector<std::int64_t> divs_k = util::divisors(k);
  const std::vector<std::int64_t> divs_q = util::divisors(q);
  const std::vector<std::int64_t> divs_p = util::divisors(p);
  const std::vector<std::int64_t> divs_cg = util::divisors(cg);
  const std::vector<std::int64_t> lb_s_candidates = util::divisors(s);
  const std::vector<std::int64_t> lb_q_candidates =
      factor_ladder(divs_q, q, std::min(q, cfg.lb_output_words()));

  // The lb_c ladder depends only on lb_s (through the buffer capacity
  // cap), not on the spatial factors: hoist one ladder per lb_s out of
  // the four-deep candidate loops.
  std::vector<std::vector<std::int64_t>> lb_c_ladders;
  lb_c_ladders.reserve(lb_s_candidates.size());
  for (std::int64_t lb_s : lb_s_candidates) {
    const std::int64_t cap_c =
        std::min(cfg.lb_weight_words() / (r * lb_s),
                 cfg.lb_input_words() / lb_s);
    lb_c_ladders.push_back(cap_c < 1 ? std::vector<std::int64_t>{}
                                     : factor_ladder(divs_cg, cg, cap_c));
  }

  for (SpatialX dx : {SpatialX::kOutChannels, SpatialX::kOutWidth}) {
    const bool x_is_k = dx == SpatialX::kOutChannels;
    const std::vector<std::int64_t> sx_candidates =
        spatial_candidates(x_is_k ? divs_k : divs_q, x_is_k ? k : q,
                           cfg.array_width);
    for (SpatialY dy : {SpatialY::kOutHeight, SpatialY::kInChannels}) {
      const bool y_is_p = dy == SpatialY::kOutHeight;
      const std::vector<std::int64_t> sy_candidates =
          spatial_candidates(y_is_p ? divs_p : divs_cg, y_is_p ? p : cg,
                             cfg.array_height);
      for (std::int64_t sx : sx_candidates) {
        for (std::int64_t sy : sy_candidates) {
          // A window with no dead-PE-free placement is infeasible before
          // any tiling choice; the whole subtree is skipped (free for the
          // all-live state, so the default search is untouched).
          if (!array_.fits(sx, sy)) continue;
          // Each level of the nest prices the cost-model terms it fixes
          // once; an invalid level makes every candidate below it invalid,
          // and each of those still counts as evaluated.
          Mapping m;
          m.dim_x = dx;
          m.dim_y = dy;
          m.sx = sx;
          m.sy = sy;
          const SpatialTerms spatial = cost_.spatial_terms(bounds, m);
          for (std::size_t si = 0; si < lb_s_candidates.size(); ++si) {
            m.lb_s = lb_s_candidates[si];
            for (std::int64_t lb_c : lb_c_ladders[si]) {
              m.lb_c = lb_c;
              const ReductionTerms reduction =
                  cost_.reduction_terms(bounds, spatial, m);
              for (std::int64_t lb_q : lb_q_candidates) {
                m.lb_q = lb_q;
                const CostResult c =
                    cost_.finish(bounds, spatial, reduction, m);
                ++counters.evaluated;
                if (!c.valid) continue;
                ++counters.feasible;
                fn(m, c);
              }
            }
          }
        }
      }
    }
  }
  return counters;
}

LayerSchedule Mapper::search(const nn::LayerSpec& layer) const {
  if (objective_.kind == ObjectiveKind::kWeighted) {
    return search_weighted(layer);
  }

  bool found = false;
  Mapping best_map;
  CostResult best_cost;
  const SearchCounters counters = enumerate_candidates(
      layer, [&](const Mapping& m, const CostResult& c) {
        if (!found || objective_better(objective_, c, m, best_cost, best_map)) {
          found = true;
          best_cost = c;
          best_map = m;
        }
      });

  ROTA_ENSURE(found, no_feasible_mapping_message(layer, array_));

  report_candidate_metrics(counters.evaluated, counters.feasible);
  return assemble_schedule(layer, best_map, best_cost);
}

void Mapper::build_front(const nn::LayerSpec& layer,
                         std::vector<ParetoPoint>& points,
                         std::vector<CostResult>& costs) const {
  const auto& cfg = cost_.config();
  // Γ(1+1/β)·live^(1−1/β) is projected_mttf's numerator; dividing it by A
  // per candidate is the same evaluation, bit for bit.
  const double mttf_numerator = projected_mttf(
      1, array_.live_count(cfg.array_width, cfg.array_height));

  ParetoFrontBuilder front;
  const SearchCounters counters = enumerate_candidates(
      layer, [&](const Mapping& m, const CostResult& c) {
        const std::int64_t pe_allocations = c.tiles * m.sx * m.sy;
        ROTA_ENSURE(pe_allocations >= 1,
                    "a feasible candidate allocates >= 1 PE");
        const double mttf =
            mttf_numerator / static_cast<double>(pe_allocations);
        // Most candidates stop at the last dominator; test it before the
        // point is built and anchored.
        if (front.dominated_by_last(c.energy, mttf, c.cycles)) return;
        ParetoPoint p;
        p.mapping = m;
        p.energy = c.energy;
        p.cycles = c.cycles;
        p.tiles = c.tiles;
        p.pe_allocations = pe_allocations;
        p.mttf = mttf;
        const auto [u, v] = array_.anchor(m.sx, m.sy);
        p.anchor_u = u;
        p.anchor_v = v;
        front.offer(p, c);
      });
  front.take(points, costs);

  ROTA_ENSURE(!points.empty(), no_feasible_mapping_message(layer, array_));

  report_candidate_metrics(counters.evaluated, counters.feasible);
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.add("mapper.pareto_front_points",
            static_cast<std::int64_t>(points.size()));
  }
}

LayerSchedule Mapper::search_weighted(const nn::LayerSpec& layer) const {
  std::vector<ParetoPoint> points;
  std::vector<CostResult> costs;
  build_front(layer, points, costs);
  const std::size_t pick = select_from_front(points, objective_);
  return assemble_schedule(layer, points[pick].mapping, costs[pick]);
}

LayerParetoFront Mapper::pareto_layer(const nn::LayerSpec& layer) const {
  layer.validate();
  const obs::TraceSpan span(layer.name, "mapper.pareto");
  const obs::ScopedTimer timer("mapper.pareto_seconds");
  std::vector<ParetoPoint> points;
  std::vector<CostResult> costs;
  build_front(layer, points, costs);
  points[select_from_front(points, objective_)].selected = true;
  LayerParetoFront front;
  front.layer_name = layer.name;
  front.shape_key = layer.shape_key();
  front.points = std::move(points);
  return front;
}

NetworkParetoFront Mapper::pareto_network(const nn::Network& net) const {
  const obs::TraceSpan span(net.abbr(), "mapper.pareto");
  const auto& cfg = cost_.config();
  NetworkParetoFront nf;
  nf.network_name = net.name();
  nf.network_abbr = net.abbr();
  nf.config = cfg;
  nf.objective = objective_;
  nf.array_digest = array_.digest();
  nf.live_pes = array_.live_count(cfg.array_width, cfg.array_height);
  nf.layers.reserve(net.layer_count());

  // Unique shapes searched once, into slots fixed before the parallel
  // region — the assembly below reads the same front for a shape no
  // matter which worker produced it, so the output is thread-count
  // independent.
  std::vector<const nn::LayerSpec*> unique;
  std::unordered_map<LayerShapeKey, std::size_t, LayerShapeKeyHash> slot;
  unique.reserve(net.layer_count());
  slot.reserve(net.layer_count());
  for (const auto& layer : net.layers()) {
    const LayerShapeKey key = LayerShapeKey::of(layer);
    if (slot.emplace(key, unique.size()).second) {
      unique.push_back(&layer);
    }
  }

  std::vector<LayerParetoFront> fronts(unique.size());
  const auto search_one = [this, &unique, &fronts](std::int64_t i) {
    fronts[static_cast<std::size_t>(i)] =
        pareto_layer(*unique[static_cast<std::size_t>(i)]);
  };
  par::parallel_for(static_cast<std::int64_t>(unique.size()),
                    options_.threads, search_one);

  for (const auto& layer : net.layers()) {
    LayerParetoFront front = fronts[slot.at(LayerShapeKey::of(layer))];
    front.layer_name = layer.name;
    nf.layers.push_back(std::move(front));
  }
  return nf;
}

LayerSchedule Mapper::schedule_layer(const nn::LayerSpec& layer) {
  layer.validate();
  const LayerShapeKey key = LayerShapeKey::of(layer);
  CacheShard& shard = shard_of(key);
  {
    const util::MutexLock lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      obs::MetricsRegistry::global().add("mapper.cache_hits");
      LayerSchedule sched = it->second;
      sched.layer_name = layer.name;  // cached entry may carry another name
      return sched;
    }
  }
  // Search outside the shard lock: sibling shapes (even same-shard ones)
  // keep making progress while this one is explored.
  const obs::TraceSpan span(layer.name, "mapper.search");
  const obs::ScopedTimer timer("mapper.search_seconds");
  LayerSchedule sched = search(layer);
  obs::MetricsRegistry::global().add("mapper.layers_searched");
  {
    const util::MutexLock lock(shard.mu);
    // A racing thread may have inserted the same shape meanwhile; both
    // computed identical schedules (the search is pure), so first-in wins.
    shard.map.emplace(key, sched);
  }
  return sched;
}

NetworkSchedule Mapper::schedule_network(const nn::Network& net) {
  const obs::TraceSpan span(net.abbr(), "mapper.schedule");
  NetworkSchedule ns;
  ns.network_name = net.name();
  ns.network_abbr = net.abbr();
  ns.config = cost_.config();
  ns.layers.reserve(net.layer_count());

  // Dedupe shapes first so repeated blocks (ResNet stages, decoder
  // layers) dispatch one search, then warm the memo on options().threads
  // lanes. The assembly loop below then runs entirely on cache hits.
  std::vector<const nn::LayerSpec*> unique;
  std::unordered_set<LayerShapeKey, LayerShapeKeyHash> seen;
  unique.reserve(net.layer_count());
  seen.reserve(net.layer_count());
  for (const auto& layer : net.layers()) {
    if (seen.insert(LayerShapeKey::of(layer)).second) {
      unique.push_back(&layer);
    }
  }
  obs::MetricsRegistry::global().add(
      "mapper.layers_deduped",
      static_cast<std::int64_t>(net.layer_count() - unique.size()));
  par::parallel_for(static_cast<std::int64_t>(unique.size()),
                    options_.threads, [this, &unique](std::int64_t i) {
                      (void)schedule_layer(
                          *unique[static_cast<std::size_t>(i)]);
                    });

  for (const auto& layer : net.layers()) {
    ns.layers.push_back(schedule_layer(layer));
  }
  return ns;
}

}  // namespace rota::sched
