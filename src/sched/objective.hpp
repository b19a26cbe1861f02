#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "reliability/weibull.hpp"
#include "sched/cost.hpp"
#include "sched/mapping.hpp"
#include "util/result.hpp"

/// \file objective.hpp
/// The pluggable scoring layer of the mapper (DESIGN.md §15). An
/// ObjectiveSpec names *what* the search optimizes; the mapper stays the
/// one search engine. Three pure objectives plus a weighted scalarization:
///
///   energy      — the historical behavior: minimize MAC-normalized energy
///                 (ties: cycles, larger utilization space, lexicographic
///                 mapping order). Byte-identical to the pre-objective
///                 mapper by construction.
///   lifetime    — maximize the projected array MTTF under leveled wear
///                 (equivalently: minimize total PE-allocations per
///                 iteration, tiles·sx·sy; see the projected-MTTF helper
///                 below).
///   throughput  — minimize pipelined execution cycles.
///   weighted:w1,w2,w3 — build the per-layer Pareto front over (energy,
///                 projected MTTF, cycles) and collapse it with
///                 front-normalized weights (w1 energy, w2 lifetime,
///                 w3 cycles).
///
/// Everything here is a pure, deterministic function of its arguments —
/// no clocks, no randomness, no global state — which is what makes the
/// mapper's results bit-identical at any thread count.

namespace rota::sched {

/// Which scalar the search minimizes (or, for kWeighted, how the Pareto
/// front is collapsed).
enum class ObjectiveKind : std::uint8_t {
  kEnergy,
  kLifetime,
  kThroughput,
  kWeighted,
};

[[nodiscard]] std::string_view to_string(ObjectiveKind kind);

/// Scalarization weights over the three Pareto axes. Pure objectives
/// carry their canonical unit vector so `weights` is always meaningful
/// (manifests stamp it unconditionally).
struct ObjectiveWeights {
  double energy = 1.0;
  double lifetime = 0.0;
  double cycles = 0.0;

  friend bool operator==(const ObjectiveWeights&,
                         const ObjectiveWeights&) = default;
};

/// Value-type description of an objective. Defaults to the energy
/// objective, i.e. `ObjectiveSpec{}` reproduces the historical mapper.
struct ObjectiveSpec {
  ObjectiveKind kind = ObjectiveKind::kEnergy;
  ObjectiveWeights weights;  ///< canonical unit vector for pure kinds

  /// Round-trippable identifier: "energy" | "lifetime" | "throughput" |
  /// "weighted:<w1>,<w2>,<w3>" (weights printed with shortest round-trip
  /// precision, so parse_objective(id()) == *this exactly). Stamped into
  /// RunManifest extra and ScheduleCache fingerprints.
  [[nodiscard]] std::string id() const;

  /// "w1,w2,w3" with round-trip precision (manifest `objective.weights`).
  [[nodiscard]] std::string weights_csv() const;

  [[nodiscard]] static ObjectiveSpec energy() { return {}; }
  [[nodiscard]] static ObjectiveSpec lifetime() {
    return {ObjectiveKind::kLifetime, {0.0, 1.0, 0.0}};
  }
  [[nodiscard]] static ObjectiveSpec throughput() {
    return {ObjectiveKind::kThroughput, {0.0, 0.0, 1.0}};
  }
  /// \pre weights finite, non-negative, not all zero.
  [[nodiscard]] static ObjectiveSpec weighted(double w_energy,
                                              double w_lifetime,
                                              double w_cycles);

  friend bool operator==(const ObjectiveSpec&, const ObjectiveSpec&) = default;
};

/// Parse the user-facing grammar
///   energy | lifetime | throughput | weighted:<w1>,<w2>,<w3>
/// (weights: finite, >= 0, at least one positive). Errors are
/// invalid_argument with the offending text named.
[[nodiscard]] util::Result<ObjectiveSpec> parse_objective(
    std::string_view text);

/// Projected MTTF (η = 1) of a schedule that allocates
/// `pe_allocations` = tiles·sx·sy PE-allocations per network iteration,
/// assuming the wear-leveling policy spreads them uniformly over the
/// `live_pes` live PEs of the array (the RoTA steady state). From Eq. (3)
/// with α_i = A/n for all i:
///
///   MTTF = Γ(1 + 1/β) · n^(1 − 1/β) / A
///
/// Any common per-iteration scale cancels out of relative comparisons, so
/// for a fixed array the lifetime objective reduces to minimizing A.
/// \pre pe_allocations >= 1, live_pes >= 1, beta > 0.
[[nodiscard]] double projected_mttf(std::int64_t pe_allocations,
                                    std::int64_t live_pes,
                                    double beta = rel::kJedecShape);

/// One member of a per-layer Pareto front.
struct ParetoPoint {
  Mapping mapping;
  double energy = 0.0;  ///< MAC-normalized energy (CostResult::energy)
  double cycles = 0.0;  ///< pipelined execution cycles
  double mttf = 0.0;    ///< projected_mttf(pe_allocations, live PEs)
  std::int64_t tiles = 0;           ///< Z: utilization-space dispatches
  std::int64_t pe_allocations = 0;  ///< tiles · sx · sy per iteration
  /// First feasible window anchor on the (possibly degraded) array, in
  /// row-major (v, then u) order; (0,0) on an all-live array.
  std::int64_t anchor_u = 0;
  std::int64_t anchor_v = 0;
  /// True on the one member the mapper's scalarization picks from this
  /// front (the energy front minimum for `energy`, the MTTF maximum for
  /// `lifetime`, …). Exactly one point per front is selected.
  bool selected = false;

  friend bool operator==(const ParetoPoint&, const ParetoPoint&) = default;
};

/// Pareto front of one layer, in canonical order (energy ascending, then
/// cycles ascending, then MTTF descending, then lexicographic mapping
/// order) — the same front bytes for any thread count.
struct LayerParetoFront {
  std::string layer_name;
  std::string shape_key;
  std::vector<ParetoPoint> points;
};

/// Per-layer fronts for a whole network plus the search provenance
/// (objective, array-state digest) consumers stamp into envelopes.
struct NetworkParetoFront {
  std::string network_name;
  std::string network_abbr;
  arch::AcceleratorConfig config;
  ObjectiveSpec objective;
  std::string array_digest;  ///< ArrayState::digest() ("live" = no dead PEs)
  std::int64_t live_pes = 0;
  std::vector<LayerParetoFront> layers;
};

/// Strict lexicographic order over (dim_x, dim_y, sx, sy, lb_c, lb_q,
/// lb_s) — the final determinism tie-break everywhere in this module.
[[nodiscard]] bool mapping_lex_less(const Mapping& a, const Mapping& b);

/// Pareto dominance: `a` dominates `b` iff a.energy <= b.energy,
/// a.mttf >= b.mttf and a.cycles <= b.cycles with at least one strict.
/// Irreflexive and transitive (sched_test pins both).
[[nodiscard]] bool dominates(const ParetoPoint& a, const ParetoPoint& b);

/// Canonical front order: energy, then cycles, then MTTF descending, then
/// mapping_lex_less.
[[nodiscard]] bool pareto_canonical_less(const ParetoPoint& a,
                                         const ParetoPoint& b);

/// Incremental Pareto front over (energy, projected MTTF, cycles): the
/// fold behind Mapper::pareto_layer. Each member keeps the CostResult that
/// priced it. The front is always mutually non-dominated and holds at most
/// one member per objective triple (the mapping_lex_less-least one), so
/// the final set does not depend on the order candidates are offered in.
class ParetoFrontBuilder {
 public:
  /// Fold one candidate into the front. p's energy, mttf and cycles must
  /// be finite (the cost model's are); dominated_by_last() checks them.
  void offer(const ParetoPoint& p, const CostResult& c);

  /// Whether the last dominator found dominates the triple: offer() drops
  /// such a candidate first thing, so a caller may test this before it
  /// builds the ParetoPoint at all.
  /// \pre energy, mttf and cycles are finite.
  [[nodiscard]] bool dominated_by_last(double energy, double mttf,
                                       double cycles) const;

  /// Write the front to `points` and `costs` (parallel arrays, replacing
  /// their contents), canonically ordered by pareto_canonical_less, and
  /// leave the builder empty.
  void take(std::vector<ParetoPoint>& points, std::vector<CostResult>& costs);

 private:
  /// A member's objective triple, scanned apart from its heavier records.
  struct Objectives {
    double energy = 0.0;
    double mttf = 0.0;
    double cycles = 0.0;
  };

  /// `a` is no worse than `b` on every axis. For finite values, dominance
  /// is weak one way and not the other; an equal triple is weak both ways.
  [[nodiscard]] static bool weak(const Objectives& a, const Objectives& b) {
    return (a.energy <= b.energy) & (a.mttf >= b.mttf) & (a.cycles <= b.cycles);
  }

  std::vector<Objectives> keys_;  ///< keys_[i] is points_[i]'s triple
  std::vector<ParetoPoint> points_;
  std::vector<CostResult> costs_;
  /// The last triple found dominating a candidate, checked first: it is a
  /// member's, or dominated by a member, so whatever it dominates is off
  /// the front too.
  Objectives last_dominator_;
  bool has_last_dominator_ = false;
};

/// Strict-weak candidate ordering induced by a *pure* objective — the
/// single-pass argmin comparator the mapper runs. For kEnergy this is
/// exactly the historical chain (energy, cycles, larger sx·sy, then
/// mapping_lex_less), which is what keeps default schedules byte-stable.
/// \pre spec.kind != kWeighted (the weighted objective is defined on a
/// front, not pairwise).
[[nodiscard]] bool objective_better(const ObjectiveSpec& spec,
                                    const CostResult& a, const Mapping& ma,
                                    const CostResult& b, const Mapping& mb);

/// Index of the front member the scalarization selects from `points`
/// (front-relative: pure objectives take their chain's minimum over the
/// front; kWeighted minimizes w1·e/e_min + w2·mttf_max/mttf + w3·c/c_min).
/// Ties resolve to the earliest index, so on a canonically ordered front
/// the pick is deterministic. \pre points non-empty.
[[nodiscard]] std::size_t select_from_front(
    const std::vector<ParetoPoint>& points, const ObjectiveSpec& spec);

}  // namespace rota::sched
