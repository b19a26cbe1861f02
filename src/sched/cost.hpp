#pragma once

#include <cstdint>

#include "arch/config.hpp"
#include "arch/energy.hpp"
#include "nn/layer.hpp"
#include "sched/mapping.hpp"

/// \file cost.hpp
/// Analytical cost model of one (layer, mapping) pair: validity against
/// buffer capacities, access counts per memory level, energy in MAC units,
/// execution cycles, and the tile (utilization-space dispatch) count Z
/// that the wear simulator consumes.
///
/// The traffic model is Timeloop-style: loop bounds are padded to the
/// chosen factors, per-dispatch footprints are derived from the loop nest,
/// and DRAM traffic is the better of two outer-loop orders (output-tile
/// outer with weights streamed, or output-channel outer with weights
/// resident). See DESIGN.md §2 for the substitution rationale.

namespace rota::sched {

/// Outer-loop order chosen by the DRAM traffic model.
enum class OuterOrder : std::uint8_t {
  kOutputTileOuter,     ///< (n, p, q) outer; weights stream per pass
  kOutputChannelOuter,  ///< k outer; weights loaded once, inputs may reload
};

/// Cost-model verdict for one mapping.
struct CostResult {
  bool valid = false;          ///< false if any capacity constraint fails
  std::int64_t tiles = 0;      ///< Z: utilization-space dispatches
  arch::AccessCounts accesses; ///< per-level access counts
  double energy = 0.0;         ///< MAC-normalized energy
  double cycles = 0.0;         ///< pipelined execution cycles
  OuterOrder order = OuterOrder::kOutputTileOuter;

  // Tiling hierarchy: `tiles` (above) counts GLB-resident *data tiles* —
  // the unit at which the wear-leveling origin strides (paper §II). Each
  // data tile groups `allocations_per_tile` output tiles, and each output
  // tile takes `reduction_steps` local-buffer refills.
  std::int64_t output_tiles = 0;          ///< N·Tk·Tp·Tq output tiles
  std::int64_t allocations_per_tile = 1;  ///< output tiles per data tile

  // Per-refill quantities consumed by the execution engine (sim module).
  std::int64_t scatter_words = 0;       ///< input + weight words per refill
  std::int64_t compute_macs_per_pe = 0; ///< MACs each active PE performs
  std::int64_t gather_words = 0;        ///< output words drained per reduction
  std::int64_t reduction_steps = 1;     ///< refills per output drain
};

/// The loop bounds and MAC count of one layer as the cost model reads
/// them, derived once per layer rather than once per candidate mapping.
struct LayerBounds {
  std::int64_t n = 0;   ///< batch
  std::int64_t k = 0;   ///< output channels
  std::int64_t cg = 0;  ///< input channels per group
  std::int64_t g = 0;   ///< groups
  std::int64_t p = 0;   ///< output height
  std::int64_t q = 0;   ///< output width
  std::int64_t r = 0;   ///< kernel height
  std::int64_t s = 0;   ///< kernel width
  std::int64_t stride_h = 0;
  std::int64_t stride_w = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t macs = 0;

  [[nodiscard]] static LayerBounds of(const nn::LayerSpec& layer);
};

/// The terms of a mapping fixed by its spatial choice (dim_x, dim_y, sx,
/// sy) alone: the outer level of the mapper's loop nest (DESIGN.md §14.5).
struct SpatialTerms {
  bool valid = false;            ///< false if a spatial check fails
  std::int64_t k_cov = 0;        ///< output channels across the width
  std::int64_t q_spatial = 0;    ///< output columns across the width
  std::int64_t p_cov = 0;        ///< output rows across the height
  std::int64_t c_spatial = 0;    ///< input channels across the height
  std::int64_t tk = 0;           ///< output-channel tiles
  std::int64_t tp = 0;           ///< output-row tiles
  std::int64_t k_pad = 0;        ///< K padded to tk·k_cov
  std::int64_t p_pad = 0;        ///< P padded to tp·p_cov
  std::int64_t g_span = 0;       ///< groups one column-tile spans
  std::int64_t in_rows = 0;      ///< input rows one dispatch reads
};

/// The terms fixed once lb_s and lb_c are chosen as well: the middle
/// levels of the loop nest.
struct ReductionTerms {
  bool valid = false;               ///< false if any check so far fails
  std::int64_t c_cov = 0;           ///< input channels one dispatch covers
  std::int64_t red_steps = 0;       ///< local-buffer refills per output tile
  std::int64_t cg_pad = 0;          ///< Cg padded to the channel tiles
  std::int64_t s_pad = 0;           ///< S padded to the tap tiles
  std::int64_t w_disp = 0;          ///< weight words per dispatch
  std::int64_t weight_padded = 0;   ///< padded weight tensor, words
  std::int64_t input_total = 0;     ///< padded input tensor, words
  std::int64_t w_alloc = 0;         ///< weight words of one output tile
};

/// Evaluates mappings for a fixed accelerator and energy model.
///
/// evaluate() is the composition of three stages, one per level of the
/// mapper's loop nest, so a search can price each level once:
/// spatial_terms() reads dim_x, dim_y, sx and sy; reduction_terms() adds
/// lb_s and lb_c; finish() adds lb_q. Each stage runs the feasibility
/// checks whose inputs it fixes, and an invalid stage makes every later
/// one invalid.
class CostModel {
 public:
  CostModel(arch::AcceleratorConfig cfg, arch::EnergyModel energy = {});

  [[nodiscard]] const arch::AcceleratorConfig& config() const { return cfg_; }
  [[nodiscard]] const arch::EnergyModel& energy_model() const { return energy_; }

  /// Evaluate one candidate mapping. Never throws for in-range mappings;
  /// infeasible candidates return {valid = false}.
  [[nodiscard]] CostResult evaluate(const nn::LayerSpec& layer,
                                    const Mapping& m) const {
    return evaluate(LayerBounds::of(layer), m);
  }
  /// The same, on bounds the caller derived once for many mappings.
  [[nodiscard]] CostResult evaluate(const LayerBounds& layer,
                                    const Mapping& m) const {
    const SpatialTerms spatial = spatial_terms(layer, m);
    return finish(layer, spatial, reduction_terms(layer, spatial, m), m);
  }

  /// Stage 1: the terms fixed by m's dim_x, dim_y, sx and sy.
  [[nodiscard]] SpatialTerms spatial_terms(const LayerBounds& layer,
                                           const Mapping& m) const;
  /// Stage 2: the terms fixed once m's lb_s and lb_c are chosen too.
  /// `spatial` is spatial_terms() of the same layer and m's spatial fields.
  [[nodiscard]] ReductionTerms reduction_terms(const LayerBounds& layer,
                                               const SpatialTerms& spatial,
                                               const Mapping& m) const;
  /// Stage 3: the verdict of the full mapping m, lb_q included. `spatial`
  /// and `reduction` are the earlier stages on the same layer and m.
  [[nodiscard]] CostResult finish(const LayerBounds& layer,
                                  const SpatialTerms& spatial,
                                  const ReductionTerms& reduction,
                                  const Mapping& m) const;

 private:
  arch::AcceleratorConfig cfg_;
  arch::EnergyModel energy_;
  // Buffer capacities in words (cfg_ is fixed at construction).
  std::int64_t lb_input_words_ = 0;
  std::int64_t lb_weight_words_ = 0;
  std::int64_t lb_output_words_ = 0;
  std::int64_t glb_words_ = 0;
};

}  // namespace rota::sched
