#include "sched/cost.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/math.hpp"

namespace rota::sched {

using util::ceil_div;

LayerBounds LayerBounds::of(const nn::LayerSpec& layer) {
  LayerBounds b;
  b.n = layer.batch;
  b.k = layer.out_channels;
  b.cg = layer.channels_per_group();
  b.g = layer.groups;
  b.p = layer.out_h();
  b.q = layer.out_w();
  b.r = layer.kernel_h;
  b.s = layer.kernel_w;
  b.stride_h = layer.stride_h;
  b.stride_w = layer.stride_w;
  b.in_h = layer.in_h;
  b.in_w = layer.in_w;
  b.macs = layer.macs();
  return b;
}

CostModel::CostModel(arch::AcceleratorConfig cfg, arch::EnergyModel energy)
    : cfg_(std::move(cfg)), energy_(energy) {
  cfg_.validate();
  lb_input_words_ = cfg_.lb_input_words();
  lb_weight_words_ = cfg_.lb_weight_words();
  lb_output_words_ = cfg_.lb_output_words();
  glb_words_ = cfg_.glb_words();
}

SpatialTerms CostModel::spatial_terms(const LayerBounds& layer,
                                      const Mapping& m) const {
  SpatialTerms st;

  // ---- Feasibility ------------------------------------------------------
  if (m.sx < 1 || m.sx > cfg_.array_width) return st;
  if (m.sy < 1 || m.sy > cfg_.array_height) return st;
  const std::int64_t bound_x =
      (m.dim_x == SpatialX::kOutChannels) ? layer.k : layer.q;
  const std::int64_t bound_y =
      (m.dim_y == SpatialY::kOutHeight) ? layer.p : layer.cg;
  if (m.sx > bound_x || m.sy > bound_y) return st;

  // ---- Loop tiling ------------------------------------------------------
  st.k_cov = (m.dim_x == SpatialX::kOutChannels) ? m.sx : 1;
  st.q_spatial = (m.dim_x == SpatialX::kOutWidth) ? m.sx : 1;
  st.p_cov = (m.dim_y == SpatialY::kOutHeight) ? m.sy : 1;
  st.c_spatial = (m.dim_y == SpatialY::kInChannels) ? m.sy : 1;
  st.tk = ceil_div(layer.k, st.k_cov);
  st.tp = ceil_div(layer.p, st.p_cov);

  // Padded bounds: traffic and tile counts are charged at the padded size,
  // which is how imperfect factors pay for their waste.
  st.k_pad = st.tk * st.k_cov;
  st.p_pad = st.tp * st.p_cov;

  st.in_rows = (st.p_cov - 1) * layer.stride_h + layer.r;
  // Groups spanned by one column-tile of output channels: a dense conv
  // shares one input slice across all columns; a depthwise conv needs a
  // distinct channel per column.
  const std::int64_t k_per_group = std::max<std::int64_t>(1, layer.k / layer.g);
  st.g_span =
      std::min<std::int64_t>(layer.g, ceil_div(st.k_cov, k_per_group));
  st.valid = true;
  return st;
}

ReductionTerms CostModel::reduction_terms(const LayerBounds& layer,
                                          const SpatialTerms& spatial,
                                          const Mapping& m) const {
  ReductionTerms rt;
  if (!spatial.valid) return rt;
  const std::int64_t r = layer.r;

  // ---- Feasibility ------------------------------------------------------
  if (m.lb_c < 1 || m.lb_c > layer.cg) return rt;
  if (m.lb_s < 1 || m.lb_s > layer.s) return rt;

  // Per-PE buffer residency. The input buffer is modeled as a sliding
  // window of lb_s filter-column taps per resident input channel; the
  // weight buffer holds one output channel's lb_c×R×lb_s filter slice.
  if (m.lb_c * r * m.lb_s > lb_weight_words_) return rt;
  if (m.lb_c * m.lb_s > lb_input_words_) return rt;

  // ---- Loop tiling ------------------------------------------------------
  rt.c_cov = spatial.c_spatial * m.lb_c;
  const std::int64_t tc = ceil_div(layer.cg, rt.c_cov);
  const std::int64_t ts = ceil_div(layer.s, m.lb_s);
  rt.red_steps = tc * ts;
  rt.cg_pad = tc * rt.c_cov;
  rt.s_pad = ts * m.lb_s;

  // ---- Footprints (words) -----------------------------------------------
  rt.w_disp = spatial.k_cov * m.lb_c * spatial.c_spatial * r * m.lb_s;
  rt.weight_padded = spatial.k_pad * rt.cg_pad * r * rt.s_pad;
  rt.input_total =
      layer.n * layer.g * rt.cg_pad * layer.in_h * layer.in_w;
  rt.w_alloc = spatial.k_cov * rt.cg_pad * r * rt.s_pad;
  rt.valid = true;
  return rt;
}

CostResult CostModel::finish(const LayerBounds& layer,
                             const SpatialTerms& spatial,
                             const ReductionTerms& reduction,
                             const Mapping& m) const {
  CostResult res;
  if (!reduction.valid) return res;

  const std::int64_t n = layer.n;
  const std::int64_t q = layer.q;
  const std::int64_t r = layer.r;
  const std::int64_t k_cov = spatial.k_cov;
  const std::int64_t p_cov = spatial.p_cov;
  const std::int64_t c_spatial = spatial.c_spatial;
  const std::int64_t in_rows = spatial.in_rows;
  const std::int64_t red_steps = reduction.red_steps;
  const std::int64_t cg_pad = reduction.cg_pad;
  const std::int64_t w_disp = reduction.w_disp;
  const std::int64_t weight_padded = reduction.weight_padded;
  const std::int64_t input_total = reduction.input_total;

  // ---- Feasibility ------------------------------------------------------
  if (m.lb_q < 1 || m.lb_q > q) return res;
  // The output buffer holds the lb_q partial sums a PE owns.
  if (m.lb_q > lb_output_words_) return res;

  // ---- Loop tiling ------------------------------------------------------
  const std::int64_t q_cov = spatial.q_spatial * m.lb_q;
  const std::int64_t tq = ceil_div(q, q_cov);
  const std::int64_t output_tiles = n * spatial.tk * spatial.tp * tq;
  const std::int64_t lb_dispatches = output_tiles * red_steps;
  res.output_tiles = output_tiles;
  const std::int64_t q_pad = tq * q_cov;

  // ---- Per-dispatch footprints (words) -----------------------------------
  const std::int64_t in_cols = (q_cov - 1) * layer.stride_w + m.lb_s;
  const std::int64_t in_disp =
      reduction.c_cov * spatial.g_span * in_rows * in_cols;
  const std::int64_t out_disp = k_cov * p_cov * q_cov;

  // GLB must double-buffer one dispatch working set.
  if (2 * (in_disp + w_disp + out_disp) > glb_words_) return res;

  // ---- Access counts ------------------------------------------------------
  arch::AccessCounts& acc = res.accesses;
  acc.macs = layer.macs;
  // Each MAC reads an input and a weight and updates a partial sum in the
  // PE-local buffers.
  acc.lb_accesses = 3 * acc.macs;
  // Spatial reduction moves partial sums down each column ring.
  acc.inter_pe_hops =
      (c_spatial > 1) ? lb_dispatches * m.sx * (c_spatial - 1) * m.lb_q : 0;

  acc.glb_accesses = lb_dispatches * (in_disp + w_disp);
  const std::int64_t out_padded = n * spatial.k_pad * spatial.p_pad * q_pad;
  acc.glb_accesses += out_padded * (2 * red_steps - 1);

  // ---- DRAM traffic: best of two outer-loop orders ------------------------
  const std::int64_t glb_share = glb_words_ / 2;
  const std::int64_t in_cols_pass = (q_cov - 1) * layer.stride_w + layer.s;
  const std::int64_t in_pass = layer.g * cg_pad * in_rows * in_cols_pass;
  const std::int64_t passes = n * spatial.tp * tq;

  // Order A: (n, p, q) outer. Inputs fetched once per pass if the pass
  // tile fits; weights stream every pass unless fully resident.
  std::int64_t dram_a = 0;
  dram_a += (in_pass <= glb_share) ? passes * in_pass
                                   : passes * in_pass * spatial.tk;
  dram_a += (weight_padded <= glb_share) ? weight_padded
                                         : weight_padded * passes;
  dram_a += out_padded;

  // Order B: k outer. Weights loaded exactly once; inputs reload per
  // output-channel tile unless the whole input fits.
  std::int64_t dram_b = 0;
  dram_b += weight_padded;
  dram_b += (input_total <= glb_share) ? input_total
                                       : input_total * spatial.tk;
  dram_b += out_padded;

  if (dram_a <= dram_b) {
    acc.dram_accesses = dram_a;
    res.order = OuterOrder::kOutputTileOuter;
  } else {
    acc.dram_accesses = dram_b;
    res.order = OuterOrder::kOutputChannelOuter;
  }

  // Group output tiles into GLB-resident data tiles (paper §II: a layer is
  // divided into tiles fitting into on-chip buffers). The wear-leveling
  // origin strides once per data tile. One output tile's unique working
  // set spans its whole reduction.
  const std::int64_t in_alloc =
      spatial.g_span * cg_pad * in_rows * in_cols_pass;
  const std::int64_t alloc_words = reduction.w_alloc + in_alloc + out_disp;
  res.allocations_per_tile = std::min(
      std::max<std::int64_t>(1, glb_words_ / alloc_words),
      output_tiles);
  res.tiles = ceil_div(output_tiles, res.allocations_per_tile);

  res.energy = arch::total_energy(energy_, acc);

  // ---- Cycles: double-buffered dispatch pipeline ---------------------------
  const double bw = static_cast<double>(cfg_.global_net_words_per_cycle);
  const double compute =
      static_cast<double>(m.lb_q * m.lb_c * r * m.lb_s);
  const double load = std::ceil(static_cast<double>(in_disp + w_disp) / bw);
  const double drain = static_cast<double>(out_disp) /
                       (bw * static_cast<double>(red_steps));
  const double per_dispatch = std::max({compute, load, drain});
  res.cycles =
      static_cast<double>(lb_dispatches) * per_dispatch + load + compute;

  res.scatter_words = in_disp + w_disp;
  res.compute_macs_per_pe = m.lb_q * m.lb_c * r * m.lb_s;
  res.gather_words = out_disp;
  res.reduction_steps = red_steps;

  res.valid = true;
  return res;
}

}  // namespace rota::sched
