/// Ablation (beyond the paper): how the mapper's factorization discipline
/// changes the wear-leveling story. The default exact-divisor mapspace
/// (Timeloop/NeuroSpector convention) under-fills the array and leaves
/// headroom for RWL+RO; a padding-capable mapper fills big GEMMs to ~100%
/// of the array, which shrinks the wear-leveling benefit — utilization
/// imbalance, not wear-leveling, is what disappears.

#include <iostream>

#include "bench_common.hpp"

namespace {

struct Row {
  double util = 0.0;
  double gain = 0.0;
};

Row measure(const rota::nn::Network& net, bool exact) {
  using namespace rota;
  using wear::PolicyKind;
  ExperimentConfig cfg;
  cfg.iterations = 300;
  // Re-map the network with the requested mapspace.
  sched::Mapper mapper(cfg.accel, sched::ObjectiveSpec{}, {},
                       sched::MapperOptions{exact});
  const auto ns = mapper.schedule_network(net);

  Row row;
  row.util = ns.mean_utilization();
  const wear::PolicyRun base =
      wear::run_policy(cfg.accel, ns, PolicyKind::kBaseline, cfg.iterations);
  const wear::PolicyRun ro =
      wear::run_policy(cfg.accel, ns, PolicyKind::kRwlRo, cfg.iterations);
  row.gain = rel::lifetime_improvement(wear::usage_alphas(base.usage),
                                       wear::usage_alphas(ro.usage));
  return row;
}

}  // namespace

int main() {
  using namespace rota;
  bench::banner("Ablation: mapper factorization",
                "exact divisors (NeuroSpector-style) vs padded mapspace");

  util::TextTable table({"network", "util (exact)", "RWL+RO gain (exact)",
                         "util (padded)", "RWL+RO gain (padded)"});
  std::vector<std::vector<std::string>> csv;
  for (const char* abbr : {"Sqz", "Mb", "VT", "LM"}) {
    const nn::Network net = nn::workload_by_abbr(abbr);
    const Row exact = measure(net, true);
    const Row padded = measure(net, false);
    table.add_row({abbr, util::fmt_pct(exact.util),
                   util::fmt(exact.gain, 2) + "x", util::fmt_pct(padded.util),
                   util::fmt(padded.gain, 2) + "x"});
    csv.push_back({abbr, util::fmt(exact.util, 4), util::fmt(exact.gain, 4),
                   util::fmt(padded.util, 4), util::fmt(padded.gain, 4)});
  }
  bench::emit(table, {"abbr", "util_exact", "gain_exact", "util_padded",
                      "gain_padded"},
              csv);

  std::cout << "Observation: with padding allowed, large GEMM workloads fill "
               "the array and the RWL+RO gain collapses toward 1x —\nthe "
               "paper's reliability win is a property of realistic "
               "(divisor-constrained) schedules on misaligned layers.\n";
  return 0;
}
