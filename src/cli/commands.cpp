#include "cli/commands.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string_view>

#include "cli/signals.hpp"
#include "core/rota.hpp"
#include "fi/checkpoint.hpp"
#include "fi/degrade.hpp"
#include "fi/hooks.hpp"
#include "fi/inject.hpp"
#include "svc/engine.hpp"
#include "obs/build_info.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"

namespace rota::cli {

namespace {

arch::AcceleratorConfig accel_of(const Options& opt) {
  arch::AcceleratorConfig cfg = arch::rota_like();
  cfg.array_width = opt.array_width;
  cfg.array_height = opt.array_height;
  cfg.validate();
  return cfg;
}

int threads_of(const Options& opt) {
  return static_cast<int>(opt.threads);
}

sched::ObjectiveSpec objective_of(const Options& opt) {
  auto spec = sched::parse_objective(opt.objective);
  ROTA_REQUIRE(spec.ok(),
               "--objective " + opt.objective + ": " + spec.error().message);
  return spec.value();
}

/// The degraded-array snapshot pareto searches against: every --fault
/// spec routed through a spare pool of --spares. Wear-dependent specs
/// (rank=R, weibull=N) resolve against a short intact-array aging run of
/// `net` — the same deterministic reading fi::array_state_from_faults
/// documents. No faults = the universal all-live state.
sched::ArrayState array_state_of(const Options& opt, const nn::Network& net) {
  if (opt.faults.empty()) return {};
  std::vector<fi::HardwareFault> faults;
  bool wear_dependent = false;
  for (const std::string& spec : opt.faults) {
    auto fault = fi::parse_hardware_fault(spec);
    ROTA_REQUIRE(fault.ok(), "--fault " + spec + ": " + fault.error().message);
    wear_dependent = wear_dependent ||
                     fault.value().kind != fi::HardwareFaultKind::kCoordinate;
    faults.push_back(std::move(fault).take());
  }
  if (!wear_dependent) {
    auto state = fi::array_state_from_faults(opt.array_width,
                                             opt.array_height, faults,
                                             opt.spares);
    ROTA_REQUIRE(state.ok(), state.error().message);
    return std::move(state).take();
  }
  const arch::AcceleratorConfig accel = accel_of(opt);
  sched::Mapper mapper(accel, objective_of(opt), {},
                       sched::MapperOptions{true, threads_of(opt)});
  const sched::NetworkSchedule ns = mapper.schedule_network(net);
  constexpr std::int64_t kSnapshotIterations = 32;
  const wear::PolicyRun profile = wear::run_policy(
      accel, ns, wear::PolicyKind::kRwlRo, kSnapshotIterations,
      wear::WearMetric::kAllocations, opt.seed);
  fi::WearSnapshot snapshot;
  snapshot.usage = profile.usage.cells();
  snapshot.seed = opt.seed;
  auto state = fi::array_state_from_faults(opt.array_width, opt.array_height,
                                           faults, opt.spares, snapshot);
  ROTA_REQUIRE(state.ok(), state.error().message);
  return std::move(state).take();
}

int cmd_workloads(std::ostream& out) {
  util::TextTable table({"abbr", "network", "domain", "layers", "GMACs"});
  for (const auto& net : nn::all_workloads()) {
    table.add_row({net.abbr(), net.name(), nn::to_string(net.domain()),
                   std::to_string(net.layer_count()),
                   util::fmt(static_cast<double>(net.total_macs()) / 1e9,
                             2)});
  }
  out << table.str();
  return 0;
}

int cmd_schedule(const Options& opt, std::ostream& out) {
  const nn::Network net = nn::workload_by_abbr(opt.workload);
  sched::Mapper mapper(accel_of(opt), objective_of(opt), {},
                       sched::MapperOptions{true, threads_of(opt)});
  const auto ns = mapper.schedule_network(net);
  util::TextTable table({"layer", "space", "tiles Z", "util", "mapping"});
  for (const auto& l : ns.layers) {
    table.add_row({l.layer_name,
                   std::to_string(l.space.x) + "x" +
                       std::to_string(l.space.y),
                   std::to_string(l.tiles),
                   util::fmt_pct(l.utilization(ns.config)),
                   l.mapping.str()});
  }
  out << table.str();
  out << "mean utilization: " << util::fmt_pct(ns.mean_utilization())
      << ", tiles/iteration: " << ns.total_tiles() << '\n';
  if (!opt.csv_out_path.empty()) {
    // Checked write: a full disk or bad path must not leave a silently
    // truncated schedule behind (util::io_error names the file).
    std::ostringstream csv;
    sched::write_schedule_csv(ns, csv);
    util::write_text_file(opt.csv_out_path, csv.str());
    out << "wrote " << opt.csv_out_path << '\n';
  }
  return 0;
}

int cmd_wear(const Options& opt, std::ostream& out) {
  const arch::AcceleratorConfig accel = accel_of(opt);
  sched::NetworkSchedule ns;
  std::string source_name;
  if (!opt.schedule_path.empty()) {
    std::ifstream file(opt.schedule_path);
    ROTA_REQUIRE(static_cast<bool>(file),
                 "could not open schedule CSV: " + opt.schedule_path);
    ns = sched::read_schedule_csv(file, accel, opt.schedule_path,
                                  opt.schedule_path);
    source_name = "imported schedule " + opt.schedule_path;
  } else {
    const nn::Network net = nn::workload_by_abbr(opt.workload);
    sched::Mapper mapper(accel, sched::ObjectiveSpec{}, {},
                         sched::MapperOptions{true, threads_of(opt)});
    ns = mapper.schedule_network(net);
    source_name = net.name();
  }

  const wear::PolicyRun run = wear::run_policy(
      accel, ns, opt.policy, opt.iterations, opt.metric, opt.seed);
  const auto& stats = run.stats;
  out << source_name << " x " << opt.iterations << " iterations, policy "
      << run.policy_name << ":\n"
      << "  min(A_PE) = " << stats.min << ", max(A_PE) = " << stats.max
      << ", D_max = " << stats.max_diff
      << ", R_diff = " << util::fmt(stats.r_diff, 4) << "\n\n"
      << util::ascii_heatmap(run.usage);

  if (!opt.pgm_path.empty()) {
    util::Grid<double> img(run.usage.width(), run.usage.height());
    for (std::size_t r = 0; r < img.height(); ++r)
      for (std::size_t c = 0; c < img.width(); ++c)
        img(c, r) = static_cast<double>(run.usage(c, r));
    if (util::write_pgm(img, opt.pgm_path)) {
      out << "wrote " << opt.pgm_path << '\n';
    } else {
      out << "error: could not write " << opt.pgm_path << '\n';
      return 1;
    }
  }
  return 0;
}

int cmd_lifetime(const Options& opt, std::ostream& out) {
  const nn::Network net = nn::workload_by_abbr(opt.workload);
  ExperimentConfig cfg;
  cfg.accel = accel_of(opt);
  cfg.iterations = opt.iterations;
  cfg.metric = opt.metric;
  cfg.seed = opt.seed;
  cfg.threads = threads_of(opt);
  Experiment exp(cfg);
  const auto res = exp.run(
      net, {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
            wear::PolicyKind::kRwlRo});

  util::TextTable table({"scheme", "lifetime", "D_max", "R_diff"});
  for (const auto& run : res.runs) {
    table.add_row({run.policy_name,
                   util::fmt(res.improvement_over_baseline(run.kind), 3) +
                       "x",
                   std::to_string(run.stats.max_diff),
                   util::fmt(run.stats.r_diff, 4)});
  }
  out << table.str();

  // Non-throwing run lookup: every kind below was requested above, so an
  // absent run is an internal invariant violation, not a user error.
  const auto usage_of =
      [&res](wear::PolicyKind kind) -> const util::Grid<std::int64_t>& {
    const wear::PolicyRun* run = res.find_run(kind);
    ROTA_ENSURE(run != nullptr, "policy run missing from experiment result");
    return run->usage;
  };

  // The Monte-Carlo and spare comparisons rate both runs on one activity
  // scale: the baseline's peak usage.
  const double peak = wear::usage_peak(usage_of(wear::PolicyKind::kBaseline));
  const auto alphas = [&](wear::PolicyKind kind) {
    return wear::usage_alphas(usage_of(kind), peak);
  };

  if (opt.mc_trials > 0) {
    // Monte-Carlo cross-check of the closed-form Eq. 3/4 algebra on the
    // measured usage fields.
    const auto mc_base = rel::monte_carlo_mttf(
        alphas(wear::PolicyKind::kBaseline), cfg.beta, 1.0, opt.mc_trials,
        opt.seed, threads_of(opt));
    const auto mc_ro = rel::monte_carlo_mttf(
        alphas(wear::PolicyKind::kRwlRo), cfg.beta, 1.0, opt.mc_trials,
        opt.seed, threads_of(opt));
    out << "Monte-Carlo cross-check (" << opt.mc_trials
        << " trials): RWL+RO gain = "
        << util::fmt(mc_ro.mttf / mc_base.mttf, 3) << "x (closed form "
        << util::fmt(res.improvement_over_baseline(wear::PolicyKind::kRwlRo),
                     3)
        << "x)\n";
  }

  if (opt.spares > 0) {
    // Spare-tolerant comparison.
    const double mb = rel::spare_array_mttf(
        alphas(wear::PolicyKind::kBaseline), opt.spares, cfg.beta);
    const double mr = rel::spare_array_mttf(
        alphas(wear::PolicyKind::kRwlRo), opt.spares, cfg.beta);
    out << "with " << opt.spares
        << " spare PE(s): RWL+RO lifetime gain = " << util::fmt(mr / mb, 3)
        << "x\n";
  }
  return 0;
}

int cmd_thermal(const Options& opt, std::ostream& out) {
  const nn::Network net = nn::workload_by_abbr(opt.workload);
  const arch::AcceleratorConfig accel = accel_of(opt);
  ExperimentConfig cfg;
  cfg.accel = accel;
  cfg.iterations = opt.iterations;
  cfg.seed = opt.seed;
  cfg.threads = threads_of(opt);
  Experiment exp(cfg);
  const auto res = exp.run(
      net, {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwlRo});

  const wear::PolicyRun* base_run =
      res.find_run(wear::PolicyKind::kBaseline);
  const wear::PolicyRun* ro_run = res.find_run(wear::PolicyKind::kRwlRo);
  ROTA_ENSURE(base_run != nullptr && ro_run != nullptr,
              "policy run missing from experiment result");
  const auto& base_usage = base_run->usage;
  const auto& ro_usage = ro_run->usage;
  std::int64_t ref = 0;
  for (std::int64_t v : base_usage.cells()) ref = std::max(ref, v);
  for (std::int64_t v : ro_usage.cells()) ref = std::max(ref, v);

  const thermal::ThermalModel model;
  auto report = [&](const char* name,
                    const util::Grid<std::int64_t>& usage) {
    const auto temp =
        model.steady_state(model.power_from_usage(usage, ref));
    double peak = 0.0;
    double mean = 0.0;
    for (double t : temp.cells()) {
      peak = std::max(peak, t);
      mean += t;
    }
    mean /= static_cast<double>(temp.size());
    out << name << ": peak " << util::fmt(peak, 1) << " C, mean "
        << util::fmt(mean, 1) << " C\n"
        << util::ascii_heatmap(temp) << '\n';
  };
  report("Baseline temperature field", base_usage);
  report("RWL+RO temperature field", ro_usage);

  const double gain_time =
      res.improvement_over_baseline(wear::PolicyKind::kRwlRo);
  const double gain_thermal = rel::lifetime_improvement(
      thermal::accelerated_alphas(base_usage, model, 0.7, ref),
      thermal::accelerated_alphas(ro_usage, model, 0.7, ref), cfg.beta);
  out << "lifetime gain, time-only (Eq. 4): " << util::fmt(gain_time, 2)
      << "x\nlifetime gain, thermally coupled: "
      << util::fmt(gain_thermal, 2) << "x\n";
  return 0;
}

int cmd_area(const Options& opt, std::ostream& out) {
  arch::AcceleratorConfig mesh = accel_of(opt);
  mesh.topology = arch::TopologyKind::kMesh2D;
  const arch::AreaModel model;
  const auto mb = model.breakdown(mesh, false);
  arch::AcceleratorConfig torus = mesh;
  torus.topology = arch::TopologyKind::kTorus2D;
  const auto tb = model.breakdown(torus, true);

  util::TextTable table({"component", "mesh (um^2)", "torus+WL (um^2)"});
  table.add_row({"PE array", util::fmt(mb.pe_array, 0),
                 util::fmt(tb.pe_array, 0)});
  table.add_row({"local network", util::fmt(mb.local_network, 0),
                 util::fmt(tb.local_network, 0)});
  table.add_row({"GLB", util::fmt(mb.glb, 0), util::fmt(tb.glb, 0)});
  table.add_row({"global network", util::fmt(mb.global_network, 0),
                 util::fmt(tb.global_network, 0)});
  table.add_row({"controller", util::fmt(mb.controller, 0),
                 util::fmt(tb.controller, 0)});
  table.add_row({"total", util::fmt(mb.total(), 0),
                 util::fmt(tb.total(), 0)});
  out << table.str();
  out << "PE-array overhead: "
      << util::fmt_pct(model.array_overhead_fraction(mesh), 2)
      << ", whole-chip overhead: "
      << util::fmt_pct(model.chip_overhead_fraction(mesh), 2) << '\n';
  return 0;
}

int cmd_serve(const Options& opt, std::istream& in, std::ostream& out) {
  svc::EngineOptions eo;
  eo.threads = threads_of(opt);
  eo.cache.capacity = static_cast<std::size_t>(opt.cache_capacity);
  eo.cache.disk_dir = opt.cache_dir;
  eo.max_batch = static_cast<std::size_t>(opt.max_batch);
  eo.max_queue = static_cast<std::size_t>(opt.queue_cap);
  svc::Engine engine(eo);
  return engine.serve(in, out, interrupt_flag());
}

double parse_hexfloat(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  ROTA_REQUIRE(!text.empty() && end != nullptr && *end == '\0',
               "corrupt checkpoint: field '" + what +
                   "' is not a number: '" + text + "'");
  return v;
}

/// Load `path` if it exists and matches this run's identity; kNotFound is
/// a fresh start, anything else (corrupt file, wrong work) fails loudly —
/// resuming from garbage or from someone else's run is never an option.
bool load_matching_checkpoint(const std::string& path,
                              const std::string& kind,
                              const std::string& fingerprint,
                              fi::Checkpoint& checkpoint) {
  auto loaded = fi::load_checkpoint(path);
  if (!loaded.ok()) {
    ROTA_REQUIRE(loaded.error().code == util::ErrorCode::kNotFound,
                 "cannot resume from " + path + ": " +
                     loaded.error().message);
    return false;
  }
  checkpoint = std::move(loaded).take();
  ROTA_REQUIRE(
      checkpoint.kind == kind && checkpoint.fingerprint == fingerprint,
      "checkpoint " + path + " records different work (kind '" +
          checkpoint.kind + "', fingerprint '" + checkpoint.fingerprint +
          "'); delete it or rerun with the original flags");
  return true;
}

/// A finished run's checkpoint is stale by definition; best-effort
/// removal so the next invocation starts fresh.
void discard_checkpoint(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

int cmd_degrade(const Options& opt, std::ostream& out) {
  ROTA_REQUIRE(!opt.faults.empty(),
               verb_name(opt.verb) +
                   " needs at least one --fault SPEC (pe=U,V@ITER[+K], "
                   "rank=R@ITER or weibull=N)");
  const nn::Network net = nn::workload_by_abbr(opt.workload);
  const arch::AcceleratorConfig accel = accel_of(opt);

  fi::DegradeOptions dopt;
  dopt.iterations = opt.iterations;
  dopt.spares = opt.spares;
  dopt.seed = opt.seed;
  dopt.mode = opt.oblivious ? fi::DegradeMode::kFaultOblivious
                            : fi::DegradeMode::kFaultAware;
  dopt.objective = objective_of(opt);
  dopt.policy = opt.policy;
  dopt.retire_live_fraction = opt.retire_fraction;
  dopt.threads = threads_of(opt);
  dopt.workload_tag = net.abbr();
  dopt.checkpoint_path = opt.checkpoint_path;
  dopt.checkpoint_every = opt.checkpoint_every;
  for (const std::string& spec : opt.faults) {
    auto fault = fi::parse_hardware_fault(spec);
    ROTA_REQUIRE(fault.ok(), "--fault " + spec + ": " + fault.error().message);
    dopt.faults.push_back(std::move(fault).take());
  }

  fi::Checkpoint cp;
  if (!opt.checkpoint_path.empty()) {
    const std::string fingerprint = fi::degrade_fingerprint(accel, dopt);
    if (load_matching_checkpoint(opt.checkpoint_path, "degrade", fingerprint,
                                 cp)) {
      dopt.resume = &cp;
      obs::log_event(obs::Severity::kInfo, "cli",
                     "resuming degrade from checkpoint " +
                         opt.checkpoint_path + " (iteration " +
                         std::to_string(cp.progress) + ")");
    }
  }

  // The engine polls at epoch boundaries, not every iteration; ticking by
  // the iterations elapsed keeps simulate_interrupt_after(N) meaning
  // "after N iterations".
  std::int64_t last_poll = dopt.resume != nullptr ? cp.progress : 0;
  const fi::DegradeReport report = fi::run_degraded_lifetime(
      accel, net, dopt, [&last_poll](std::int64_t completed) {
        tick_interrupt_budget(completed - last_poll);
        last_poll = completed;
        return interrupted();
      });

  out << net.name() << " x " << report.iterations_run
      << " iterations, policy " << wear::to_string(dopt.policy)
      << " (masked), objective " << dopt.objective.id() << ", mode "
      << fi::to_string(dopt.mode) << ", " << dopt.spares << " spare(s)";
  if (report.resumed) out << " [resumed]";
  out << ":\n";
  for (const std::string& event : report.events) out << "  " << event << '\n';

  util::TextTable table({"quantity", "value"});
  table.add_row({"faults injected", std::to_string(report.faults_injected)});
  table.add_row({"remaps", std::to_string(report.remaps)});
  table.add_row({"unmapped faults",
                 std::to_string(report.unmapped_faults)});
  table.add_row({"reschedules", std::to_string(report.reschedules)});
  table.add_row({"transient restores",
                 std::to_string(report.transient_restores)});
  table.add_row({"redirected units",
                 std::to_string(report.redirected_units)});
  table.add_row({"lost units", std::to_string(report.lost_units)});
  table.add_row({"live PEs", std::to_string(report.live_pes)});
  table.add_row({"retire budget", std::to_string(report.retire_budget)});
  table.add_row({"spares in service",
                 std::to_string(report.spare_stats.spares_in_service)});
  table.add_row({"spares free",
                 std::to_string(report.spare_stats.spares_free)});
  table.add_row({"energy overhead",
                 util::fmt_pct(report.energy_overhead, 2)});
  table.add_row({"throughput derating",
                 util::fmt_pct(report.throughput_derating, 2)});
  out << table.str();
  out << "MTTF, fault-free profile: " << util::fmt_sig(report.mttf_initial)
      << "  residual (tolerance " << report.mttf_tolerance
      << "): " << util::fmt_sig(report.mttf_final) << '\n';

  if (opt.mc_trials > 0 && report.mttf_final > 0.0) {
    // Cross-check the closed-form residual MTTF against the with-spares
    // Monte-Carlo estimator on the same live set and tolerance (capped
    // below the active PE count, as the estimator requires).
    const rel::MonteCarloResult mc = rel::monte_carlo_spare_mttf(
        report.live_alphas, report.mttf_tolerance, rel::kJedecShape, 1.0,
        opt.mc_trials, opt.seed, threads_of(opt));
    out << "MC cross-check: " << util::fmt_sig(mc.mttf) << " (stderr "
        << util::fmt_sig(mc.stderr_) << ", " << mc.trials << " trials)\n";
  }

  if (!opt.csv_out_path.empty()) {
    util::write_text_file(opt.csv_out_path, report.timeline_csv);
    out << "wrote " << opt.csv_out_path << '\n';
  }

  if (report.interrupted) {
    obs::log_event(obs::Severity::kWarn, "cli",
                   "interrupted; degrade state saved at iteration " +
                       std::to_string(report.iterations_run));
    return kExitInterrupted;
  }
  if (!opt.checkpoint_path.empty()) discard_checkpoint(opt.checkpoint_path);
  if (report.retired) {
    out << "retired at iteration " << report.retired_at << " (exit "
        << kExitRetired << ")\n";
    return kExitRetired;
  }
  return 0;
}

int cmd_sweep(const Options& opt, std::ostream& out) {
  const std::vector<nn::Network> nets = nn::all_workloads();
  const std::vector<wear::PolicyKind> policies = {
      wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
      wear::PolicyKind::kRwlRo};

  ExperimentConfig cfg;
  cfg.accel = accel_of(opt);
  cfg.iterations = opt.iterations;
  cfg.metric = opt.metric;
  cfg.seed = opt.seed;
  cfg.threads = threads_of(opt);
  Experiment exp(cfg);

  // Work identity: everything that shapes the rows, nothing that does not
  // (threads are bit-identical by contract — DESIGN.md §9 — so a resume
  // may legally use a different lane count).
  std::string fingerprint = "sweep";
  for (const nn::Network& net : nets) fingerprint += "|" + net.abbr();
  for (wear::PolicyKind kind : policies)
    fingerprint += "|" + std::string(wear::to_string(kind));
  fingerprint += "|" + std::to_string(opt.array_width) + "x" +
                 std::to_string(opt.array_height) + "|" +
                 std::to_string(opt.iterations) + "|" +
                 std::to_string(opt.seed) + "|" +
                 (opt.metric == wear::WearMetric::kAllocations ? "alloc"
                                                               : "cycles");

  std::string csv = "workload,policy,improvement,d_max,r_diff\n";
  std::size_t next_cell = 0;
  if (!opt.checkpoint_path.empty()) {
    fi::Checkpoint cp;
    if (load_matching_checkpoint(opt.checkpoint_path, "sweep", fingerprint,
                                 cp)) {
      const auto rows = cp.fields.find("csv");
      ROTA_REQUIRE(rows != cp.fields.end() && cp.progress >= 0 &&
                       cp.progress <= static_cast<std::int64_t>(nets.size()),
                   "corrupt checkpoint: sweep state out of range");
      csv = rows->second;
      next_cell = static_cast<std::size_t>(cp.progress);
      obs::log_event(obs::Severity::kInfo, "cli",
                     "resuming sweep from checkpoint " +
                         opt.checkpoint_path + " (" +
                         std::to_string(next_cell) + "/" +
                         std::to_string(nets.size()) + " workloads done)");
    }
  }

  obs::ProgressReporter progress("sweep",
                                 static_cast<std::int64_t>(nets.size()));
  const auto save = [&](std::size_t done) {
    if (opt.checkpoint_path.empty()) return;
    fi::Checkpoint cp;
    cp.kind = "sweep";
    cp.fingerprint = fingerprint;
    cp.progress = static_cast<std::int64_t>(done);
    cp.fields["csv"] = csv;
    fi::save_checkpoint(opt.checkpoint_path, cp);
    progress.note_checkpoint();
  };

  for (std::size_t n = next_cell; n < nets.size(); ++n) {
    if (interrupted()) {
      save(n);
      obs::log_event(obs::Severity::kWarn, "cli",
                     "interrupted; sweep state saved at " +
                         std::to_string(n) + "/" +
                         std::to_string(nets.size()) + " workloads");
      return kExitInterrupted;
    }
    const ExperimentResult res = exp.run(nets[n], policies);
    for (const wear::PolicyRun& run : res.runs) {
      csv += res.network_abbr + "," + run.policy_name + "," +
             util::hexfloat(res.improvement_over_baseline(run.kind)) + "," +
             std::to_string(run.stats.max_diff) + "," +
             util::hexfloat(run.stats.r_diff) + "\n";
    }
    save(n + 1);
    progress.tick(1);
    tick_interrupt_budget();
  }

  if (!opt.csv_out_path.empty()) {
    util::write_text_file(opt.csv_out_path, csv);
    out << "wrote " << opt.csv_out_path << '\n';
  } else {
    out << csv;
  }
  if (!opt.checkpoint_path.empty()) discard_checkpoint(opt.checkpoint_path);
  return 0;
}

int cmd_mc(const Options& opt, std::ostream& out) {
  const nn::Network net = nn::workload_by_abbr(opt.workload);
  const arch::AcceleratorConfig accel = accel_of(opt);
  sched::Mapper mapper(accel, sched::ObjectiveSpec{}, {},
                       sched::MapperOptions{true, threads_of(opt)});
  const sched::NetworkSchedule ns = mapper.schedule_network(net);

  // The activity field whose MTTF we estimate: one wear run under the
  // requested policy, normalized to peak usage (as cmd_lifetime does).
  const wear::PolicyRun run = wear::run_policy(
      accel, ns, opt.policy, opt.iterations, opt.metric, opt.seed);
  const std::vector<double> alphas =
      wear::usage_alphas(run.usage, wear::usage_peak(run.usage));
  const double beta = rel::kJedecShape;

  std::string fingerprint =
      "mc|" + net.abbr() + "|" + std::string(wear::to_string(opt.policy)) +
      "|" + std::to_string(opt.array_width) + "x" +
      std::to_string(opt.array_height) + "|" +
      std::to_string(opt.iterations) + "|" + std::to_string(opt.trials) +
      "|" + std::to_string(opt.seed) + "|" +
      (opt.metric == wear::WearMetric::kAllocations ? "alloc" : "cycles");

  rel::McPartial partial;
  if (!opt.checkpoint_path.empty()) {
    fi::Checkpoint cp;
    if (load_matching_checkpoint(opt.checkpoint_path, "mc", fingerprint,
                                 cp)) {
      const auto sum = cp.fields.find("sum");
      const auto sum_sq = cp.fields.find("sum_sq");
      ROTA_REQUIRE(sum != cp.fields.end() && sum_sq != cp.fields.end() &&
                       cp.progress >= 0,
                   "corrupt checkpoint: mc state incomplete");
      partial.sum = parse_hexfloat(sum->second, "sum");
      partial.sum_sq = parse_hexfloat(sum_sq->second, "sum_sq");
      partial.next_chunk = cp.progress;
      obs::log_event(obs::Severity::kInfo, "cli",
                     "resuming mc from checkpoint " + opt.checkpoint_path +
                         " (chunk " + std::to_string(partial.next_chunk) +
                         ")");
    }
  }

  // Checkpoint cadence: 8 substream chunks (32768 trials) per step keeps
  // the save overhead negligible against the sampling work.
  constexpr std::int64_t kChunksPerStep = 8;
  const std::int64_t total_chunks =
      (opt.trials + rel::kMonteCarloChunkTrials - 1) /
      rel::kMonteCarloChunkTrials;
  obs::ProgressReporter progress("mc " + net.abbr(), total_chunks);
  const auto save = [&] {
    if (opt.checkpoint_path.empty()) return;
    fi::Checkpoint cp;
    cp.kind = "mc";
    cp.fingerprint = fingerprint;
    cp.progress = partial.next_chunk;
    cp.fields["sum"] = util::hexfloat(partial.sum);
    cp.fields["sum_sq"] = util::hexfloat(partial.sum_sq);
    fi::save_checkpoint(opt.checkpoint_path, cp);
    progress.note_checkpoint();
  };

  for (;;) {
    if (interrupted()) {
      save();
      obs::log_event(obs::Severity::kWarn, "cli",
                     "interrupted; mc state saved at chunk " +
                         std::to_string(partial.next_chunk));
      return kExitInterrupted;
    }
    const std::int64_t before = partial.next_chunk;
    const bool more =
        rel::monte_carlo_mttf_step(alphas, beta, 1.0, opt.trials, opt.seed,
                                   threads_of(opt), &partial, kChunksPerStep);
    save();
    progress.tick(partial.next_chunk - before);
    tick_interrupt_budget();
    if (!more) break;
  }
  progress.finish();

  const rel::MonteCarloResult res =
      rel::monte_carlo_mttf_finalize(partial, opt.trials);
  out << net.abbr() << " policy " << run.policy_name << ": MTTF = "
      << util::fmt(res.mttf, 6) << " (stderr " << util::fmt(res.stderr_, 6)
      << ", " << res.trials << " trials)\n"
      << "exact: mttf " << util::hexfloat(res.mttf) << " stderr "
      << util::hexfloat(res.stderr_) << '\n';
  if (!opt.checkpoint_path.empty()) discard_checkpoint(opt.checkpoint_path);
  return 0;
}

/// The reproducibility stamp of one CLI invocation (defined below).
obs::RunManifest cli_manifest(const Options& options);

int cmd_pareto(const Options& opt, std::ostream& out) {
  const nn::Network net = nn::workload_by_abbr(opt.workload);
  const arch::AcceleratorConfig accel = accel_of(opt);
  const sched::ObjectiveSpec objective = objective_of(opt);
  const sched::ArrayState array = array_state_of(opt, net);
  sched::Mapper mapper(accel, objective, {},
                       sched::MapperOptions{true, threads_of(opt)}, array);
  const sched::NetworkParetoFront front = mapper.pareto_network(net);

  util::TextTable table(
      {"layer", "front", "selected", "energy", "MTTF", "cycles"});
  for (const auto& layer : front.layers) {
    const sched::ParetoPoint* sel = nullptr;
    for (const auto& p : layer.points) {
      if (p.selected) {
        sel = &p;
        break;
      }
    }
    ROTA_ENSURE(sel != nullptr, "front has no selected member");
    table.add_row({layer.layer_name, std::to_string(layer.points.size()),
                   sel->mapping.str(), util::fmt(sel->energy, 4),
                   util::fmt(sel->mttf, 4), util::fmt(sel->cycles, 0)});
  }
  out << table.str();
  out << "objective " << objective.id() << ", array state "
      << front.array_digest << " (" << front.live_pes << " live PEs)\n";

  if (!opt.csv_out_path.empty()) {
    // Doubles as hexfloat so the file is byte-comparable across thread
    // counts (the CI determinism check runs `cmp` on these).
    std::string csv =
        "layer,point,selected,dim_x,dim_y,sx,sy,lb_c,lb_q,lb_s,tiles,"
        "pe_allocations,anchor_u,anchor_v,energy,mttf,cycles\n";
    for (const auto& layer : front.layers) {
      for (std::size_t p = 0; p < layer.points.size(); ++p) {
        const sched::ParetoPoint& pt = layer.points[p];
        const sched::Mapping& m = pt.mapping;
        csv += layer.layer_name + "," + std::to_string(p) + "," +
               (pt.selected ? "1" : "0") + "," +
               std::string(sched::to_string(m.dim_x)) + "," +
               std::string(sched::to_string(m.dim_y)) + "," +
               std::to_string(m.sx) + "," + std::to_string(m.sy) + "," +
               std::to_string(m.lb_c) + "," + std::to_string(m.lb_q) + "," +
               std::to_string(m.lb_s) + "," + std::to_string(pt.tiles) + "," +
               std::to_string(pt.pe_allocations) + "," +
               std::to_string(pt.anchor_u) + "," +
               std::to_string(pt.anchor_v) + "," +
               util::hexfloat(pt.energy) + "," + util::hexfloat(pt.mttf) +
               "," + util::hexfloat(pt.cycles) + "\n";
      }
    }
    util::write_text_file(opt.csv_out_path, csv);
    out << "wrote " << opt.csv_out_path << '\n';
  }

  if (!opt.json_out_path.empty()) {
    obs::RunManifest manifest = cli_manifest(opt);
    manifest.workload = net.abbr();
    manifest.extra["array_state.digest"] = front.array_digest;
    std::ostringstream js;
    js << "{\"schema_version\":" << obs::kSchemaVersion
       << ",\"manifest\":" << manifest.to_json() << ",\"pareto\":{"
       << "\"network\":" << obs::json_quote(front.network_abbr)
       << ",\"objective\":" << obs::json_quote(objective.id())
       << ",\"objective_weights\":" << obs::json_quote(objective.weights_csv())
       << ",\"array_state\":" << obs::json_quote(front.array_digest)
       << ",\"live_pes\":" << front.live_pes << ",\"layers\":[";
    for (std::size_t l = 0; l < front.layers.size(); ++l) {
      const auto& layer = front.layers[l];
      if (l) js << ',';
      js << "{\"layer\":" << obs::json_quote(layer.layer_name)
         << ",\"points\":[";
      for (std::size_t p = 0; p < layer.points.size(); ++p) {
        const sched::ParetoPoint& pt = layer.points[p];
        if (p) js << ',';
        js << "{\"mapping\":" << obs::json_quote(pt.mapping.str())
           << ",\"energy\":" << obs::json_number(pt.energy)
           << ",\"mttf\":" << obs::json_number(pt.mttf)
           << ",\"cycles\":" << obs::json_number(pt.cycles)
           << ",\"tiles\":" << pt.tiles
           << ",\"pe_allocations\":" << pt.pe_allocations
           << ",\"anchor\":[" << pt.anchor_u << ',' << pt.anchor_v << ']'
           << ",\"selected\":" << (pt.selected ? "true" : "false") << '}';
      }
      js << "]}";
    }
    js << "]}}\n";
    util::write_text_file(opt.json_out_path, js.str());
    out << "wrote " << opt.json_out_path << '\n';
  }
  return 0;
}

int dispatch(const Options& options, std::istream& in, std::ostream& out) {
  switch (options.verb) {
    case Verb::kHelp:
      out << usage();
      return 0;
    case Verb::kVersion:
      out << obs::build_info_line() << '\n';
      return 0;
    case Verb::kWorkloads:
      return cmd_workloads(out);
    case Verb::kSchedule:
      return cmd_schedule(options, out);
    case Verb::kWear:
      return cmd_wear(options, out);
    case Verb::kLifetime:
      return cmd_lifetime(options, out);
    case Verb::kArea:
      return cmd_area(options, out);
    case Verb::kThermal:
      return cmd_thermal(options, out);
    case Verb::kServe:
      return cmd_serve(options, in, out);
    case Verb::kSweep:
      return cmd_sweep(options, out);
    case Verb::kMc:
      return cmd_mc(options, out);
    case Verb::kPareto:
      return cmd_pareto(options, out);
    case Verb::kDegrade:
      return cmd_degrade(options, out);
  }
  return 1;
}

/// The reproducibility stamp of one CLI invocation, as carried by the
/// `--stats-out` envelope and `rota pareto --json`.
obs::RunManifest cli_manifest(const Options& options) {
  obs::RunManifest manifest = obs::make_run_manifest("rota", options.raw_args);
  manifest.workload = options.workload;
  manifest.policy = wear::to_string(options.policy);
  manifest.metric =
      options.metric == wear::WearMetric::kAllocations ? "alloc" : "cycles";
  manifest.array_width = options.array_width;
  manifest.array_height = options.array_height;
  manifest.iterations = options.iterations;
  manifest.seed = options.seed;
  // The effective lane count, so Par/N wall times are comparable.
  manifest.extra["threads"] =
      std::to_string(par::resolve_threads(threads_of(options)));
  if (options.spares > 0)
    manifest.extra["spares"] = std::to_string(options.spares);
  if (options.mc_trials > 0)
    manifest.extra["mc_trials"] = std::to_string(options.mc_trials);
  // Fault-injection state is part of reproducibility: a run with
  // ROTA_FI armed or --fault events is not comparable to a clean one.
  if (fi::Hooks::armed()) manifest.extra["fi"] = fi::Hooks::plan().to_spec();
  if (!options.faults.empty()) {
    std::string joined;
    for (const std::string& f : options.faults)
      joined += (joined.empty() ? "" : ";") + f;
    manifest.extra["faults"] = joined;
  }
  if (options.verb == Verb::kMc)
    manifest.extra["trials"] = std::to_string(options.trials);
  // Objective provenance for the verbs that honor --objective
  // (make_run_manifest pre-stamps the "energy" default; canonicalize
  // the user's spelling when it parses — a bad spec fails in dispatch
  // with the full error message).
  if (options.verb == Verb::kSchedule || options.verb == Verb::kPareto ||
      options.verb == Verb::kDegrade) {
    if (auto spec = sched::parse_objective(options.objective); spec.ok()) {
      manifest.extra["objective.id"] = spec.value().id();
      manifest.extra["objective.weights"] = spec.value().weights_csv();
    }
  }
  if (options.verb == Verb::kDegrade) {
    manifest.extra["degrade.mode"] = options.oblivious ? "oblivious" : "aware";
    manifest.extra["degrade.retire"] = std::to_string(options.retire_fraction);
  }
  return manifest;
}

/// Arms the global metrics/trace/progress state for one invocation and
/// guarantees it is restored (and the sinks flushed) however dispatch
/// exits, so embedding callers and the test suite see no bleed-through.
class ObservabilityScope {
 public:
  explicit ObservabilityScope(const Options& options) : options_(options) {
    auto& reg = obs::MetricsRegistry::global();
    auto& tracer = obs::Tracer::global();
    auto& events = obs::EventLog::global();
    if (options_.verbose || !options_.stats_out_path.empty()) {
      reg.reset();
      reg.set_enabled(true);
    }
    if (!options_.trace_path.empty()) {
      tracer.reset();
      tracer.set_enabled(true);
    }
    // The event log is always live for a CLI run: the ring is cheap, and
    // echoing kWarn+ to stderr preserves the old notice UX (interrupts,
    // sheds, snapshot failures) even with no --events sink.
    events.reset();
    events.set_enabled(true);
    events.set_echo_stderr(true);
    if (!options_.events_path.empty()) events.set_sink(options_.events_path);
    if (!options_.stats_out_path.empty()) {
      obs::SnapshotPublisher::Options pub;
      pub.json_file = options_.stats_out_path;
      pub.openmetrics_file = openmetrics_twin(options_.stats_out_path);
      if (options_.stats_interval_ms > 0)
        pub.interval = std::chrono::milliseconds(options_.stats_interval_ms);
      pub.manifest = cli_manifest(options_);
      publisher_ = std::make_unique<obs::SnapshotPublisher>(std::move(pub));
      if (options_.stats_interval_ms > 0) publisher_->start();
    }
    if (options_.progress) obs::ProgressReporter::set_enabled(true);
    start_ = std::chrono::steady_clock::now();
    obs::log_event(obs::Severity::kInfo, "cli",
                   "run started: " + verb_name(options_.verb));
  }

  ObservabilityScope(const ObservabilityScope&) = delete;
  ObservabilityScope& operator=(const ObservabilityScope&) = delete;

  /// Write the requested sinks; returns 0 or 1 (sink failure). Called on
  /// the success path so write errors can influence the exit code. Every
  /// write is atomic (temp + fsync + rename) with transient faults
  /// retried, so a crash or injected fault mid-write can never leave a
  /// truncated report behind.
  int write_sinks(std::ostream& out) {
    int rc = 0;
    auto& reg = obs::MetricsRegistry::global();
    auto& tracer = obs::Tracer::global();
    {
      std::ostringstream done;
      done << "run finished: " << verb_name(options_.verb) << " ("
           << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start_)
                  .count()
           << "s)";
      obs::log_event(obs::Severity::kInfo, "cli", done.str());
    }
    if (options_.verbose) out << '\n' << reg.table();
    if (!options_.trace_path.empty()) {
      try {
        tracer.write_file(options_.trace_path);
        out << "wrote trace " << options_.trace_path << '\n';
      } catch (const util::io_error& e) {
        out << "error: " << e.what() << '\n';
        rc = 1;
      }
    }
    if (publisher_) {
      // stop() joins the sampler and publishes the exit-state snapshot
      // (the only one, in exit-only mode). Failures were already counted
      // and logged by the publisher; they surface in the exit code here.
      publisher_->stop();
      if (publisher_->published() > 0) {
        out << "wrote stats " << options_.stats_out_path << '\n';
      }
      if (publisher_->failed() > 0) {
        out << "error: " << publisher_->failed()
            << " stats snapshot(s) failed to publish\n";
        rc = 1;
      }
    }
    return rc;
  }

  ~ObservabilityScope() {
    publisher_.reset();  // joins the sampler before the sinks detach
    obs::MetricsRegistry::global().set_enabled(false);
    obs::Tracer::global().set_enabled(false);
    obs::ProgressReporter::set_enabled(false);
    auto& events = obs::EventLog::global();
    events.set_echo_stderr(false);
    events.reset();  // detaches the --events sink
    events.set_enabled(false);
  }

 private:
  /// `x.json` -> `x.om`; anything else gets `.om` appended.
  static std::string openmetrics_twin(const std::string& json_path) {
    static constexpr std::string_view kJsonExt = ".json";
    if (json_path.size() > kJsonExt.size() &&
        json_path.compare(json_path.size() - kJsonExt.size(),
                          kJsonExt.size(), kJsonExt) == 0) {
      return json_path.substr(0, json_path.size() - kJsonExt.size()) + ".om";
    }
    return json_path + ".om";
  }

  const Options& options_;
  std::unique_ptr<obs::SnapshotPublisher> publisher_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

int run(const Options& options, std::istream& in, std::ostream& out) {
  // Operator-requested software fault injection (ROTA_FI in the
  // environment); a malformed spec throws before any work starts.
  fi::Hooks::arm_from_env();
  ObservabilityScope scope(options);
  const int rc = dispatch(options, in, out);
  // serve owns `out` as its JSON-lines reply channel, so "wrote stats"
  // notices must not be interleaved with protocol replies.
  std::ostream& notices = options.verb == Verb::kServe
                              ? std::cerr  // rota-lint: allow(log-discipline)
                              : out;
  const int sink_rc = scope.write_sinks(notices);
  return rc != 0 ? rc : sink_rc;
}

int run(const Options& options, std::ostream& out) {
  std::istringstream empty;
  return run(options, empty, out);
}

}  // namespace rota::cli
