/// Micro-benchmarks of the library itself (google-benchmark): mapper
/// search throughput, wear-simulation throughput with and without the
/// periodicity fast-forward, usage-tracker placement rate, and the
/// reliability evaluation. These guard the tool's interactive usability
/// rather than reproducing a paper figure.
///
/// Pass `--json BENCH_perf.json` (or set ROTA_BENCH_JSON) to also emit a
/// machine-readable {"manifest", "metrics"} report for CI regression
/// tracking; all other flags go straight to google-benchmark.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/rota.hpp"
#include "fi/degrade.hpp"
#include "fi/plan.hpp"
#include "kern/kern.hpp"
#include "obs/event_log.hpp"
#include "par/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace rota;

void BM_MapperScheduleLayer(benchmark::State& state) {
  const auto layer = nn::conv("c", 512, 512, 7, 3, 1);
  for (auto _ : state) {
    // fresh mapper each iteration: defeat the cache
    sched::Mapper mapper(arch::eyeriss_like(), sched::ObjectiveSpec{});
    benchmark::DoNotOptimize(mapper.schedule_layer(layer));
  }
}
BENCHMARK(BM_MapperScheduleLayer)->Unit(benchmark::kMillisecond);

void BM_MapperScheduleSqueezeNet(benchmark::State& state) {
  const auto net = nn::make_squeezenet();
  for (auto _ : state) {
    sched::Mapper mapper(arch::eyeriss_like(), sched::ObjectiveSpec{});
    benchmark::DoNotOptimize(mapper.schedule_network(net));
  }
}
BENCHMARK(BM_MapperScheduleSqueezeNet)->Unit(benchmark::kMillisecond);

void BM_MapperDivisors(benchmark::State& state) {
  // Divisor-heavy shape: 960 and 512 channels have long divisor ladders,
  // so this isolates the per-search divisor lists and ladder hoisting.
  const auto layer = nn::conv("d", 960, 512, 14, 3, 1);
  for (auto _ : state) {
    // fresh mapper each iteration: defeat the cache
    sched::Mapper mapper(arch::eyeriss_like(), sched::ObjectiveSpec{});
    benchmark::DoNotOptimize(mapper.schedule_layer(layer));
  }
}
BENCHMARK(BM_MapperDivisors)->Unit(benchmark::kMillisecond);

void BM_ParetoSearch(benchmark::State& state) {
  // Full multi-objective front + weighted scalarization over a network,
  // against BM_MapperScheduleSqueezeNet (the single-objective argmin) to
  // price what `rota pareto` pays for keeping the whole front. Arg(1)
  // adds a two-dead-PE ArrayState so the degraded feasibility/anchor
  // path is timed too.
  const auto net = nn::make_squeezenet();
  const arch::AcceleratorConfig accel = arch::eyeriss_like();
  sched::ArrayState array_state;
  if (state.range(0) != 0) {
    array_state =
        sched::ArrayState(accel.array_width, accel.array_height,
                          {{3, 3}, {10, 2}});
  }
  for (auto _ : state) {
    sched::Mapper mapper(accel, sched::ObjectiveSpec::weighted(0.2, 0.7, 0.1),
                         {}, {}, array_state);
    benchmark::DoNotOptimize(mapper.pareto_network(net));
  }
  state.SetLabel(state.range(0) != 0 ? "degraded" : "all-live");
}
BENCHMARK(BM_ParetoSearch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MapperScheduleSqueezeNetPar(benchmark::State& state) {
  const auto net = nn::make_squeezenet();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sched::Mapper mapper(arch::eyeriss_like(), sched::ObjectiveSpec{}, {},
                         sched::MapperOptions{true, threads});
    benchmark::DoNotOptimize(mapper.schedule_network(net));
  }
}
BENCHMARK(BM_MapperScheduleSqueezeNetPar)
    ->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_MonteCarloMttfPar(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::vector<double> alphas(168);
  for (std::size_t i = 0; i < alphas.size(); ++i)
    alphas[i] = 1.0 + static_cast<double>(i % 7);
  // 8 chunks of rel::kMonteCarloChunkTrials, so every lane count divides
  // the work evenly and the result is identical across the Arg sweep.
  const std::int64_t trials = 8 * rel::kMonteCarloChunkTrials;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rel::monte_carlo_mttf(alphas, 2.0, 1.0, trials, 0x526f5441, threads));
  }
}
BENCHMARK(BM_MonteCarloMttfPar)
    ->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// Pin the dispatch to one ISA for the duration of a benchmark run and
/// restore the previous choice afterwards. Skips (rather than fails) when
/// the requested ISA is not available in this binary on this CPU.
class IsaPin {
 public:
  IsaPin(benchmark::State& state, kern::Isa isa)
      : previous_(kern::active_isa()) {
    if (isa == kern::Isa::kAvx2 && !kern::avx2_available()) {
      state.SkipWithError("AVX2 path not available");
      skipped_ = true;
      return;
    }
    kern::force_isa(isa);
  }
  ~IsaPin() {
    if (!skipped_) kern::force_isa(previous_);
  }
  [[nodiscard]] bool skipped() const { return skipped_; }

 private:
  kern::Isa previous_;
  bool skipped_ = false;
};

/// The Weibull serial-reliability reduction in isolation: one Monte Carlo
/// trial's min over 168 per-PE failure draws, in the β-power domain the
/// sampler uses (DESIGN.md §14). scalar-vs-simd pairs quantify what the
/// dispatch actually buys on this machine.
void BM_WeibullReduce(benchmark::State& state, kern::Isa isa) {
  const IsaPin pin(state, isa);
  if (pin.skipped()) return;
  constexpr std::size_t kPe = 168;
  std::vector<double> c_pow(kPe);
  std::vector<double> u(kPe);
  util::SplitMix64 rng(0x526f5441);
  for (std::size_t i = 0; i < kPe; ++i) {
    c_pow[i] = 1.0 + static_cast<double>(i % 7);
    u[i] = rng.next_double();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kern::pow1(kern::weibull_min(u.data(), c_pow.data(), kPe), 0.5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPe));
}
BENCHMARK_CAPTURE(BM_WeibullReduce, scalar, kern::Isa::kScalar);
BENCHMARK_CAPTURE(BM_WeibullReduce, simd, kern::Isa::kAvx2);

/// The wear-accumulation inner passes in isolation: the vertical
/// row-plus-row and uniform-offset sweeps of UsageTracker::materialize
/// over a 168-PE array's worth of rows.
void BM_WearAccumulate(benchmark::State& state, kern::Isa isa) {
  const IsaPin pin(state, isa);
  if (pin.skipped()) return;
  constexpr std::size_t kW = 14;
  constexpr std::size_t kH = 12;
  std::vector<std::int64_t> cells(kW * kH, 1);
  for (auto _ : state) {
    for (std::size_t r = 1; r < kH; ++r) {
      kern::add_i64(cells.data() + r * kW, cells.data() + (r - 1) * kW, kW);
    }
    kern::add_scalar_i64(cells.data(), 3, cells.size());
    benchmark::DoNotOptimize(kern::minmax_sum_i64(cells.data(), cells.size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK_CAPTURE(BM_WearAccumulate, scalar, kern::Isa::kScalar);
BENCHMARK_CAPTURE(BM_WearAccumulate, simd, kern::Isa::kAvx2);

void BM_TrackerAddSpaceWrapped(benchmark::State& state) {
  wear::UsageTracker tracker(14, 12);
  std::int64_t u = 0;
  for (auto _ : state) {
    tracker.add_space(u, (u * 5) % 12, 8, 8, 1, true);
    u = (u + 3) % 14;
  }
  benchmark::DoNotOptimize(tracker);
}
BENCHMARK(BM_TrackerAddSpaceWrapped);

void BM_WearIterationFastForward(benchmark::State& state) {
  const bool fast = state.range(0) != 0;
  sched::Mapper mapper(arch::rota_like(), sched::ObjectiveSpec{});
  const auto ns = mapper.schedule_network(nn::make_squeezenet());
  for (auto _ : state) {
    wear::WearSimulator sim(arch::rota_like(), wear::SimulatorOptions{fast});
    auto policy = wear::make_policy(wear::PolicyKind::kRwlRo, 14, 12);
    sim.run_iterations(ns, *policy, 10);
    benchmark::DoNotOptimize(sim.tracker());
  }
  state.SetLabel(fast ? "fast-forward" : "per-tile");
}
BENCHMARK(BM_WearIterationFastForward)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_LifetimeImprovement(benchmark::State& state) {
  std::vector<double> base(168);
  std::vector<double> wl(168);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<double>(i % 7);
    wl[i] = 3.0 + static_cast<double>(i % 2);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::lifetime_improvement(base, wl));
  }
}
BENCHMARK(BM_LifetimeImprovement);

/// Usage of `net` after 1000 iterations under `kind` on the 14×12 array.
util::Grid<std::int64_t> zoo_usage(const sched::NetworkSchedule& ns,
                                   wear::PolicyKind kind) {
  wear::WearSimulator sim(arch::rota_like());
  auto policy = wear::make_policy(kind, 14, 12);
  sim.run_iterations(ns, *policy, 1000);
  return sim.tracker().usage();
}

/// The EXPERIMENTS.md AlexNet degrade plan at 16384 iterations: its 164
/// surviving PEs and the residual tolerance 29 (2 spares plus the
/// retirement budget) are what `rota degrade` hands the reliability layer.
fi::DegradeReport degraded_alexnet() {
  fi::DegradeOptions o;
  o.iterations = 16384;
  o.spares = 2;
  o.seed = 7;
  o.retire_live_fraction = 0.8;
  o.workload_tag = "AN";
  for (const char* spec : {"pe=5,5@64", "rank=0@192", "weibull=4"})
    o.faults.push_back(fi::parse_hardware_fault(spec).take());
  return fi::run_degraded_lifetime(arch::rota_like(),
                                   nn::workload_by_abbr("AN"), o);
}

/// The closed-form spare MTTF. Arg(0): the 2-spare closed form on a zoo
/// vector, as `rota lifetime Res --spares 2` evaluates it — ResNet-50
/// under RWL+RO, scaled by the Baseline peak; its repeated activity
/// levels are what the per-level Weibull CDFs exploit. Arg(1): the
/// degraded AlexNet live set at tolerance 29, a 30-deep Poisson-binomial
/// recurrence over 164 PEs with 126 distinct levels (DESIGN.md §14.6).
void BM_SpareArrayMttf(benchmark::State& state) {
  std::vector<double> alphas;
  std::int64_t spares = 2;
  if (state.range(0) == 0) {
    sched::Mapper mapper(arch::rota_like(), sched::ObjectiveSpec{});
    const auto ns = mapper.schedule_network(nn::workload_by_abbr("Res"));
    const auto baseline = zoo_usage(ns, wear::PolicyKind::kBaseline);
    const auto leveled = zoo_usage(ns, wear::PolicyKind::kRwlRo);
    double peak = 1.0;
    for (std::int64_t v : baseline.cells())
      peak = std::max(peak, static_cast<double>(v));
    for (std::int64_t v : leveled.cells())
      alphas.push_back(static_cast<double>(v) / peak);
  } else {
    const fi::DegradeReport report = degraded_alexnet();
    alphas = report.live_alphas;
    spares = report.mttf_tolerance;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::spare_array_mttf(alphas, spares));
  }
  state.SetLabel(std::to_string(alphas.size()) + " PEs, tolerance " +
                 std::to_string(spares));
}
BENCHMARK(BM_SpareArrayMttf)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The `rota degrade --mc` cross-check on the degraded AlexNet live set,
/// 20000 trials — the certified-bracket order statistic's target
/// (DESIGN.md §14.6).
void BM_MonteCarloSpareMttf(benchmark::State& state) {
  const fi::DegradeReport report = degraded_alexnet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::monte_carlo_spare_mttf(
        report.live_alphas, report.mttf_tolerance, rel::kJedecShape, 1.0,
        20000, 7, 1));
  }
  state.SetLabel(std::to_string(report.live_alphas.size()) + " PEs, " +
                 "tolerance " + std::to_string(report.mttf_tolerance));
}
BENCHMARK(BM_MonteCarloSpareMttf)->Unit(benchmark::kMillisecond);

void BM_ExperimentSqueezeNet100(benchmark::State& state) {
  const auto net = nn::make_squeezenet();
  for (auto _ : state) {
    Experiment exp({arch::rota_like(), 100});
    benchmark::DoNotOptimize(exp.run(net, {wear::PolicyKind::kBaseline,
                                           wear::PolicyKind::kRwlRo}));
  }
}
BENCHMARK(BM_ExperimentSqueezeNet100)->Unit(benchmark::kMillisecond);

void BM_ExperimentSqueezeNet100Par(benchmark::State& state) {
  const auto net = nn::make_squeezenet();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExperimentConfig cfg{arch::rota_like(), 100};
    cfg.threads = threads;
    Experiment exp(cfg);
    benchmark::DoNotOptimize(exp.run(net, {wear::PolicyKind::kBaseline,
                                           wear::PolicyKind::kRwl,
                                           wear::PolicyKind::kRwlRo,
                                           wear::PolicyKind::kRandomStart}));
  }
}
BENCHMARK(BM_ExperimentSqueezeNet100Par)
    ->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Disabled-observability cost gate: with no sinks armed, a metric update
// and an event-log call must each stay one relaxed atomic load + branch,
// so the hot paths they instrument (svc request handling, the wear inner
// loops) pay nothing when telemetry is off. A regression here shows up as
// these going from ~1 ns to lock-acquisition territory.
void BM_ObsDisabledCounter(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(false);
  for (auto _ : state) {
    reg.add("bench.disabled_counter");
    reg.observe("bench.disabled_hist", 1.0);
    reg.gauge("bench.disabled_gauge", 1.0);
  }
}
BENCHMARK(BM_ObsDisabledCounter);

void BM_ObsDisabledEventLog(benchmark::State& state) {
  auto& events = obs::EventLog::global();
  events.set_enabled(false);
  for (auto _ : state) {
    obs::log_event(obs::Severity::kInfo, "bench", "disabled event");
  }
}
BENCHMARK(BM_ObsDisabledEventLog);

/// Console reporter that also captures per-iteration timings so main can
/// write the machine-readable BENCH_perf.json after the run.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred || run.run_type == Run::RT_Aggregate) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      rota::bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      rec.real_ms = run.real_accumulated_time / iters * 1e3;
      rec.cpu_ms = run.cpu_accumulated_time / iters * 1e3;
      rec.iterations = run.iterations;
      records.push_back(rec);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<rota::bench::BenchRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  std::string command = "perf_micro";
  for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
  const std::string json_path = rota::bench::take_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  rota::obs::RunManifest manifest =
      rota::obs::make_run_manifest("perf_micro", command);
  const auto t0 = std::chrono::steady_clock::now();
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    manifest.workload = "micro";
    // The lane count a `threads = 0` run resolves to, so the Par/N rows
    // can be read against the cores the host actually gave them.
    manifest.extra["threads"] = std::to_string(rota::par::resolve_threads(0));
    manifest.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rota::bench::write_bench_json(json_path, manifest, reporter.records);
    std::cout << "wrote " << json_path << " (" << reporter.records.size()
              << " benchmarks)\n";
  }
  return 0;
}
