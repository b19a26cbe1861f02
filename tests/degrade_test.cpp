#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "cli/signals.hpp"
#include "fi/checkpoint.hpp"
#include "fi/degrade.hpp"
#include "fi/inject.hpp"
#include "fi/plan.hpp"
#include "nn/workloads.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/spares.hpp"
#include "sched/array_state.hpp"
#include "sched/objective.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"
#include "wear/masked_policy.hpp"
#include "wear/policy.hpp"
#include "wear/usage_tracker.hpp"

namespace rota::fi {
namespace {

/// Unique scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("rota_degrade_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

HardwareFault fault(const std::string& spec) {
  auto parsed = parse_hardware_fault(spec);
  EXPECT_TRUE(parsed.ok()) << spec << ": " << parsed.error().message;
  return std::move(parsed).take();
}

DegradeOptions base_options(const std::vector<std::string>& fault_specs) {
  DegradeOptions opt;
  opt.iterations = 96;
  opt.spares = 2;
  opt.seed = 7;
  opt.objective = sched::parse_objective("energy").value();
  opt.retire_live_fraction = 0.9;
  opt.workload_tag = "AN";
  for (const std::string& spec : fault_specs) opt.faults.push_back(fault(spec));
  return opt;
}

const nn::Network& alexnet() {
  static const nn::Network net = nn::workload_by_abbr("AN");
  return net;
}

// ------------------------------------------------ determinism at any lanes

TEST(Degrade, TimelineIsBitIdenticalAcrossThreadCounts) {
  // Plan exhausts the 2-spare pool, so the run covers remaps, unmapped
  // faults, masked rotation and degraded-array rescheduling.
  const std::vector<std::string> plan = {"weibull=5", "pe=5,5@20"};
  DegradeReport reference;
  for (int threads : {1, 8, 0}) {
    DegradeOptions opt = base_options(plan);
    opt.threads = threads;
    const DegradeReport report =
        run_degraded_lifetime(arch::rota_like(), alexnet(), opt);
    if (threads == 1) {
      reference = report;
      EXPECT_GT(report.remaps, 0);
      EXPECT_GT(report.unmapped_faults, 0);
      EXPECT_GT(report.reschedules, 0);
      continue;
    }
    EXPECT_EQ(report.timeline_csv, reference.timeline_csv) << threads;
    EXPECT_EQ(report.events, reference.events) << threads;
    EXPECT_EQ(report.remaps, reference.remaps);
    EXPECT_EQ(report.reschedules, reference.reschedules);
    // Bit-equal doubles, not approximately equal ones.
    EXPECT_EQ(std::memcmp(&report.mttf_final, &reference.mttf_final,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&report.final_energy, &reference.final_energy,
                          sizeof(double)),
              0);
  }
}

// ------------------------------------------------------ interrupt / resume

/// Stop the run at the first boundary at or past iteration `stop_at`,
/// then resume it; `*progress` receives the checkpoint's iteration.
DegradeReport run_with_stop_at(const DegradeOptions& base,
                               const std::string& ckpt, std::int64_t stop_at,
                               std::int64_t* progress) {
  DegradeOptions opt = base;
  opt.checkpoint_path = ckpt;
  opt.checkpoint_every = 10;  // boundaries between the fault stamps
  const DegradeReport stopped = run_degraded_lifetime(
      arch::rota_like(), alexnet(), opt,
      [stop_at](std::int64_t it) { return it >= stop_at; });
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  auto loaded = load_checkpoint(ckpt);
  EXPECT_TRUE(loaded.ok());
  const Checkpoint cp = std::move(loaded).take();
  *progress = cp.progress;
  DegradeOptions resume = base;
  resume.checkpoint_path = ckpt;
  resume.resume = &cp;
  const DegradeReport resumed =
      run_degraded_lifetime(arch::rota_like(), alexnet(), resume);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  return resumed;
}

TEST(Degrade, ResumeAcrossMidRunRemapIsByteEqual) {
  TempDir dir;
  const std::vector<std::string> plan = {"pe=5,5@20", "pe=8,3@40",
                                         "pe=2,9@60"};
  const DegradeOptions base = base_options(plan);
  const DegradeReport reference =
      run_degraded_lifetime(arch::rota_like(), alexnet(), base);
  EXPECT_GT(reference.remaps, 0);
  EXPECT_GT(reference.unmapped_faults, 0);

  // Stop between the second and third fault (iteration 50): the remapper
  // is mid-service, the schedule has been rebuilt once.
  std::int64_t progress = 0;
  const DegradeReport mid =
      run_with_stop_at(base, dir.file("mid.ckpt"), 50, &progress);
  EXPECT_GT(progress, 40);
  EXPECT_LT(progress, 60);
  EXPECT_EQ(mid.timeline_csv, reference.timeline_csv);
  EXPECT_EQ(mid.events, reference.events);
  EXPECT_EQ(mid.remaps, reference.remaps);
  EXPECT_EQ(mid.reschedules, reference.reschedules);
  EXPECT_EQ(mid.redirected_units, reference.redirected_units);
  EXPECT_EQ(std::memcmp(&mid.mttf_final, &reference.mttf_final,
                        sizeof(double)),
            0);

  // Stop exactly on a fault boundary — the hardest seam: the fault, the
  // remap/reschedule and the checkpoint land on the same iteration.
  const DegradeReport on_fault =
      run_with_stop_at(base, dir.file("onfault.ckpt"), 40, &progress);
  EXPECT_EQ(progress, 40);
  EXPECT_EQ(on_fault.timeline_csv, reference.timeline_csv);
  EXPECT_EQ(on_fault.events, reference.events);
  EXPECT_EQ(on_fault.redirected_units, reference.redirected_units);
}

TEST(Degrade, StaleCheckpointIsRefused) {
  TempDir dir;
  const std::string ckpt = dir.file("stale.ckpt");
  const DegradeOptions original = base_options({"pe=5,5@20"});
  DegradeOptions opt = original;
  opt.checkpoint_path = ckpt;
  const DegradeReport stopped =
      run_degraded_lifetime(arch::rota_like(), alexnet(), opt,
                            [](std::int64_t it) { return it >= 30; });
  ASSERT_TRUE(stopped.interrupted);

  auto loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.ok());
  const Checkpoint cp = std::move(loaded).take();

  // A different fault plan is different work: the fingerprint gate fires.
  DegradeOptions other = base_options({"pe=4,4@10"});
  other.resume = &cp;
  EXPECT_THROW(run_degraded_lifetime(arch::rota_like(), alexnet(), other),
               util::precondition_error);

  // So is a different mode under the same plan.
  DegradeOptions oblivious = original;
  oblivious.mode = DegradeMode::kFaultOblivious;
  oblivious.resume = &cp;
  EXPECT_THROW(
      run_degraded_lifetime(arch::rota_like(), alexnet(), oblivious),
      util::precondition_error);
}

// ------------------------------------------------------ golden timelines

/// FNV-1a over `text`, as 16 hex digits.
std::string fnv1a_hex(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(text)));
  return buf;
}

/// Everything a run reports that the engine computes, in one canonical
/// text: timeline, events, counters and the observed live wear rates.
std::string report_digest(const DegradeReport& r) {
  std::ostringstream out;
  out << r.timeline_csv << "|events";
  for (const std::string& line : r.events) out << '\n' << line;
  out << "|counters";
  for (const std::int64_t v :
       {r.iterations_run, std::int64_t{r.retired}, r.retired_at,
        r.faults_injected, r.transient_restores, r.remaps, r.unmapped_faults,
        r.reschedules, r.redirected_units, r.lost_units, r.first_unspared_at,
        r.live_pes, r.retire_budget, r.mttf_tolerance}) {
    out << ' ' << v;
  }
  out << "|alphas";
  for (const double a : r.live_alphas) out << ' ' << util::hexfloat(a);
  return fnv1a_hex(out.str());
}

/// The EXPERIMENTS.md AlexNet plan over `iterations`.
DegradeOptions experiments_plan(std::int64_t iterations,
                                DegradeMode mode = DegradeMode::kFaultAware) {
  DegradeOptions opt = base_options({"pe=5,5@64", "rank=0@192", "weibull=4"});
  opt.iterations = iterations;
  opt.retire_live_fraction = 0.8;
  opt.mode = mode;
  return opt;
}

// The digests were recorded from the engine that stepped and credited one
// iteration at a time; the epoch engine must reproduce them byte for byte.
TEST(Degrade, GoldenTimelinesMatchTheIterationByIterationEngine) {
  struct Golden {
    const char* name;
    DegradeOptions options;
    const char* digest;
  };
  constexpr DegradeMode kAware = DegradeMode::kFaultAware;
  constexpr DegradeMode kOblivious = DegradeMode::kFaultOblivious;
  std::vector<Golden> runs = {
      {"experiments", experiments_plan(512, kAware), "4537d8e493b3daa0"},
      {"experiments", experiments_plan(512, kOblivious), "5892b2460c27ee30"},
      {"experiments", experiments_plan(16384, kAware), "50b2b0c8218b2ee6"},
      {"experiments", experiments_plan(16384, kOblivious),
       "b6d23f4a705de02c"},
  };
  {  // CI degrade-smoke's thread-determinism plan.
    DegradeOptions opt = base_options({"pe=5,5@20", "rank=2@40", "weibull=4"});
    opt.iterations = 128;
    opt.spares = 3;
    opt.seed = 11;
    opt.retire_live_fraction = 0.75;
    runs.push_back({"ci-threads", opt, "404dd0e36eae32f5"});
  }
  {  // CI degrade-smoke's interrupt/resume plan.
    DegradeOptions opt = base_options({"pe=5,5@20", "pe=8,3@40", "pe=2,9@60"});
    opt.iterations = 50000;
    opt.spares = 1;
    opt.retire_live_fraction = 0.75;
    runs.push_back({"ci-resume", opt, "ae442de2030720cb"});
  }
  for (const Golden& g : runs) {
    const DegradeReport report =
        run_degraded_lifetime(arch::rota_like(), alexnet(), g.options);
    EXPECT_EQ(report_digest(report), g.digest)
        << g.name << " x" << g.options.iterations << " "
        << to_string(g.options.mode);
  }

  // An autosaved checkpoint blob is byte-identical too.
  TempDir dir;
  DegradeOptions opt = experiments_plan(16384);
  opt.checkpoint_path = dir.file("golden.ckpt");
  opt.checkpoint_every = 512;
  (void)run_degraded_lifetime(arch::rota_like(), alexnet(), opt);
  EXPECT_EQ(fnv1a_hex(util::read_text_file(opt.checkpoint_path)),
            "62617e03cb3ae0eb");
}

// ------------------------------------------------- exhaustion / retirement

TEST(Degrade, SpareExhaustionDegradesThenRetires) {
  DegradeOptions opt = base_options({"pe=1,1@5", "pe=2,2@10", "pe=3,3@15"});
  opt.spares = 0;
  opt.retire_live_fraction = 0.99;  // 14x12: retire below 167 live PEs
  const DegradeReport report =
      run_degraded_lifetime(arch::rota_like(), alexnet(), opt);
  EXPECT_TRUE(report.retired);
  EXPECT_EQ(report.retired_at, 10);  // second un-spared death: 166 < 167
  EXPECT_EQ(report.iterations_run, 10);
  EXPECT_EQ(report.reschedules, 1);  // the first death rescheduled
  EXPECT_EQ(report.mttf_final, 0.0);
  EXPECT_NE(report.timeline_csv.find(",retire,"), std::string::npos);
}

TEST(Degrade, ObliviousModeFailStopsWhereAwareKeepsServing) {
  const std::vector<std::string> plan = {"pe=5,5@20", "pe=8,3@40",
                                         "pe=2,9@60"};
  DegradeOptions aware = base_options(plan);
  aware.spares = 1;
  DegradeOptions oblivious = aware;
  oblivious.mode = DegradeMode::kFaultOblivious;

  const DegradeReport a =
      run_degraded_lifetime(arch::rota_like(), alexnet(), aware);
  const DegradeReport o =
      run_degraded_lifetime(arch::rota_like(), alexnet(), oblivious);

  // Same physical fault history on both devices.
  EXPECT_EQ(a.faults_injected, o.faults_injected);
  EXPECT_EQ(a.first_unspared_at, o.first_unspared_at);
  EXPECT_EQ(o.first_unspared_at, 40);

  // The oblivious device never reacts: no reschedule, work lands on dead
  // silicon, and its fail-stop service ended at the first un-spared
  // fault — zero residual lifetime.
  EXPECT_EQ(o.reschedules, 0);
  EXPECT_GT(o.lost_units, 0);
  EXPECT_EQ(o.mttf_final, 0.0);

  // The aware device rescheduled around the dead PEs, lost nothing, and
  // retains a positive residual lifetime on its live set.
  EXPECT_GT(a.reschedules, 0);
  EXPECT_EQ(a.lost_units, 0);
  EXPECT_GT(a.mttf_final, 0.0);
  EXPECT_GT(a.retire_budget, 0);
  EXPECT_EQ(a.mttf_tolerance, a.retire_budget);  // free pool is empty
}

// ----------------------------------------- with-spares Monte-Carlo estimator

TEST(MonteCarloSpares, AgreesWithClosedFormWithinSamplingError) {
  // A deliberately uneven live set, like a degraded array's.
  std::vector<double> alphas;
  for (int i = 0; i < 24; ++i)
    alphas.push_back(0.5 + 0.03 * static_cast<double>(i % 7));
  for (std::int64_t spares : {0, 2, 5}) {
    const double closed = rel::spare_array_mttf(alphas, spares);
    const rel::MonteCarloResult mc =
        rel::monte_carlo_spare_mttf(alphas, spares, rel::kJedecShape, 1.0,
                                    60000, 11, 4);
    EXPECT_NEAR(mc.mttf, closed, 4.0 * mc.stderr_ + 1e-12)
        << "spares=" << spares;
  }
}

TEST(MonteCarloSpares, IsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> alphas = {1.0, 0.8, 0.9, 0.7, 1.0, 0.6};
  const rel::MonteCarloResult serial =
      rel::monte_carlo_spare_mttf(alphas, 2, rel::kJedecShape, 1.0, 20000,
                                  3, 1);
  const rel::MonteCarloResult wide =
      rel::monte_carlo_spare_mttf(alphas, 2, rel::kJedecShape, 1.0, 20000,
                                  3, 8);
  EXPECT_EQ(std::memcmp(&serial.mttf, &wide.mttf, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.stderr_, &wide.stderr_, sizeof(double)), 0);
}

// ----------------------------------------------------------- masked policy

TEST(MaskedPolicy, NextOriginNeverCoversDeadPEs) {
  const sched::ArrayState mask(6, 6, {{0, 0}, {3, 3}});
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kRwl, wear::PolicyKind::kRwlRo,
        wear::PolicyKind::kDiagonalStride, wear::PolicyKind::kRandomStart}) {
    wear::MaskedPolicy policy(wear::make_policy(kind, 6, 6, 42), mask);
    const sched::UtilSpace space{2, 2};
    policy.begin_layer(space);
    for (int t = 0; t < 72; ++t) {
      const wear::Placement p = policy.next_origin(space);
      for (std::int64_t dv = 0; dv < space.y; ++dv) {
        for (std::int64_t du = 0; du < space.x; ++du) {
          EXPECT_FALSE(mask.dead((p.u + du) % 6, (p.v + dv) % 6))
              << wear::to_string(kind) << " tile " << t;
        }
      }
    }
  }
}

TEST(MaskedPolicy, BulkPathMatchesPerTilePathBitForBit) {
  const sched::ArrayState mask(6, 6, {{1, 4}, {4, 1}});
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
        wear::PolicyKind::kRwlRo, wear::PolicyKind::kDiagonalStride}) {
    wear::MaskedPolicy bulk(wear::make_policy(kind, 6, 6, 42), mask);
    wear::MaskedPolicy tile(wear::make_policy(kind, 6, 6, 42), mask);
    wear::UsageTracker bulk_tracker(6, 6);
    wear::UsageTracker tile_tracker(6, 6);
    const sched::UtilSpace space{3, 2};
    constexpr std::int64_t kTiles = 157;  // forces a partial final pass
    bulk.begin_layer(space);
    tile.begin_layer(space);
    const std::int64_t done =
        bulk.bulk_process(space, kTiles, bulk_tracker, true, 3);
    ASSERT_EQ(done, kTiles) << wear::to_string(kind);
    for (std::int64_t t = 0; t < kTiles; ++t) {
      const wear::Placement p = tile.next_origin(space);
      tile_tracker.add_space(p.u, p.v, space.x, space.y, 3, true);
    }
    EXPECT_EQ(bulk_tracker.usage().cells(), tile_tracker.usage().cells())
        << wear::to_string(kind);
    // The inner rotation state advanced identically: the next emitted
    // origins agree.
    for (int t = 0; t < 8; ++t) {
      const wear::Placement a = bulk.next_origin(space);
      const wear::Placement b = tile.next_origin(space);
      EXPECT_EQ(a.u, b.u) << wear::to_string(kind);
      EXPECT_EQ(a.v, b.v) << wear::to_string(kind);
    }
  }
}

TEST(MaskedPolicy, AllLiveMaskIsByteIdenticalToInnerPolicy) {
  wear::MaskedPolicy masked(wear::make_policy(wear::PolicyKind::kRwlRo, 6, 6),
                            sched::ArrayState{});
  auto inner = wear::make_policy(wear::PolicyKind::kRwlRo, 6, 6);
  const sched::UtilSpace space{3, 2};
  masked.begin_layer(space);
  inner->begin_layer(space);
  for (int t = 0; t < 64; ++t) {
    const wear::Placement a = masked.next_origin(space);
    const wear::Placement b = inner->next_origin(space);
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
  }
}

// -------------------------------------------- policy / tracker round-trips

TEST(Degrade, PolicyStateRoundTripsThroughPackUnpack) {
  const sched::UtilSpace space{3, 2};
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
        wear::PolicyKind::kRwlRo, wear::PolicyKind::kRandomStart,
        wear::PolicyKind::kDiagonalStride}) {
    auto original = wear::make_policy(kind, 7, 5, 99);
    original->begin_layer(space);
    for (int t = 0; t < 23; ++t) (void)original->next_origin(space);

    auto restored = wear::make_policy(kind, 7, 5, 99);
    restored->unpack_state(original->pack_state());
    for (int t = 0; t < 16; ++t) {
      const wear::Placement a = original->next_origin(space);
      const wear::Placement b = restored->next_origin(space);
      EXPECT_EQ(a.u, b.u) << wear::to_string(kind);
      EXPECT_EQ(a.v, b.v) << wear::to_string(kind);
    }
  }
}

TEST(Degrade, TrackerRestoreCellsRoundTrips) {
  wear::UsageTracker tracker(5, 4);
  tracker.add_space(1, 1, 3, 2, 7, true);
  tracker.add_space(4, 3, 2, 2, 3, true);  // wraps
  wear::UsageTracker restored(5, 4);
  restored.restore_cells(tracker.usage().cells());
  EXPECT_EQ(restored.usage().cells(), tracker.usage().cells());
  EXPECT_EQ(restored.total_pe_allocations(), tracker.total_pe_allocations());
  // Still usable after restore.
  restored.add_space(0, 0, 1, 1, 1, false);
  tracker.add_space(0, 0, 1, 1, 1, false);
  EXPECT_EQ(restored.usage().cells(), tracker.usage().cells());
}

// -------------------------------- wear-dependent static fault resolution

TEST(ArrayStateFromFaults, RankResolvesAgainstTheSnapshot) {
  WearSnapshot wear;
  wear.usage.assign(12, 0);
  for (std::size_t i = 0; i < wear.usage.size(); ++i)
    wear.usage[i] = static_cast<std::int64_t>(i);  // most worn: index 11
  const std::vector<HardwareFault> faults = {fault("rank=0@1")};
  auto state = array_state_from_faults(4, 3, faults, 0, wear);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().dead_count(), 1);
  EXPECT_TRUE(state.value().dead(3, 2));  // index 11 = (3, 2)
}

TEST(ArrayStateFromFaults, WeibullSamplesDistinctPEsDeterministically) {
  WearSnapshot wear;
  wear.usage.assign(12, 5);
  wear.seed = 123;
  const std::vector<HardwareFault> faults = {fault("weibull=3")};
  auto first = array_state_from_faults(4, 3, faults, 0, wear);
  auto second = array_state_from_faults(4, 3, faults, 0, wear);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().dead_count(), 3);  // distinct picks
  EXPECT_EQ(first.value().digest(), second.value().digest());

  // A spare pool absorbs the deaths: the static map is intact again.
  auto spared = array_state_from_faults(4, 3, faults, 3, wear);
  ASSERT_TRUE(spared.ok());
  EXPECT_EQ(spared.value().dead_count(), 0);
}

TEST(ArrayStateFromFaults, WearDependentSpecsNeedASnapshot) {
  const std::vector<HardwareFault> faults = {fault("rank=0@1")};
  auto state = array_state_from_faults(4, 3, faults, 0);
  EXPECT_FALSE(state.ok());
}

TEST(ArrayStateFromFaults, SnapshotGeometryMustMatch) {
  WearSnapshot wear;
  wear.usage.assign(6, 1);  // wrong size for 4x3
  const std::vector<HardwareFault> faults = {fault("rank=0@1")};
  auto state = array_state_from_faults(4, 3, faults, 0, wear);
  EXPECT_FALSE(state.ok());
}

// ------------------------------------------------------------ CLI surface

/// Run `rota <args>` in-process, returning {exit code, stdout}.
std::pair<int, std::string> run_cli(const std::vector<std::string>& args) {
  const cli::Options options = cli::parse(args);
  std::ostringstream out;
  const int rc = cli::run(options, out);
  return {rc, out.str()};
}

TEST(DegradeCli, InterruptAndResumeReproduceTheExactTimeline) {
  TempDir dir;
  const std::string ref_csv = dir.file("ref.csv");
  const std::string resumed_csv = dir.file("resumed.csv");
  const std::string ckpt = dir.file("degrade.ckpt");
  const std::vector<std::string> base = {
      "degrade", "AN",      "--iters",  "96",       "--spares", "2",
      "--fault", "pe=5,5@20", "--fault", "pe=8,3@40", "--seed",  "7"};

  std::vector<std::string> ref_args = base;
  ref_args.insert(ref_args.end(), {"--csv", ref_csv});
  auto [ref_rc, ref_out] = run_cli(ref_args);
  ASSERT_EQ(ref_rc, 0);

  std::vector<std::string> ckpt_args = base;
  ckpt_args.insert(ckpt_args.end(),
                   {"--csv", resumed_csv, "--checkpoint", ckpt});
  cli::clear_interrupt();
  cli::simulate_interrupt_after(50);  // boundary 50: one remap behind us
  auto [killed_rc, killed_out] = run_cli(ckpt_args);
  EXPECT_EQ(killed_rc, cli::kExitInterrupted);
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  cli::clear_interrupt();
  auto [resumed_rc, resumed_out] = run_cli(ckpt_args);
  ASSERT_EQ(resumed_rc, 0);
  EXPECT_EQ(util::read_text_file(ref_csv), util::read_text_file(resumed_csv));
  EXPECT_FALSE(std::filesystem::exists(ckpt));  // finished runs clean up
}

TEST(DegradeCli, RetirementExitsWithCode5) {
  cli::clear_interrupt();
  auto [rc, out] =
      run_cli({"degrade", "AN", "--iters", "64", "--spares", "0", "--fault",
               "pe=1,1@5", "--fault", "pe=2,2@10", "--retire", "0.99"});
  EXPECT_EQ(rc, cli::kExitRetired);
  EXPECT_NE(out.find("retire"), std::string::npos);
}

TEST(DegradeCli, PoolLargerThanTheActivePesCapsTheResidualTolerance) {
  // Baseline leaves part of the array idle under Llama-2 7B, so 149 free
  // spares plus the retirement budget exceed the active PEs: the residual
  // MTTF must cap the tolerance at the active count minus one, not at the
  // live-set size (which threw a precondition error, exit 2), and the
  // printed tolerance is the capped one the MTTF was computed at. Both
  // MTTFs are far below 1e-4 and must still print their digits.
  cli::clear_interrupt();
  auto [rc, out] = run_cli({"degrade", "LM", "--iters", "50", "--spares",
                            "150", "--policy", "Baseline", "--fault",
                            "pe=0,0@10", "--mc", "200"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("residual (tolerance 79): 6.894e-06"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("0.0000"), std::string::npos) << out;
  EXPECT_NE(out.find("MC cross-check: "), std::string::npos) << out;
}

TEST(DegradeCli, AwareModeReschedulesOnceThePoolIsExhausted) {
  cli::clear_interrupt();
  auto [rc, out] = run_cli({"degrade", "AN", "--iters", "48", "--spares", "1",
                            "--fault", "pe=5,5@10", "--fault", "pe=8,3@20"});
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("mode aware"), std::string::npos);
  EXPECT_NE(out.find("reschedule"), std::string::npos);
}

}  // namespace
}  // namespace rota::fi
