#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "arch/config.hpp"
#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "cli/signals.hpp"
#include "fi/checkpoint.hpp"
#include "fi/degrade.hpp"
#include "fi/hooks.hpp"
#include "fi/inject.hpp"
#include "fi/plan.hpp"
#include "nn/workloads.hpp"
#include "par/parallel.hpp"
#include "sched/mapper.hpp"
#include "svc/cache.hpp"
#include "svc/engine.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"
#include "util/result.hpp"
#include "util/retry.hpp"

namespace rota::fi {
namespace {

using util::ErrorCode;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("rota_fi_test_" + std::to_string(::getpid()) + "_" +
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

/// Hooks are process-global; every test that arms must disarm.
struct ArmGuard {
  explicit ArmGuard(const SoftwarePlan& plan) { Hooks::arm(plan); }
  ~ArmGuard() { Hooks::disarm(); }
};

// ------------------------------------------------------------ plan parsing

TEST(FiPlan, SoftwareSpecRoundTrips) {
  auto parsed = parse_software_plan(
      "read=0.1,write=0.2,corrupt=0.05,stall=0.5,stall_ms=7,alloc=0.01,"
      "seed=42,match=schedule-cache");
  ASSERT_TRUE(parsed.ok());
  const SoftwarePlan plan = std::move(parsed).take();
  EXPECT_DOUBLE_EQ(plan.read_fail_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.write_fail_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.stall_rate, 0.5);
  EXPECT_EQ(plan.stall_ms, 7);
  EXPECT_DOUBLE_EQ(plan.alloc_fail_rate, 0.01);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.path_match, "schedule-cache");
  EXPECT_TRUE(plan.any());

  auto reparsed = parse_software_plan(plan.to_spec());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().to_spec(), plan.to_spec());
}

TEST(FiPlan, EmptySpecIsAllZero) {
  auto parsed = parse_software_plan("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().any());
}

TEST(FiPlan, SoftwareSpecRejectsBadInput) {
  EXPECT_FALSE(parse_software_plan("bogus=1").ok());
  EXPECT_FALSE(parse_software_plan("read=1.5").ok());
  EXPECT_FALSE(parse_software_plan("read=-0.1").ok());
  EXPECT_FALSE(parse_software_plan("read=abc").ok());
  EXPECT_FALSE(parse_software_plan("read").ok());
  EXPECT_FALSE(parse_software_plan("stall_ms=-3").ok());
  EXPECT_FALSE(parse_software_plan("match=").ok());
  EXPECT_EQ(parse_software_plan("read=2").error().code,
            ErrorCode::kInvalidArgument);
  // Numbers are read whole: no leading whitespace, no '+', no NaN rate.
  for (const char* bad : {"read=+0.5", "read= 0.5", "read=nan", "read=1e999",
                          "stall_ms=+3", "stall_ms= 3", "seed=+1"}) {
    EXPECT_FALSE(parse_software_plan(bad).ok()) << bad;
  }
  // Underflow is strtod's value, not an errno rejection.
  auto tiny = parse_software_plan("read=1e-310,corrupt=0x1p-2");
  ASSERT_TRUE(tiny.ok()) << tiny.error().message;
  EXPECT_EQ(tiny.value().read_fail_rate, 1e-310);
  EXPECT_EQ(tiny.value().corrupt_rate, 0.25);
}

TEST(FiPlan, HardwareFaultGrammarRoundTrips) {
  for (const char* spec :
       {"pe=3,4@10", "pe=0,0@1+5", "rank=2@100", "weibull=6"}) {
    auto parsed = parse_hardware_fault(spec);
    ASSERT_TRUE(parsed.ok()) << spec;
    EXPECT_EQ(to_string(parsed.value()), spec);
  }
  auto transient = parse_hardware_fault("pe=1,2@30+4");
  ASSERT_TRUE(transient.ok());
  EXPECT_EQ(transient.value().kind, HardwareFaultKind::kCoordinate);
  EXPECT_EQ(transient.value().u, 1);
  EXPECT_EQ(transient.value().v, 2);
  EXPECT_EQ(transient.value().iteration, 30);
  EXPECT_EQ(transient.value().restore_after, 4);
}

TEST(FiPlan, HardwareFaultRejectsBadSpecs) {
  for (const char* spec :
       {"", "pe=3,4", "pe=3@10", "pe=-1,2@10", "pe=1,2@0", "pe=1,2@5+0",
        "rank=-1@10", "rank=1", "weibull=0", "weibull=x", "die=1@2",
        "pe=+3,4@10", "pe= 3,4@10", "pe=3, 4@10", "pe=3,4@+10",
        "pe=3,4@10+ 5", "rank=+2@100", "weibull=+6", "weibull= 6",
        "pe=3,4@99999999999999999999"}) {
    auto parsed = parse_hardware_fault(spec);
    EXPECT_FALSE(parsed.ok()) << spec;
  }
}

// ----------------------------------------------------------- fi::Hooks

TEST(FiHooks, ArmingNoFaultPlanIsANoOp) {
  SoftwarePlan idle;
  Hooks::arm(idle);
  EXPECT_FALSE(Hooks::armed());
  EXPECT_FALSE(util::io_fault_hook_armed());
}

TEST(FiHooks, CertainWriteFaultsThrowAndCount) {
  TempDir dir;
  SoftwarePlan plan;
  plan.write_fail_rate = 1.0;
  ArmGuard guard(plan);
  EXPECT_THROW(util::write_text_file(dir.file("a.txt"), "x"),
               util::io_error);
  EXPECT_THROW(util::write_file_atomic(dir.file("b.txt"), "x"),
               util::io_error);
  EXPECT_GE(Hooks::counters().write_faults, 2);
}

TEST(FiHooks, ReadFaultPatternIsDeterministicPerSeed) {
  TempDir dir;
  const std::string path = dir.file("data.txt");
  util::write_text_file(path, "payload");

  SoftwarePlan plan;
  plan.read_fail_rate = 0.5;
  plan.seed = 9;
  const auto pattern_of = [&] {
    std::vector<bool> threw;
    for (int i = 0; i < 32; ++i) {
      try {
        (void)util::read_text_file(path);
        threw.push_back(false);
      } catch (const util::io_error&) {
        threw.push_back(true);
      }
    }
    return threw;
  };

  std::vector<bool> first;
  std::vector<bool> second;
  {
    ArmGuard guard(plan);
    first = pattern_of();
  }
  {
    ArmGuard guard(plan);  // re-arm resets the operation counters
    second = pattern_of();
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FiHooks, CorruptionFlipsExactlyOneByte) {
  TempDir dir;
  const std::string path = dir.file("data.txt");
  const std::string original = "schedule cache entry payload";
  util::write_text_file(path, original);

  SoftwarePlan plan;
  plan.corrupt_rate = 1.0;
  ArmGuard guard(plan);
  const std::string corrupted = util::read_text_file(path);
  ASSERT_EQ(corrupted.size(), original.size());
  int diffs = 0;
  for (std::size_t i = 0; i < original.size(); ++i)
    diffs += corrupted[i] != original[i];
  EXPECT_EQ(diffs, 1);
  EXPECT_GE(Hooks::counters().corruptions, 1);
}

TEST(FiHooks, PathMatchScopesIoFaults) {
  TempDir dir;
  const std::string hit = dir.file("cache-entry.rsc");
  const std::string spared = dir.file("artifact.csv");
  SoftwarePlan plan;
  plan.write_fail_rate = 1.0;
  plan.path_match = "cache-entry";
  ArmGuard guard(plan);
  EXPECT_THROW(util::write_text_file(hit, "x"), util::io_error);
  EXPECT_NO_THROW(util::write_text_file(spared, "x"));
}

TEST(FiHooks, StalledWorkersRunToCompletionAndCount) {
  SoftwarePlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 1;
  ArmGuard guard(plan);
  std::atomic<int> ran{0};
  par::parallel_for(8, 2, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(Hooks::counters().stalls, 8);
  // Inline tasks stall too: one lane, and a one-task batch at any count.
  par::parallel_for(3, 1, [&](std::int64_t) { ran.fetch_add(1); });
  par::parallel_for(1, 4, [&](std::int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 12);
  EXPECT_EQ(Hooks::counters().stalls, 12);
}

TEST(FiHooks, AllocFaultQueryFollowsThePlan) {
  EXPECT_FALSE(Hooks::should_fail_alloc("test.site"));  // disarmed
  SoftwarePlan plan;
  plan.alloc_fail_rate = 1.0;
  ArmGuard guard(plan);
  EXPECT_TRUE(Hooks::should_fail_alloc("test.site"));
  EXPECT_GE(Hooks::counters().alloc_faults, 1);
}

TEST(FiHooks, ArmFromEnvParsesOrFailsLoudly) {
  ASSERT_EQ(::unsetenv("ROTA_FI"), 0);
  EXPECT_FALSE(Hooks::arm_from_env());
  EXPECT_FALSE(Hooks::armed());

  ASSERT_EQ(::setenv("ROTA_FI", "read=0.25,seed=3", 1), 0);
  EXPECT_TRUE(Hooks::arm_from_env());
  EXPECT_TRUE(Hooks::armed());
  EXPECT_DOUBLE_EQ(Hooks::plan().read_fail_rate, 0.25);
  Hooks::disarm();

  ASSERT_EQ(::setenv("ROTA_FI", "read=7", 1), 0);
  EXPECT_THROW(Hooks::arm_from_env(), util::precondition_error);
  ASSERT_EQ(::unsetenv("ROTA_FI"), 0);
  Hooks::disarm();
}

// ------------------------------------------------------- retry / backoff

TEST(FiRetry, BackoffDoublesJittersAndCaps) {
  util::RetryOptions options;
  options.base_delay_ms = 4;
  options.max_delay_ms = 16;
  std::int64_t ceiling = 4;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const std::int64_t d = util::backoff_delay_ms(options, attempt, 77);
    EXPECT_GE(d, ceiling / 2) << attempt;
    EXPECT_LE(d, ceiling) << attempt;
    // Deterministic per (options, salt, attempt).
    EXPECT_EQ(d, util::backoff_delay_ms(options, attempt, 77));
    if (ceiling < options.max_delay_ms) ceiling *= 2;
  }
}

TEST(FiRetry, RetryIoRecoversAfterTransientFailures) {
  util::RetryOptions options;
  options.max_attempts = 4;
  options.base_delay_ms = 0;  // no sleeping in tests
  int calls = 0;
  int observed = 0;
  const int value = util::retry_io(
      options, 1,
      [&] {
        if (++calls < 3) throw util::io_error("transient");
        return 42;
      },
      [&](int attempt, const util::io_error&) { observed = attempt; });
  EXPECT_EQ(value, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(observed, 2);  // two failed attempts were observed
}

TEST(FiRetry, ExhaustedRetriesRethrowTheLastError) {
  util::RetryOptions options;
  options.max_attempts = 3;
  options.base_delay_ms = 0;
  int calls = 0;
  EXPECT_THROW(util::retry_io(options, 1,
                              [&]() -> int {
                                ++calls;
                                throw util::io_error("permanent");
                              }),
               util::io_error);
  EXPECT_EQ(calls, 3);
}

TEST(FiRetry, NonIoErrorsPropagateImmediately) {
  util::RetryOptions options;
  options.max_attempts = 5;
  options.base_delay_ms = 0;
  int calls = 0;
  EXPECT_THROW(util::retry_io(options, 1,
                              [&]() -> int {
                                ++calls;
                                throw std::runtime_error("not transient");
                              }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);
}

// ----------------------------------------------------------- checkpoints

TEST(FiCheckpoint, EncodeDecodeRoundTripsBinaryFields) {
  Checkpoint cp;
  cp.kind = "sweep";
  cp.fingerprint = "sweep|Res|RWL|14x12|1000";
  cp.progress = 7;
  cp.fields["csv"] = "a,b\n1,2\n";
  cp.fields["blob"] = std::string("\x00\x01\xff\nraw", 8);

  auto decoded = decode_checkpoint(encode_checkpoint(cp));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().kind, cp.kind);
  EXPECT_EQ(decoded.value().fingerprint, cp.fingerprint);
  EXPECT_EQ(decoded.value().progress, 7);
  EXPECT_EQ(decoded.value().fields, cp.fields);
}

TEST(FiCheckpoint, DecodeRejectsEveryCorruption) {
  Checkpoint cp;
  cp.kind = "mc";
  cp.fingerprint = "mc|Sqz";
  cp.progress = 3;
  cp.fields["sum"] = "0x1p+3";
  const std::string good = encode_checkpoint(cp);
  ASSERT_TRUE(decode_checkpoint(good).ok());

  EXPECT_FALSE(decode_checkpoint("").ok());
  EXPECT_FALSE(decode_checkpoint("not-a-checkpoint v1\n").ok());
  EXPECT_FALSE(decode_checkpoint("rota-checkpoint v2\nkind mc\n").ok());
  // Truncation anywhere must fail, never half-apply.
  for (std::size_t cut = 1; cut < good.size(); cut += 7)
    EXPECT_FALSE(decode_checkpoint(good.substr(0, cut)).ok()) << cut;
  EXPECT_FALSE(decode_checkpoint(good + "trailing").ok());
  EXPECT_EQ(decode_checkpoint("junk").error().code,
            ErrorCode::kInvalidArgument);
}

/// `body` (header through the last field) completed with its digest line
/// and end marker, as encode_checkpoint would seal it.
std::string sealed(const std::string& body) {
  char tail[40];
  std::snprintf(tail, sizeof tail, "digest %016llx\nend\n",
                static_cast<unsigned long long>(util::fnv1a64(body)));
  return body + tail;
}

TEST(FiCheckpoint, OversizedOrNegativeFieldSizesAreCorruptNotAllocated) {
  // A declared size is read strictly and checked against the bytes left
  // before anything is allocated for it, even under a valid digest.
  const std::string header =
      "rota-checkpoint v2\nkind mc\nfingerprint f\nprogress 0\n";
  ASSERT_TRUE(decode_checkpoint(sealed(header + "field sum 6\n0x1p+3\n")).ok());
  for (const char* size : {"-1", "99999999999", "4000000000",
                           "18446744073709551615", "+6", " 6", "0x6", "7"}) {
    const auto decoded = decode_checkpoint(
        sealed(header + "field sum " + size + "\n0x1p+3\n"));
    ASSERT_FALSE(decoded.ok()) << size;
    EXPECT_EQ(decoded.error().code, ErrorCode::kInvalidArgument) << size;
    EXPECT_NE(decoded.error().message.find("corrupt checkpoint"),
              std::string::npos)
        << decoded.error().message;
  }
}

TEST(FiCheckpoint, VersionOneRecordsAreAnUnsupportedVersion) {
  const auto decoded = decode_checkpoint(
      "rota-checkpoint v1\nkind mc\nfingerprint f\nprogress 0\nend\n");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("unsupported checkpoint version 'v1'"),
            std::string::npos)
      << decoded.error().message;
}

TEST(FiCheckpoint, SaveLoadRoundTripsAndMissingIsNotFound) {
  TempDir dir;
  const std::string path = dir.file("run.ckpt");

  auto missing = load_checkpoint(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kNotFound);

  Checkpoint cp;
  cp.kind = "sweep";
  cp.fingerprint = "f";
  cp.progress = 2;
  cp.fields["csv"] = "rows";
  save_checkpoint(path, cp);
  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().fields.at("csv"), "rows");

  util::write_text_file(path, "garbage");
  EXPECT_EQ(load_checkpoint(path).error().code, ErrorCode::kInvalidArgument);
}

TEST(FiCheckpoint, SavesSurviveInjectedIoFaultsViaRetry) {
  TempDir dir;
  const std::string path = dir.file("run.ckpt");
  SoftwarePlan plan;
  plan.write_fail_rate = 0.3;
  plan.read_fail_rate = 0.3;
  plan.seed = 5;
  ArmGuard guard(plan);

  util::RetryOptions retry;
  retry.base_delay_ms = 0;
  Checkpoint cp;
  cp.kind = "mc";
  cp.fingerprint = "f";
  for (int round = 0; round < 20; ++round) {
    cp.progress = round;
    save_checkpoint(path, cp, retry);
    auto loaded = load_checkpoint(path, retry);
    ASSERT_TRUE(loaded.ok()) << round;
    EXPECT_EQ(loaded.value().progress, round);
  }
  // The deterministic 30% fault pattern must actually have fired.
  EXPECT_GE(Hooks::counters().write_faults + Hooks::counters().read_faults,
            1);
}

// ------------------------------------------------- hardware injection
//
// `rota degrade --oblivious` is run_degraded_lifetime in fault-oblivious
// mode. The counts and event lines below were recorded from the
// per-iteration injection campaign it replaced, and the engine reproduces
// them exactly.

DegradeOptions small_inject(std::int64_t iterations, std::int64_t spares,
                            std::initializer_list<const char*> faults) {
  DegradeOptions options;
  options.iterations = iterations;
  options.spares = spares;
  options.seed = 11;
  options.mode = DegradeMode::kFaultOblivious;
  for (const char* spec : faults) {
    options.faults.push_back(parse_hardware_fault(spec).value());
  }
  return options;
}

DegradeReport run_inject(const DegradeOptions& options) {
  return run_degraded_lifetime(arch::rota_like(), nn::workload_by_abbr("Sqz"),
                               options);
}

TEST(FiInject, CoordinateFaultRedirectsWorkToASpare) {
  const DegradeReport report = run_inject(small_inject(64, 2, {"pe=3,4@10"}));
  EXPECT_EQ(report.iterations_run, 64);
  EXPECT_EQ(report.faults_injected, 1);
  EXPECT_EQ(report.spare_stats.remaps, 1);
  EXPECT_EQ(report.spare_stats.spares_in_service, 1);
  EXPECT_EQ(report.redirected_units, 93356);
  EXPECT_EQ(report.lost_units, 0);
  EXPECT_EQ(report.events,
            std::vector<std::string>{"it=10 fault pe=(3,4) -> spare 0"});
  // One spare spent out of two: the degraded array cannot beat the
  // full-pool one.
  EXPECT_GT(report.mttf_final, 0.0);
  EXPECT_LE(report.mttf_final, report.mttf_initial);
}

TEST(FiInject, ExhaustedPoolLosesWork) {
  const DegradeReport report = run_inject(small_inject(64, 0, {"pe=3,4@10"}));
  EXPECT_EQ(report.spare_stats.unmapped, 1);
  EXPECT_EQ(report.lost_units, 93356);
  EXPECT_EQ(report.redirected_units, 0);
  EXPECT_EQ(report.events,
            std::vector<std::string>{
                "it=10 fault pe=(3,4) -> unmapped (pool exhausted)"});
  // Fail-stop (Eq. 2): the first un-spared fault ends correct service.
  EXPECT_EQ(report.first_unspared_at, 10);
  EXPECT_EQ(report.mttf_final, 0.0);
}

TEST(FiInject, TransientFaultRestoresThePrimary) {
  const DegradeReport report =
      run_inject(small_inject(64, 1, {"pe=2,2@10+5"}));
  EXPECT_EQ(report.transient_restores, 1);
  EXPECT_EQ(report.spare_stats.restores, 1);
  EXPECT_EQ(report.redirected_units, 8621);
  // After the restore the spare returns to the pool.
  EXPECT_EQ(report.spare_stats.spares_in_service, 0);
  EXPECT_EQ(report.spare_stats.spares_free, 1);
  EXPECT_EQ(report.events,
            (std::vector<std::string>{"it=10 fault pe=(2,2) -> spare 0",
                                      "it=15 restore pe=(2,2)"}));
}

TEST(FiInject, RankAndWeibullFaultsAreDeterministic) {
  const DegradeOptions options =
      small_inject(96, 4, {"rank=0@20", "weibull=3"});
  const DegradeReport a = run_inject(options);
  const DegradeReport b = run_inject(options);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults_injected, 4);  // 1 rank + 3 weibull
  EXPECT_EQ(a.redirected_units, 169347);
  EXPECT_EQ(a.events, (std::vector<std::string>{
                          "weibull scheduled pe=(1,9)@88",
                          "weibull scheduled pe=(9,2)@96",
                          "weibull scheduled pe=(0,3)@82",
                          "it=20 fault rank pe=(0,7) -> spare 0",
                          "it=82 fault pe=(0,3) -> spare 1",
                          "it=88 fault pe=(1,9) -> spare 2",
                          "it=96 fault pe=(9,2) -> spare 3"}));

  DegradeOptions other = options;
  other.seed = 12345;
  const DegradeReport c = run_inject(other);
  // A different seed moves the weibull strikes (rank stays declarative).
  EXPECT_EQ(c.faults_injected, 4);
  EXPECT_EQ(c.redirected_units, 331774);
  EXPECT_EQ(c.events, (std::vector<std::string>{
                          "weibull scheduled pe=(1,11)@71",
                          "weibull scheduled pe=(3,5)@34",
                          "weibull scheduled pe=(2,9)@67",
                          "it=20 fault rank pe=(0,7) -> spare 0",
                          "it=34 fault pe=(3,5) -> spare 1",
                          "it=67 fault pe=(2,9) -> spare 2",
                          "it=71 fault pe=(1,11) -> spare 3"}));
}

// ------------------------------------- acceptance: end-to-end scenarios

std::vector<std::string> engine_payloads(svc::Engine& engine) {
  std::vector<std::string> payloads;
  for (const char* workload : {"Sqz", "Mb", "Res"}) {
    svc::Request req;
    req.op = svc::RequestOp::kSchedule;
    req.workload = workload;
    const svc::Response resp = engine.execute(req);
    EXPECT_TRUE(resp.ok) << resp.error.message;
    payloads.push_back(resp.payload_json);
  }
  // A wear request exercises the simulator path on a warm cache.
  svc::Request wear_req;
  wear_req.op = svc::RequestOp::kWear;
  wear_req.workload = "Sqz";
  wear_req.iterations = 50;
  const svc::Response resp = engine.execute(wear_req);
  EXPECT_TRUE(resp.ok) << resp.error.message;
  payloads.push_back(resp.payload_json);
  return payloads;
}

TEST(FiAcceptance, ServeBatchBitIdenticalUnderDiskFaultsWithRetries) {
  TempDir clean_dir;
  TempDir faulty_dir;

  const auto run_cold_then_warm = [](const std::string& dir) {
    std::vector<std::string> all;
    for (int round = 0; round < 2; ++round) {
      svc::EngineOptions eo;
      eo.cache.disk_dir = dir;
      eo.cache.retry.base_delay_ms = 0;
      svc::Engine engine(eo);
      const auto payloads = engine_payloads(engine);
      all.insert(all.end(), payloads.begin(), payloads.end());
    }
    return all;
  };

  const std::vector<std::string> clean = run_cold_then_warm(
      clean_dir.path.string());

  SoftwarePlan plan;
  plan.read_fail_rate = 0.1;
  plan.write_fail_rate = 0.1;
  plan.corrupt_rate = 0.3;
  plan.seed = 21;
  plan.path_match = faulty_dir.path.filename().string();
  std::vector<std::string> faulty;
  HookCounters injected;
  {
    ArmGuard guard(plan);
    faulty = run_cold_then_warm(faulty_dir.path.string());
    injected = Hooks::counters();
  }

  // Bit-identical replies, and the faults actually fired (absorbed by
  // retry or by recomputing the corrupted entry).
  EXPECT_EQ(clean, faulty);
  EXPECT_GE(injected.read_faults + injected.write_faults +
                injected.corruptions,
            1);
}

TEST(FiAcceptance, EngineShedsBeyondTheQueueBoundWithoutDropping) {
  svc::EngineOptions eo;
  eo.max_queue = 1;
  svc::Engine engine(eo);

  std::vector<std::future<svc::Response>> futures;
  for (int i = 0; i < 8; ++i) {
    svc::Request req;
    req.id = std::to_string(i);
    req.op = svc::RequestOp::kWear;
    req.workload = "Sqz";
    req.iterations = 100;
    futures.push_back(engine.submit(std::move(req)));
  }
  int answered = 0;
  int shed = 0;
  for (auto& f : futures) {
    const svc::Response resp = f.get();  // shed or answered — never lost
    ++answered;
    if (!resp.ok) {
      EXPECT_EQ(resp.error.code, ErrorCode::kOverloaded);
      ++shed;
    }
  }
  EXPECT_EQ(answered, 8);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(engine.shed_count(), shed);
}

TEST(FiAcceptance, AllocFaultsAreContainedPerRequest) {
  SoftwarePlan plan;
  plan.alloc_fail_rate = 1.0;
  ArmGuard guard(plan);
  svc::Engine engine;

  svc::Request ping;
  ping.op = svc::RequestOp::kPing;
  EXPECT_TRUE(engine.execute(ping).ok);  // control ops stay reachable

  svc::Request wear_req;
  wear_req.op = svc::RequestOp::kWear;
  wear_req.workload = "Sqz";
  wear_req.iterations = 10;
  const svc::Response resp = engine.execute(wear_req);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error.code, ErrorCode::kResourceExhausted);
}

TEST(FiAcceptance, ServeDrainsOnInterruptFlagAndReturns4) {
  svc::Engine engine;
  std::atomic<bool> interrupt{true};
  std::istringstream in(
      R"({"schema_version":2,"id":"x","op":"ping"})"
      "\n");
  std::ostringstream out;
  EXPECT_EQ(engine.serve(in, out, &interrupt), 4);
}

/// Run `rota <args>` in-process, returning {exit code, stdout}.
std::pair<int, std::string> run_cli(const std::vector<std::string>& args) {
  const cli::Options options = cli::parse(args);
  std::ostringstream out;
  const int rc = cli::run(options, out);
  return {rc, out.str()};
}

TEST(FiAcceptance, SweepInterruptAndResumeReproduceTheExactCsv) {
  TempDir dir;
  const std::string ref_csv = dir.file("ref.csv");
  const std::string resumed_csv = dir.file("resumed.csv");
  const std::string ckpt = dir.file("sweep.ckpt");

  auto [ref_rc, ref_out] =
      run_cli({"sweep", "--iters", "30", "--csv", ref_csv});
  ASSERT_EQ(ref_rc, 0);

  // Interrupt after two workload cells, exactly as a first SIGINT would.
  cli::clear_interrupt();
  cli::simulate_interrupt_after(2);
  auto [killed_rc, killed_out] = run_cli({"sweep", "--iters", "30", "--csv",
                                          resumed_csv, "--checkpoint", ckpt});
  EXPECT_EQ(killed_rc, cli::kExitInterrupted);
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  EXPECT_FALSE(std::filesystem::exists(resumed_csv));

  cli::clear_interrupt();
  auto [resumed_rc, resumed_out] = run_cli(
      {"sweep", "--iters", "30", "--csv", resumed_csv, "--checkpoint", ckpt});
  ASSERT_EQ(resumed_rc, 0);
  EXPECT_EQ(util::read_text_file(ref_csv), util::read_text_file(resumed_csv));
  // A finished run leaves no stale checkpoint behind.
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

TEST(FiAcceptance, McInterruptAndResumeAreBitIdentical) {
  TempDir dir;
  const std::string ckpt = dir.file("mc.ckpt");
  const std::vector<std::string> base_args = {"mc",       "Sqz",
                                              "--iters",  "20",
                                              "--trials", "100000"};

  auto [ref_rc, ref_out] = run_cli(base_args);
  ASSERT_EQ(ref_rc, 0);

  std::vector<std::string> ckpt_args = base_args;
  ckpt_args.insert(ckpt_args.end(), {"--checkpoint", ckpt});
  cli::clear_interrupt();
  cli::simulate_interrupt_after(1);  // one 8-chunk step, then interrupt
  auto [killed_rc, killed_out] = run_cli(ckpt_args);
  EXPECT_EQ(killed_rc, cli::kExitInterrupted);
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  cli::clear_interrupt();
  auto [resumed_rc, resumed_out] = run_cli(ckpt_args);
  ASSERT_EQ(resumed_rc, 0);
  EXPECT_EQ(ref_out, resumed_out);  // includes the hexfloat "exact:" line
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

TEST(FiAcceptance, CheckpointForDifferentWorkIsRefused) {
  TempDir dir;
  const std::string ckpt = dir.file("mc.ckpt");
  Checkpoint cp;
  cp.kind = "mc";
  cp.fingerprint = "mc|other-work";
  cp.progress = 1;
  cp.fields["sum"] = "0x0p+0";
  cp.fields["sum_sq"] = "0x0p+0";
  save_checkpoint(ckpt, cp);

  cli::clear_interrupt();
  EXPECT_THROW(run_cli({"mc", "Sqz", "--iters", "20", "--trials", "100000",
                        "--checkpoint", ckpt}),
               util::precondition_error);
}

TEST(FiAcceptance, NegativeFieldSizeIsACorruptCheckpointNotACrash) {
  TempDir dir;
  const std::string ckpt = dir.file("mc.ckpt");
  util::write_text_file(ckpt, sealed("rota-checkpoint v2\nkind mc\n"
                                     "fingerprint f\nprogress 0\n"
                                     "field sum -1\n0x1p+3\n"));
  cli::clear_interrupt();
  try {
    (void)run_cli({"mc", "Sqz", "--iters", "2", "--trials", "100",
                   "--checkpoint", ckpt});
    ADD_FAILURE() << "a corrupt checkpoint was accepted";
  } catch (const util::precondition_error& e) {  // exit 2, not 3
    EXPECT_NE(std::string(e.what()).find("corrupt checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST(FiAcceptance, EveryFlippedOrCutByteOfARecordIsDetected) {
  TempDir dir;
  // One record of each kind rota reads back, each made by its writer.
  const auto interrupted_record = [&](std::vector<std::string> args) {
    const std::string path = dir.file(args[0] + ".ckpt");
    args.insert(args.end(), {"--checkpoint", path});
    cli::clear_interrupt();
    cli::simulate_interrupt_after(1);
    EXPECT_EQ(run_cli(args).first, cli::kExitInterrupted);
    cli::clear_interrupt();
    return util::read_text_file(path);
  };
  const std::string mc = interrupted_record(
      {"mc", "Sqz", "--iters", "20", "--trials", "100000"});
  const std::string sweep = interrupted_record({"sweep", "--iters", "30"});

  DegradeOptions degrade = small_inject(64, 1, {"pe=3,4@10", "pe=6,6@30+100"});
  degrade.checkpoint_path = dir.file("degrade.ckpt");
  degrade.checkpoint_every = 16;
  (void)run_inject(degrade);
  const std::string degrade_record =
      util::read_text_file(degrade.checkpoint_path);

  const arch::AcceleratorConfig accel = arch::rota_like();
  sched::Mapper mapper(accel, sched::ObjectiveSpec{});
  const nn::Network net = nn::workload_by_abbr("Sqz");
  const auto& layer = net.layers().at(3);
  const svc::ScheduleCacheKey key = svc::ScheduleCacheKey::of(
      accel, sched::LayerShapeKey::of(layer), mapper.options(),
      mapper.objective(), mapper.array_state().digest());
  const std::string entry =
      svc::encode_cache_entry(key, mapper.schedule_layer(layer));

  const auto checkpoint_error = [](const std::string& bytes) {
    const auto decoded = decode_checkpoint(bytes);
    return decoded.ok() ? std::optional<ErrorCode>{}
                        : std::optional<ErrorCode>{decoded.error().code};
  };
  const auto entry_error = [&key](const std::string& bytes) {
    const auto decoded = svc::decode_cache_entry(bytes, key);
    return decoded.ok() ? std::optional<ErrorCode>{}
                        : std::optional<ErrorCode>{decoded.error().code};
  };
  using Decoder = std::function<std::optional<ErrorCode>(const std::string&)>;
  const std::tuple<const char*, std::string, Decoder> records[] = {
      {"schedule-cache", entry, entry_error},
      {"mc", mc, checkpoint_error},
      {"sweep", sweep, checkpoint_error},
      {"degrade", degrade_record, checkpoint_error},
  };
  for (const auto& [name, good, error_of] : records) {
    ASSERT_FALSE(error_of(good).has_value()) << name;
    std::vector<std::size_t> undetected;
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      std::string flipped = good;
      flipped[pos] = static_cast<char>(flipped[pos] ^ 0x5a);
      if (error_of(flipped) != ErrorCode::kInvalidArgument)
        undetected.push_back(pos);
    }
    EXPECT_TRUE(undetected.empty())
        << name << ": " << undetected.size() << " of " << good.size()
        << " flipped bytes decoded, first at " << undetected.front();
    std::size_t decoded_cuts = 0;
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
      if (error_of(good.substr(0, cut)) != ErrorCode::kInvalidArgument)
        ++decoded_cuts;
    }
    EXPECT_EQ(decoded_cuts, 0u) << name;
  }
}

// ---------------------------------------- static dead-PE map from faults ----

TEST(FiInject, ArrayStateFromFaultsFoldsPermanentCoordinates) {
  std::vector<HardwareFault> faults;
  faults.push_back(parse_hardware_fault("pe=3,3@1").value());
  faults.push_back(parse_hardware_fault("pe=10,2@7").value());
  faults.push_back(parse_hardware_fault("pe=3,3@9").value());  // same PE again
  const auto state = array_state_from_faults(14, 12, faults);
  ASSERT_TRUE(state.ok()) << state.error().message;
  EXPECT_EQ(state.value().dead_count(), 2);
  EXPECT_TRUE(state.value().dead(3, 3));
  EXPECT_TRUE(state.value().dead(10, 2));
  EXPECT_EQ(state.value().live_count(14, 12), 166);

  // A big enough spare pool absorbs every fault: the mapper sees an
  // intact array (spared PEs still carry their work).
  const auto spared = array_state_from_faults(14, 12, faults, 2);
  ASSERT_TRUE(spared.ok());
  EXPECT_EQ(spared.value().digest(), "live");
  // One spare covers the first fault; the second distinct PE stays dead.
  const auto one = array_state_from_faults(14, 12, faults, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().dead_count(), 1);
}

TEST(FiInject, ArrayStateFromFaultsRejectsDynamicOrOutOfRangeSpecs) {
  const std::vector<HardwareFault> ok = {
      parse_hardware_fault("pe=1,1@1").value()};
  EXPECT_FALSE(array_state_from_faults(0, 12, ok).ok());
  EXPECT_FALSE(array_state_from_faults(14, 0, ok).ok());
  EXPECT_FALSE(array_state_from_faults(14, 12, ok, -1).ok());
  // Wear-rank, weibull and transient faults depend on runtime wear state —
  // they have no static dead-PE reading.
  for (const char* spec : {"rank=0@5", "weibull=3", "pe=2,2@4+6"}) {
    const std::vector<HardwareFault> faults = {
        parse_hardware_fault(spec).value()};
    const auto state = array_state_from_faults(14, 12, faults);
    ASSERT_FALSE(state.ok()) << spec;
    EXPECT_EQ(state.error().code, ErrorCode::kInvalidArgument);
  }
  const std::vector<HardwareFault> outside = {
      parse_hardware_fault("pe=14,0@1").value()};
  EXPECT_FALSE(array_state_from_faults(14, 12, outside).ok());
}

}  // namespace
}  // namespace rota::fi
