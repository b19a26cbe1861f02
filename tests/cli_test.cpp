#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "svc/jsonv.hpp"
#include "util/check.hpp"

namespace rota::cli {
namespace {

using util::precondition_error;

// -------------------------------------------------------------- parsing ----

TEST(CliParse, EmptyArgsMeansHelp) {
  EXPECT_EQ(parse({}).verb, Verb::kHelp);
  EXPECT_EQ(parse({"help"}).verb, Verb::kHelp);
  EXPECT_EQ(parse({"--help"}).verb, Verb::kHelp);
}

TEST(CliParse, VerbsRecognized) {
  EXPECT_EQ(parse({"workloads"}).verb, Verb::kWorkloads);
  EXPECT_EQ(parse({"area"}).verb, Verb::kArea);
  EXPECT_EQ(parse({"schedule", "Sqz"}).verb, Verb::kSchedule);
  EXPECT_EQ(parse({"wear", "Sqz"}).verb, Verb::kWear);
  EXPECT_EQ(parse({"lifetime", "Sqz"}).verb, Verb::kLifetime);
}

TEST(CliParse, UnknownVerbThrowsWithUsage) {
  // `inject` is no verb: the fail-stop baseline is `degrade --oblivious`.
  for (const std::string verb : {"frobnicate", "inject"}) {
    try {
      parse({verb, "Sqz", "--fault", "pe=1,1@10"});
      FAIL() << verb;
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown command '" + verb + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("usage"), std::string::npos);
    }
  }
}

TEST(CliParse, WorkloadRequiredForPerWorkloadVerbs) {
  EXPECT_THROW(parse({"schedule"}), precondition_error);
  EXPECT_THROW(parse({"wear", "--iters", "3"}), precondition_error);
}

TEST(CliParse, FlagsParse) {
  const Options o = parse({"wear", "YL", "--array", "20x16", "--iters", "77",
                           "--policy", "RWL", "--metric", "cycles",
                           "--pgm", "/tmp/x.pgm"});
  EXPECT_EQ(o.workload, "YL");
  EXPECT_EQ(o.array_width, 20);
  EXPECT_EQ(o.array_height, 16);
  EXPECT_EQ(o.iterations, 77);
  EXPECT_EQ(o.policy, wear::PolicyKind::kRwl);
  EXPECT_EQ(o.metric, wear::WearMetric::kActiveCycles);
  EXPECT_EQ(o.pgm_path, "/tmp/x.pgm");

  const Options l = parse({"lifetime", "Sqz", "--spares", "3"});
  EXPECT_EQ(l.spares, 3);
}

TEST(CliParse, DefaultsAreSane) {
  const Options o = parse({"lifetime", "Sqz"});
  EXPECT_EQ(o.array_width, 14);
  EXPECT_EQ(o.array_height, 12);
  EXPECT_EQ(o.iterations, 1000);
  EXPECT_EQ(o.policy, wear::PolicyKind::kRwlRo);
  EXPECT_EQ(o.metric, wear::WearMetric::kAllocations);
  EXPECT_EQ(o.threads, 1);  // serial unless --threads is given
}

TEST(CliParse, ThreadsFlag) {
  EXPECT_EQ(parse({"lifetime", "Sqz", "--threads", "4"}).threads, 4);
  // 0 = one lane per hardware thread (resolved later by par::).
  EXPECT_EQ(parse({"lifetime", "Sqz", "--threads", "0"}).threads, 0);
  EXPECT_THROW(parse({"lifetime", "Sqz", "--threads", "-2"}),
               precondition_error);
  EXPECT_THROW(parse({"lifetime", "Sqz", "--threads"}), precondition_error);
}

TEST(CliParse, BadValuesRejected) {
  EXPECT_THROW(parse({"wear", "Sqz", "--iters", "0"}), precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--iters", "abc"}), precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--array", "14"}), precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--array", "x12"}), precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--metric", "joules"}),
               precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--policy", "magic"}),
               precondition_error);
  EXPECT_THROW(parse({"lifetime", "Sqz", "--spares", "-1"}),
               precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--iters"}), precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--nope"}), precondition_error);
}

TEST(CliParse, NumbersAreReadWholeAndInRange) {
  // Each used to be clamped or half-read; now each is a usage error
  // (exit 2) that names its flag.
  const std::vector<std::vector<std::string>> rejected = {
      {"wear", "Sqz", "--iters", "99999999999999999999"},
      {"mc", "Sqz", "--trials", "99999999999999999999"},
      {"wear", "Sqz", "--seed", "99999999999999999999999"},
      {"wear", "Sqz", "--array", "99999999999999999999x12"},
      {"wear", "Sqz", "--seed", "010"},  // octal 8 before
      {"wear", "Sqz", "--seed", "+5"},
      {"wear", "Sqz", "--seed", " 5"},
      {"wear", "Sqz", "--iters", "+5"},
      {"wear", "Sqz", "--iters", " 5"},
      {"wear", "Sqz", "--array", "+14x12"},
      {"wear", "Sqz", "--array", "14x 12"},
      {"degrade", "AN", "--retire", "+0.5"},
      {"degrade", "AN", "--retire", " 0.5"},
  };
  for (const auto& args : rejected) {
    const std::string& flag = args[2];
    try {
      (void)parse(args);
      ADD_FAILURE() << flag << " '" << args[3] << "' was accepted";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parse({"wear", "Sqz", "--seed", "0x526f5441"}).seed, 0x526f5441u);
  EXPECT_EQ(parse({"wear", "Sqz", "--seed", "0"}).seed, 0u);
  EXPECT_EQ(parse({"wear", "Sqz", "--seed", "18446744073709551615"}).seed,
            18446744073709551615ULL);
  EXPECT_EQ(parse({"wear", "Sqz", "--iters", "9223372036854775807"}).iterations,
            9223372036854775807LL);
}

TEST(CliParse, OptionsAreSubcommandScoped) {
  // A flag that exists but belongs to a different verb is rejected with a
  // message naming the verb, not silently ignored.
  try {
    parse({"lifetime", "Sqz", "--policy", "RWL"});
    FAIL() << "lifetime must reject --policy (it compares all schemes)";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("not accepted by 'rota lifetime'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse({"schedule", "Sqz", "--iters", "5"}),
               precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--csv", "/tmp/x.csv"}),
               precondition_error);
  EXPECT_THROW(parse({"area", "--iters", "5"}), precondition_error);
  EXPECT_THROW(parse({"workloads", "--array", "8x8"}), precondition_error);
  EXPECT_THROW(parse({"serve", "--policy", "RWL"}), precondition_error);
  EXPECT_THROW(parse({"version", "--stats-out", "/tmp/m.json"}),
               precondition_error);

  // A flag that exists nowhere gets the "unknown option for" wording;
  // --metrics is gone (--stats-out writes the one metrics envelope).
  for (const std::string flag : {"--frobnicate", "--metrics"}) {
    try {
      parse({"wear", "Sqz", flag, "x"});
      FAIL() << "unknown option " << flag << " must be rejected";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown option '" + flag +
                                           "' for 'rota wear'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliParse, FaultToolingVerbsRecognized) {
  EXPECT_EQ(parse({"degrade", "Sqz", "--fault", "pe=1,1@10"}).verb,
            Verb::kDegrade);
  EXPECT_EQ(parse({"sweep"}).verb, Verb::kSweep);
  EXPECT_EQ(parse({"mc", "Sqz"}).verb, Verb::kMc);
}

TEST(CliParse, DegradeFlagsAndDefaults) {
  const Options o = parse({"degrade", "Sqz", "--fault", "pe=1,1@10",
                           "--fault", "rank=0@500", "--seed", "7"});
  EXPECT_EQ(o.verb, Verb::kDegrade);
  EXPECT_EQ(o.workload, "Sqz");
  ASSERT_EQ(o.faults.size(), 2u);
  EXPECT_EQ(o.faults[0], "pe=1,1@10");
  EXPECT_EQ(o.faults[1], "rank=0@500");
  // degrade defaults to a small spare pool and a 512-iteration horizon;
  // lifetime keeps zero spares.
  EXPECT_EQ(o.spares, 4);
  EXPECT_EQ(o.iterations, 512);
  EXPECT_FALSE(o.oblivious);
  EXPECT_EQ(parse({"lifetime", "Sqz"}).spares, 0);
  EXPECT_EQ(parse({"degrade", "Sqz", "--spares", "0"}).spares, 0);
  EXPECT_TRUE(parse({"degrade", "Sqz", "--oblivious"}).oblivious);
  // degrade is per-workload: the abbreviation is mandatory.
  EXPECT_THROW(parse({"degrade"}), precondition_error);
}

TEST(CliParse, SweepAndMcFlags) {
  const Options s = parse({"sweep", "--checkpoint", "/tmp/s.ckpt", "--csv",
                           "/tmp/s.csv", "--iters", "200"});
  EXPECT_EQ(s.checkpoint_path, "/tmp/s.ckpt");
  EXPECT_EQ(s.csv_out_path, "/tmp/s.csv");
  EXPECT_EQ(s.iterations, 200);

  const Options m = parse({"mc", "Sqz", "--trials", "5000", "--checkpoint",
                           "/tmp/m.ckpt"});
  EXPECT_EQ(m.trials, 5000);
  EXPECT_EQ(m.checkpoint_path, "/tmp/m.ckpt");
  EXPECT_EQ(parse({"mc", "Sqz"}).trials, 100000);

  EXPECT_THROW(parse({"mc", "Sqz", "--trials", "0"}), precondition_error);
  EXPECT_THROW(parse({"sweep", "--checkpoint", ""}), precondition_error);
}

TEST(CliParse, FaultFlagsAreSubcommandScoped) {
  // --fault belongs to degrade, --trials to mc, --queue-cap to serve.
  EXPECT_THROW(parse({"wear", "Sqz", "--fault", "pe=1,1@10"}),
               precondition_error);
  EXPECT_THROW(parse({"sweep", "--trials", "100"}), precondition_error);
  EXPECT_THROW(parse({"degrade", "Sqz", "--queue-cap", "4"}),
               precondition_error);
  EXPECT_THROW(parse({"sweep", "--fault", "pe=1,1@10"}), precondition_error);
  EXPECT_EQ(parse({"serve", "--queue-cap", "8"}).queue_cap, 8);
  EXPECT_THROW(parse({"serve", "--queue-cap", "-1"}), precondition_error);
}

TEST(CliRun, UsageMentionsFaultTooling) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"help"}), out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("degrade"), std::string::npos);
  EXPECT_NE(text.find("--oblivious"), std::string::npos);
  EXPECT_NE(text.find("sweep"), std::string::npos);
  EXPECT_NE(text.find("--checkpoint"), std::string::npos);
  EXPECT_NE(text.find("SIGINT"), std::string::npos);
}

TEST(CliRun, DegradeRequiresAtLeastOneFault) {
  std::ostringstream out;
  EXPECT_THROW(run(parse({"degrade", "Sqz"}), out), precondition_error);
  EXPECT_THROW(run(parse({"degrade", "Sqz", "--oblivious"}), out),
               precondition_error);
}

TEST(CliRun, DegradeObliviousReportsRemappingAndDegradedMttf) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"degrade", "Sqz", "--array", "8x8", "--iters", "50",
                       "--fault", "pe=1,1@10", "--fault", "rank=0@25",
                       "--oblivious"}),
                out),
            0);
  const std::string text = out.str();
  EXPECT_NE(text.find("faults injected"), std::string::npos);
  EXPECT_NE(text.find("redirected units"), std::string::npos);
  EXPECT_NE(text.find("mode oblivious"), std::string::npos);
  EXPECT_NE(text.find("MTTF, fault-free profile:"), std::string::npos);
  EXPECT_NE(text.find("residual (tolerance 2):"), std::string::npos);
}

TEST(CliParse, ServeVerbAndFlags) {
  const Options o = parse({"serve", "--threads", "2", "--cache-dir",
                           "/tmp/rsc", "--cache-cap", "128", "--batch",
                           "16"});
  EXPECT_EQ(o.verb, Verb::kServe);
  EXPECT_EQ(o.threads, 2);
  EXPECT_EQ(o.cache_dir, "/tmp/rsc");
  EXPECT_EQ(o.cache_capacity, 128);
  EXPECT_EQ(o.max_batch, 16);
  EXPECT_THROW(parse({"serve", "--cache-cap", "0"}), precondition_error);
  EXPECT_THROW(parse({"serve", "--batch", "-1"}), precondition_error);
}

TEST(CliParse, PolicyNamesRoundTrip) {
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
        wear::PolicyKind::kRwlRo, wear::PolicyKind::kRandomStart,
        wear::PolicyKind::kDiagonalStride}) {
    EXPECT_EQ(parse_policy(wear::to_string(kind)), kind);
  }
}

TEST(CliParse, GeometryParser) {
  std::int64_t w = 0;
  std::int64_t h = 0;
  parse_geometry("32x24", w, h);
  EXPECT_EQ(w, 32);
  EXPECT_EQ(h, 24);
  EXPECT_THROW(parse_geometry("32", w, h), precondition_error);
  EXPECT_THROW(parse_geometry("0x4", w, h), precondition_error);
}

// ------------------------------------------------------------- commands ----

TEST(CliRun, HelpPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({}), out), 0);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
}

TEST(CliRun, WorkloadsListsAllNine) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"workloads"}), out), 0);
  for (const char* abbr : {"Res", "Inc", "YL", "Sqz", "Mb", "Eff", "VT",
                           "MVT", "LM"}) {
    EXPECT_NE(out.str().find(abbr), std::string::npos) << abbr;
  }
}

TEST(CliRun, ScheduleShowsSpacesAndUtil) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"schedule", "Sqz"}), out), 0);
  EXPECT_NE(out.str().find("fire2_squeeze1x1"), std::string::npos);
  EXPECT_NE(out.str().find("mean utilization"), std::string::npos);
}

TEST(CliRun, WearPrintsStatsAndHeatmap) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"wear", "Sqz", "--iters", "5"}), out), 0);
  EXPECT_NE(out.str().find("D_max"), std::string::npos);
  EXPECT_NE(out.str().find("scale:"), std::string::npos);
}

TEST(CliRun, LifetimeComparesSchemes) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"lifetime", "Sqz", "--iters", "20"}), out), 0);
  EXPECT_NE(out.str().find("Baseline"), std::string::npos);
  EXPECT_NE(out.str().find("RWL+RO"), std::string::npos);
}

TEST(CliRun, LifetimeWithSpares) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"lifetime", "Sqz", "--iters", "20", "--spares", "2"}),
                out),
            0);
  EXPECT_NE(out.str().find("spare"), std::string::npos);
}

TEST(CliRun, LifetimeRejectsMoreSparesThanActivePes) {
  // The Baseline profile leaves some PEs idle; a pool that covers every
  // active PE is operator error (exit 2), not an internal invariant.
  std::ostringstream out;
  EXPECT_THROW(run(parse({"lifetime", "Sqz", "--spares", "140"}), out),
               precondition_error);
}

TEST(CliRun, ThermalReportsBothGains) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"thermal", "Sqz", "--iters", "20"}), out), 0);
  EXPECT_NE(out.str().find("peak"), std::string::npos);
  EXPECT_NE(out.str().find("thermally coupled"), std::string::npos);
}

TEST(CliParse, ThermalNeedsWorkload) {
  EXPECT_THROW(parse({"thermal"}), precondition_error);
}

TEST(CliRun, AreaReportsOverhead) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"area"}), out), 0);
  EXPECT_NE(out.str().find("overhead"), std::string::npos);
}

TEST(CliRun, ScheduleCsvExportRoundTrips) {
  const std::string path = ::testing::TempDir() + "/rota_cli_sched.csv";
  std::ostringstream out;
  EXPECT_EQ(run(parse({"schedule", "Sqz", "--csv", path}), out), 0);
  EXPECT_NE(out.str().find("wrote"), std::string::npos);

  // Feed the exported schedule back through `wear --schedule`.
  std::ostringstream wear_out;
  EXPECT_EQ(run(parse({"wear", "--schedule", path, "--iters", "3"}),
                wear_out),
            0);
  EXPECT_NE(wear_out.str().find("imported schedule"), std::string::npos);
  EXPECT_NE(wear_out.str().find("D_max"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliParse, WearAcceptsScheduleInsteadOfWorkload) {
  const Options o = parse({"wear", "--schedule", "/tmp/s.csv"});
  EXPECT_EQ(o.verb, Verb::kWear);
  EXPECT_TRUE(o.workload.empty());
  EXPECT_EQ(o.schedule_path, "/tmp/s.csv");
  // schedule/lifetime still require a workload.
  EXPECT_THROW(parse({"schedule", "--csv", "/tmp/x.csv"}),
               precondition_error);
}

TEST(CliRun, WearMissingScheduleFileErrors) {
  std::ostringstream out;
  EXPECT_THROW(
      run(parse({"wear", "--schedule", "/nonexistent/nope.csv"}), out),
      precondition_error);
}

TEST(CliRun, UnknownWorkloadSurfacesAsPreconditionError) {
  std::ostringstream out;
  EXPECT_THROW(run(parse({"schedule", "Zzz"}), out), precondition_error);
}

TEST(CliRun, CustomArrayPropagates) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"wear", "Sqz", "--iters", "3", "--array", "8x8"}),
                out),
            0);
  // The 8×8 heatmap has 8 rows of 8 cells + scale line; the 14-wide one
  // would have longer lines. Just check it ran and produced a heatmap.
  EXPECT_NE(out.str().find("scale:"), std::string::npos);
}

TEST(CliRun, ServeAnswersJsonLinesOnStdout) {
  std::istringstream in(
      "{\"schema_version\":2,\"id\":\"q1\",\"op\":\"ping\"}\n"
      "garbage line\n"
      "{\"schema_version\":2,\"id\":\"q2\",\"op\":\"wear\","
      "\"workload\":\"Sqz\",\"array\":\"8x8\",\"iters\":5}\n"
      "{\"schema_version\":2,\"id\":\"q3\",\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  EXPECT_EQ(run(parse({"serve", "--threads", "2"}), in, out), 0);
  std::vector<std::string> lines;
  std::string line;
  std::istringstream replies(out.str());
  while (std::getline(replies, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // one reply per line, input order
  EXPECT_NE(lines[0].find("\"id\":\"q1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("invalid_argument"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":\"q2\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"d_max\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"stopping\":true"), std::string::npos);
  for (const std::string& reply : lines) {
    EXPECT_EQ(reply.rfind("{\"schema_version\":2,", 0), 0u) << reply;
  }
}

TEST(CliRun, ServeGetsEmptyInputFromLegacyOverload) {
  // The two-argument run() hands serve an empty stream: it must come back
  // immediately with exit code 0 and no replies.
  std::ostringstream out;
  EXPECT_EQ(run(parse({"serve"}), out), 0);
  EXPECT_TRUE(out.str().empty());
}

// -------------------------------------------------------- observability ----

TEST(CliParse, ObservabilityFlagsParse) {
  const Options o = parse({"wear", "Sqz", "--stats-out", "/tmp/m.json",
                           "--trace", "/tmp/t.json", "--progress", "-v",
                           "--seed", "42"});
  EXPECT_EQ(o.stats_out_path, "/tmp/m.json");
  EXPECT_EQ(o.trace_path, "/tmp/t.json");
  EXPECT_TRUE(o.progress);
  EXPECT_TRUE(o.verbose);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_NE(o.raw_args.find("--stats-out"), std::string::npos);
}

TEST(CliParse, ObservabilityDefaultsOff) {
  const Options o = parse({"wear", "Sqz"});
  EXPECT_TRUE(o.stats_out_path.empty());
  EXPECT_TRUE(o.trace_path.empty());
  EXPECT_FALSE(o.progress);
  EXPECT_FALSE(o.verbose);
  EXPECT_EQ(o.mc_trials, 0);
}

TEST(CliParse, VersionVerbForms) {
  EXPECT_EQ(parse({"version"}).verb, Verb::kVersion);
  EXPECT_EQ(parse({"--version"}).verb, Verb::kVersion);
  EXPECT_EQ(parse({"-V"}).verb, Verb::kVersion);
}

TEST(CliParse, BadObservabilityValuesRejected) {
  EXPECT_THROW(parse({"wear", "Sqz", "--seed", "abc"}), precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--seed", "-5"}), precondition_error);
  EXPECT_THROW(parse({"wear", "Sqz", "--stats-out"}), precondition_error);
  EXPECT_THROW(parse({"lifetime", "Sqz", "--mc", "-1"}), precondition_error);
}

TEST(CliRun, VersionPrintsBuildIdentity) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"version"}), out), 0);
  EXPECT_NE(out.str().find("rota "), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CliRun, MetricsAndTraceSinksWriteValidJson) {
  const std::string stats_path = ::testing::TempDir() + "rota_cli_m.json";
  const std::string om_path = ::testing::TempDir() + "rota_cli_m.om";
  const std::string trace_path = ::testing::TempDir() + "rota_cli_t.json";
  std::ostringstream out;
  EXPECT_EQ(run(parse({"wear", "Sqz", "--iters", "5", "--threads", "0",
                       "--stats-out", stats_path, "--trace", trace_path}),
                out),
            0);
  EXPECT_NE(out.str().find("wrote stats " + stats_path), std::string::npos);

  const std::string stats = slurp(stats_path);
  auto doc = svc::JsonValue::parse(stats);
  ASSERT_TRUE(doc.ok()) << doc.error().message << "\n" << stats;
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.value().members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema_version", "kind", "seq",
                                            "uptime_seconds", "manifest",
                                            "metrics"}));
  const svc::JsonValue* manifest = doc.value().find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->find("tool")->str(), "rota");
  EXPECT_EQ(manifest->find("workload")->str(), "Sqz");
  EXPECT_FALSE(manifest->find("git_sha")->str().empty());
  EXPECT_EQ(manifest->find("seed")->as_uint64().value(), 0x526f5441u);
  EXPECT_GT(manifest->find("wall_seconds")->number(), 0.0);
  // Uptime counts from process start, so it covers the whole run even in
  // exit-only mode (no --stats-interval).
  EXPECT_GE(doc.value().find("uptime_seconds")->number(),
            manifest->find("wall_seconds")->number());
  // The effective lane count: --threads 0 resolves to one lane per
  // hardware thread, and the manifest records the resolved number.
  const svc::JsonValue* threads = manifest->find("extra")->find("threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->str(), std::to_string(par::resolve_threads(0)));
  EXPECT_NE(doc.value().find("metrics")->find("wear.iterations"), nullptr);

  const std::string trace = slurp(trace_path);
  auto trace_doc = svc::JsonValue::parse(trace);
  ASSERT_TRUE(trace_doc.ok()) << trace_doc.error().message << "\n" << trace;
  EXPECT_NE(trace_doc.value().find("schema_version"), nullptr);
  ASSERT_NE(trace_doc.value().find("traceEvents"), nullptr);
  EXPECT_TRUE(trace_doc.value().find("traceEvents")->is_array());
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  std::remove(stats_path.c_str());
  std::remove(om_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliRun, ParetoJsonCarriesTheCliManifest) {
  const std::string json_path = ::testing::TempDir() + "rota_cli_p.json";
  std::ostringstream out;
  EXPECT_EQ(run(parse({"pareto", "Sqz", "--threads", "0", "--objective",
                       "lifetime", "--json", json_path}),
                out),
            0);
  const std::string text = slurp(json_path);
  auto doc = svc::JsonValue::parse(text);
  ASSERT_TRUE(doc.ok()) << doc.error().message << "\n" << text;
  const svc::JsonValue* manifest = doc.value().find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->find("tool")->str(), "rota");
  EXPECT_EQ(manifest->find("workload")->str(), "Sqz");
  const svc::JsonValue* extra = manifest->find("extra");
  ASSERT_NE(extra, nullptr);
  // The same stamp as --stats-out: the resolved lane count included.
  ASSERT_NE(extra->find("threads"), nullptr);
  EXPECT_EQ(extra->find("threads")->str(),
            std::to_string(par::resolve_threads(0)));
  EXPECT_EQ(extra->find("objective.id")->str(), "lifetime");
  EXPECT_EQ(extra->find("array_state.digest")->str(), "live");
  EXPECT_EQ(doc.value().find("pareto")->find("array_state")->str(), "live");
  std::remove(json_path.c_str());
}

TEST(CliRun, MetricsSinkOffLeavesGlobalsDisabled) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"wear", "Sqz", "--iters", "3"}), out), 0);
  EXPECT_FALSE(obs::MetricsRegistry::global().enabled());
  EXPECT_FALSE(obs::Tracer::global().enabled());
}

TEST(CliRun, VerbosePrintsMetricsTable) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"wear", "Sqz", "--iters", "3", "-v"}), out), 0);
  EXPECT_NE(out.str().find("wear.iterations"), std::string::npos);
  EXPECT_FALSE(obs::MetricsRegistry::global().enabled());  // scope closed
}

TEST(CliRun, UnwritableMetricsPathReportsIoError) {
  std::ostringstream out;
  const int rc = run(parse({"wear", "Sqz", "--iters", "3", "--stats-out",
                            "/nonexistent-dir/m.json"}),
                     out);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(out.str().find("error"), std::string::npos);
}

TEST(CliRun, LifetimeMonteCarloCrossCheck) {
  std::ostringstream out;
  EXPECT_EQ(run(parse({"lifetime", "Sqz", "--iters", "10", "--mc", "200"}),
                out),
            0);
  EXPECT_NE(out.str().find("Monte-Carlo"), std::string::npos);
}

}  // namespace
}  // namespace rota::cli
