#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "svc/jsonv.hpp"
#include "util/check.hpp"

namespace rota::obs {
namespace {

/// True when `text` is one complete JSON document under the repo's strict
/// reader (svc::JsonValue), which every emitted envelope must satisfy.
bool parses(std::string_view text) {
  return svc::JsonValue::parse(text).ok();
}

// ----------------------------------------------------------------- json ----

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_quote("x"), "\"x\"");
}

TEST(Json, NumberRendersNonFiniteAsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_TRUE(parses(json_number(0.1)));
  EXPECT_TRUE(parses(json_number(-3e-9)));
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, DisabledRegistryRecordsNothing) {
  MetricsRegistry reg;
  ASSERT_FALSE(reg.enabled());
  reg.add("c");
  reg.gauge("g", 1.0);
  reg.observe("h", 1.0);
  EXPECT_TRUE(reg.names().empty());
  EXPECT_EQ(reg.counter("c"), 0);
}

TEST(Metrics, CounterGaugeHistogramSemantics) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("c");
  reg.add("c", 41);
  reg.gauge("g", 1.5);
  reg.gauge("g", 2.5);  // last write wins
  for (int i = 1; i <= 100; ++i) reg.observe("h", static_cast<double>(i));

  EXPECT_EQ(reg.counter("c"), 42);
  EXPECT_DOUBLE_EQ(reg.gauge_value("g"), 2.5);
  const HistogramSummary h = reg.histogram("h");
  EXPECT_EQ(h.count, 100);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.p50, 50.0);  // nearest-rank
  EXPECT_DOUBLE_EQ(h.p95, 95.0);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"c", "g", "h"}));
}

TEST(Metrics, ResetDropsDataButKeepsEnabledFlag) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("c", 7);
  reg.reset();
  EXPECT_TRUE(reg.enabled());
  EXPECT_TRUE(reg.names().empty());
}

TEST(Metrics, JsonIsValidAndCarriesTypes) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("mapper.layers", 3);
  reg.gauge("rate", 12.5);
  reg.observe("seconds", 0.25);
  const std::string json = reg.json();
  EXPECT_TRUE(parses(json)) << json;
  EXPECT_NE(json.find("\"mapper.layers\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(Metrics, TableListsEveryMetric) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("hits", 9);
  reg.observe("lat", 1.0);
  const std::string table = reg.table();
  EXPECT_NE(table.find("hits"), std::string::npos);
  EXPECT_NE(table.find("lat"), std::string::npos);
}

TEST(Metrics, ScopedTimerRecordsOneSample) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  {
    ScopedTimer t("op.seconds", reg);
  }
  EXPECT_EQ(reg.histogram("op.seconds").count, 1);
  {
    ScopedTimer t("op.seconds", reg);
    t.stop();
    t.stop();  // idempotent
  }
  EXPECT_EQ(reg.histogram("op.seconds").count, 2);
}

TEST(Metrics, ScopedTimerOnDisabledRegistryIsNoOp) {
  MetricsRegistry reg;
  {
    ScopedTimer t("op.seconds", reg);
  }
  EXPECT_EQ(reg.histogram("op.seconds").count, 0);
}

TEST(Metrics, ConcurrentHammerIsDataRaceFree) {
  // Exercised under -fsanitize=thread by the tsan preset: writers mix
  // counters/gauges/histograms while a reader snapshots JSON and a toggler
  // flips the enabled bit.
  MetricsRegistry reg;
  reg.set_enabled(true);
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&reg, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        reg.add("hammer.count");
        reg.gauge("hammer.gauge", static_cast<double>(w));
        reg.observe("hammer.hist", static_cast<double>(i));
      }
    });
  }
  threads.emplace_back([&reg] {
    for (int i = 0; i < 200; ++i) {
      const std::string snapshot = reg.json();
      ASSERT_TRUE(parses(snapshot));
    }
  });
  threads.emplace_back([&reg] {
    for (int i = 0; i < 500; ++i) reg.set_enabled(i % 2 == 0);
  });
  for (auto& t : threads) t.join();
  reg.set_enabled(true);
  // The toggler makes the exact count nondeterministic; bounds still hold.
  EXPECT_GT(reg.counter("hammer.count"), 0);
  EXPECT_LE(reg.counter("hammer.count"), kWriters * kOpsPerWriter);
}

// ---------------------------------------------------------------- trace ----

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer;
  {
    TraceSpan span("s", "cat", tracer);
  }
  tracer.instant("i", "cat");
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Trace, SpansProduceValidChromeTraceJson) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan outer("outer", "test", tracer);
    {
      TraceSpan inner("inner", "test", tracer);
    }
  }
  tracer.instant("marker", "test");
  EXPECT_EQ(tracer.event_count(), 3u);

  const std::string json = tracer.json();
  EXPECT_TRUE(parses(json)) << json;
  // Perfetto essentials in the versioned object form: the schema_version
  // envelope wrapping a traceEvents array, process metadata first,
  // complete events with ts+dur, instant with a scope.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"schema_version\":" +
                      std::to_string(kSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(Trace, InnerSpanNestsInsideOuter) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan outer("outer", "test", tracer);
    {
      TraceSpan inner("inner", "test", tracer);
    }
  }
  // Events are recorded at destruction: inner first.
  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  const std::size_t inner_pos = json.find("\"inner\"");
  const std::size_t outer_pos = json.find("\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);
}

TEST(Trace, ResetDropsEventsAndWriteFileChecksErrors) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("x", "t");
  tracer.reset();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_TRUE(tracer.enabled());
  EXPECT_THROW(tracer.write_file("/nonexistent-dir/trace.json"),
               util::io_error);
}

TEST(Trace, WriteFileRoundTrips) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("x", "t");
  const std::string path = ::testing::TempDir() + "rota_obs_trace.json";
  tracer.write_file(path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(parses(buf.str()));
  std::remove(path.c_str());
}

// ------------------------------------------------------------- manifest ----

TEST(Manifest, ToJsonCarriesEveryField) {
  RunManifest m = make_run_manifest("rota", "wear Sqz --iters 10");
  m.workload = "Sqz";
  m.policy = "RWL+RO";
  m.metric = "alloc";
  m.array_width = 14;
  m.array_height = 12;
  m.iterations = 10;
  m.seed = 0x526f5441;
  m.wall_seconds = 1.25;
  m.extra["spares"] = "0";

  const std::string json = m.to_json();
  EXPECT_TRUE(parses(json)) << json;
  for (const char* key :
       {"\"tool\"", "\"command\"", "\"workload\"", "\"policy\"", "\"metric\"",
        "\"array_width\"", "\"array_height\"", "\"iterations\"", "\"seed\"",
        "\"version\"", "\"git_sha\"", "\"build_type\"", "\"timestamp_utc\"",
        "\"wall_seconds\"", "\"spares\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
  EXPECT_EQ(m.timestamp_utc.size(), 20u);
  EXPECT_EQ(m.timestamp_utc[10], 'T');
  EXPECT_EQ(m.timestamp_utc.back(), 'Z');
}

TEST(Manifest, RecordsTheHost) {
  const RunManifest m = make_run_manifest("test", "cmd");
  ASSERT_TRUE(m.extra.count("host.cores"));
  ASSERT_TRUE(m.extra.count("host.cpu_model"));
  EXPECT_EQ(m.extra.at("host.cores"),
            std::to_string(std::thread::hardware_concurrency()));
  EXPECT_FALSE(m.extra.at("host.cpu_model").empty());
}

// ----------------------------------------------------------- build info ----

TEST(BuildInfo, FieldsAreNonEmptyAndComposeTheLine) {
  EXPECT_NE(std::string(version()), "");
  EXPECT_NE(std::string(git_sha()), "");
  EXPECT_NE(std::string(build_type()), "");
  const std::string line = build_info_line();
  EXPECT_NE(line.find("rota "), std::string::npos);
  EXPECT_NE(line.find(version()), std::string::npos);
  EXPECT_NE(line.find(git_sha()), std::string::npos);
}

// ------------------------------------------------------------- progress ----

class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  [[nodiscard]] std::string str() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

TEST(Progress, SilentWhenGateClosed) {
  ProgressReporter::set_enabled(false);
  CerrCapture capture;
  {
    ProgressReporter progress("quiet", 10);
    for (int i = 0; i < 10; ++i) progress.tick();
  }
  EXPECT_EQ(capture.str(), "");
}

TEST(Progress, ReportsWhenEnabledAndTtyForced) {
  ProgressReporter::set_enabled(true);
  ProgressReporter::force_tty(true);
  CerrCapture capture;
  {
    ProgressReporter progress("wear Sqz", 4);
    for (int i = 0; i < 4; ++i) progress.tick();
  }
  ProgressReporter::force_tty(false);
  ProgressReporter::set_enabled(false);
  const std::string out = capture.str();
  EXPECT_NE(out.find("wear Sqz"), std::string::npos);
  EXPECT_NE(out.find("100%"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');  // finish() terminates the line
}

TEST(Progress, ZeroTotalNeverPrints) {
  ProgressReporter::set_enabled(true);
  ProgressReporter::force_tty(true);
  CerrCapture capture;
  {
    ProgressReporter progress("empty", 0);
    progress.tick();
  }
  ProgressReporter::force_tty(false);
  ProgressReporter::set_enabled(false);
  EXPECT_EQ(capture.str(), "");
}

TEST(Progress, OnlyTheOutermostReporterPrints) {
  ProgressReporter::set_enabled(true);
  ProgressReporter::force_tty(true);
  CerrCapture capture;
  {
    ProgressReporter outer("degrade AN", 2);
    for (int epoch = 0; epoch < 2; ++epoch) {
      ProgressReporter inner("wear epoch", 3);
      for (int i = 0; i < 3; ++i) inner.tick();
      outer.tick();
    }
  }
  {
    ProgressReporter after("after", 1);  // the outer one is gone
    after.tick();
  }
  ProgressReporter::force_tty(false);
  ProgressReporter::set_enabled(false);
  const std::string out = capture.str();
  EXPECT_NE(out.find("degrade AN"), std::string::npos);
  EXPECT_EQ(out.find("wear epoch"), std::string::npos);
  EXPECT_NE(out.find("after"), std::string::npos);
}

}  // namespace
}  // namespace rota::obs
