#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "svc/jsonv.hpp"
#include "util/check.hpp"
#include "util/io.hpp"

/// Live-telemetry tests: metrics snapshots (JSON + OpenMetrics twins,
/// publisher thread, crash-safe writes under injected faults) and the
/// structured EventLog (ring, JSON lines, rotation, progress heartbeat).

namespace rota::obs {
namespace {

struct TempDir {
  std::filesystem::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("rota_obs_live_test_" + std::to_string(::getpid()) + "_" +
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

/// The global EventLog bleeds across tests unless restored.
struct EventLogGuard {
  EventLogGuard() {
    EventLog::global().reset();
    EventLog::global().set_enabled(true);
  }
  ~EventLogGuard() {
    EventLog::global().set_echo_stderr(false);
    EventLog::global().reset();
    EventLog::global().set_enabled(false);
  }
};

struct IoHookGuard {
  ~IoHookGuard() { util::set_io_fault_hook({}); }
};

// ------------------------------------------------------------- histograms

TEST(MetricsExport, HistogramSummaryIncludesP99) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  for (int i = 1; i <= 100; ++i) reg.observe("lat", static_cast<double>(i));
  const MetricsExport ex = reg.export_all();
  const auto it = ex.histograms.find("lat");
  ASSERT_NE(it, ex.histograms.end());
  EXPECT_EQ(it->second.count, 100);
  EXPECT_DOUBLE_EQ(it->second.p50, 50.0);
  EXPECT_DOUBLE_EQ(it->second.p95, 95.0);
  EXPECT_DOUBLE_EQ(it->second.p99, 99.0);
  EXPECT_NE(reg.json().find("\"p99\":"), std::string::npos);
}

// -------------------------------------------------------------- snapshots

TEST(Snapshot, JsonEnvelopeCarriesSchemaVersionAndSeq) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("fi.injected_faults", 7);
  const MetricsSnapshot snap = capture_snapshot(reg, 42);
  const std::string json = snapshot_json(snap);
  EXPECT_NE(json.find("\"schema_version\":" + std::to_string(kSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"metrics_snapshot\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":42"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"fi.injected_faults\":{\"type\":\"counter\","
                      "\"value\":7}"),
            std::string::npos);
}

TEST(Snapshot, JsonEnvelopeCarriesTheRunManifest) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("n", 5);
  MetricsSnapshot snap = capture_snapshot(reg, 3);
  snap.manifest = make_run_manifest("test", "cmd");
  snap.manifest->wall_seconds = 1.5;
  const std::string json = snapshot_json(snap);
  auto doc = svc::JsonValue::parse(json);
  ASSERT_TRUE(doc.ok()) << doc.error().message << "\n" << json;
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.value().members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema_version", "kind", "seq",
                                            "uptime_seconds", "manifest",
                                            "metrics"}));
  EXPECT_EQ(doc.value().find("schema_version")->as_int64().value(),
            kSchemaVersion);
  // The manifest rides along verbatim as RunManifest::to_json().
  EXPECT_NE(json.find("\"manifest\":" + snap.manifest->to_json() + ","),
            std::string::npos);
  const svc::JsonValue* manifest = doc.value().find("manifest");
  EXPECT_EQ(manifest->find("tool")->str(), "test");
  EXPECT_DOUBLE_EQ(manifest->find("wall_seconds")->number(), 1.5);
  const svc::JsonValue* n = doc.value().find("metrics")->find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->find("value")->as_int64().value(), 5);
  // Without a manifest (the svc stats reply) the field is left out.
  snap.manifest.reset();
  EXPECT_EQ(snapshot_json(snap).find("\"manifest\""), std::string::npos);
}

TEST(Snapshot, OpenMetricsNameManglesToCharset) {
  EXPECT_EQ(openmetrics_name("svc.queue_wait_ms"), "rota_svc_queue_wait_ms");
  EXPECT_EQ(openmetrics_name("cache.l1-hit"), "rota_cache_l1_hit");
  EXPECT_EQ(openmetrics_name("plain"), "rota_plain");
}

TEST(Snapshot, OpenMetricsRenderingAgreesWithJsonTwin) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("svc.requests_shed", 3);
  reg.gauge("svc.queue_depth", 5.0);
  for (int i = 1; i <= 4; ++i) reg.observe("svc.compute_ms", i * 1.5);
  const MetricsSnapshot snap = capture_snapshot(reg, 9);
  const std::string om = snapshot_openmetrics(snap);

  EXPECT_NE(om.find("# TYPE rota_snapshot_schema_version gauge\n"
                    "rota_snapshot_schema_version " +
                    std::to_string(kSchemaVersion) + "\n"),
            std::string::npos);
  EXPECT_NE(om.find("rota_snapshot_seq 9\n"), std::string::npos);
  EXPECT_NE(om.find("# TYPE rota_svc_requests_shed counter\n"
                    "rota_svc_requests_shed_total 3\n"),
            std::string::npos);
  EXPECT_NE(om.find("# TYPE rota_svc_queue_depth gauge\n"
                    "rota_svc_queue_depth 5\n"),
            std::string::npos);
  EXPECT_NE(om.find("# TYPE rota_svc_compute_ms summary\n"),
            std::string::npos);
  EXPECT_NE(om.find("rota_svc_compute_ms{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(om.find("rota_svc_compute_ms_count 4\n"), std::string::npos);
  // Spec: the exposition ends with exactly one EOF marker.
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.substr(om.size() - 6), "# EOF\n");
  EXPECT_EQ(om.find("# EOF"), om.size() - 6);
}

// -------------------------------------------------------------- publisher

TEST(SnapshotPublisher, ExitOnlyModePublishesFinalSnapshotOnStop) {
  TempDir dir;
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("work.done", 1);
  SnapshotPublisher::Options opt;
  opt.json_file = dir.file("stats.json");
  opt.openmetrics_file = dir.file("stats.om");
  opt.manifest = make_run_manifest("test", "cmd");
  SnapshotPublisher pub(opt, reg);
  // start() never called: stop() must still leave the exit state on disk.
  pub.stop();
  EXPECT_EQ(pub.published(), 1u);
  EXPECT_TRUE(std::filesystem::exists(opt.json_file));
  EXPECT_TRUE(std::filesystem::exists(opt.openmetrics_file));
  // Idempotent: a second stop (and the destructor) publishes nothing new.
  pub.stop();
  EXPECT_EQ(pub.published(), 1u);
  const std::string json = util::read_text_file(opt.json_file);
  EXPECT_NE(json.find("\"work.done\""), std::string::npos);
  // The publisher stamps the manifest with the time since construction.
  auto doc = svc::JsonValue::parse(json);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const svc::JsonValue* manifest = doc.value().find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->find("tool")->str(), "test");
  EXPECT_GE(manifest->find("wall_seconds")->number(), 0.0);
}

TEST(SnapshotPublisher, SamplerThreadPublishesPeriodicallyAndJoins) {
  TempDir dir;
  MetricsRegistry reg;
  reg.set_enabled(true);
  SnapshotPublisher::Options opt;
  opt.json_file = dir.file("stats.json");
  opt.openmetrics_file = dir.file("stats.om");
  opt.interval = std::chrono::milliseconds(5);
  SnapshotPublisher pub(opt, reg);
  pub.start();
  // Generous bound: wait until at least two periodic publishes landed.
  for (int i = 0; i < 400 && pub.published() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pub.stop();
  const std::uint64_t total = pub.published();
  EXPECT_GE(total, 3u);  // >= 2 periodic + 1 final
  // Snapshot seqs are monotonic; the last file on disk is the final one.
  const std::string json = util::read_text_file(opt.json_file);
  EXPECT_NE(json.find("\"seq\":" + std::to_string(total)),
            std::string::npos);
  // Joined: no further publishes after stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(pub.published(), total);
}

TEST(SnapshotPublisher, RetriesTransientWriteFaults) {
  TempDir dir;
  IoHookGuard hook_guard;
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add("work.done", 5);
  std::atomic<int> faults_left{2};
  util::set_io_fault_hook(
      [&](util::IoOp op, const std::string& path, std::string*) {
        if (op != util::IoOp::kWrite) return;
        if (path.find("stats") == std::string::npos) return;
        if (faults_left.fetch_sub(1) > 0)
          throw util::io_error("injected write fault: " + path);
        faults_left.store(0);
      });
  SnapshotPublisher::Options opt;
  opt.json_file = dir.file("stats.json");
  opt.openmetrics_file = dir.file("stats.om");
  opt.retry.max_attempts = 5;
  opt.retry.base_delay_ms = 0;
  SnapshotPublisher pub(opt, reg);
  EXPECT_TRUE(pub.publish_now());
  EXPECT_EQ(pub.failed(), 0u);
  // The faults were absorbed by retry_io and counted in the registry.
  const MetricsExport ex = reg.export_all();
  const auto retries = ex.counters.find("obs.snapshot.retries");
  ASSERT_NE(retries, ex.counters.end());
  EXPECT_GE(retries->second, 2);
  // The committed file is complete despite the faulted attempts.
  const std::string json = util::read_text_file(opt.json_file);
  EXPECT_NE(json.find("\"work.done\":{\"type\":\"counter\",\"value\":5}"),
            std::string::npos);
}

TEST(SnapshotPublisher, ExhaustedRetriesCountAsFailureNotThrow) {
  TempDir dir;
  IoHookGuard hook_guard;
  EventLogGuard events;
  MetricsRegistry reg;
  reg.set_enabled(true);
  util::set_io_fault_hook(
      [&](util::IoOp op, const std::string& path, std::string*) {
        if (op == util::IoOp::kWrite &&
            path.find("stats") != std::string::npos)
          throw util::io_error("injected write fault: " + path);
      });
  SnapshotPublisher::Options opt;
  opt.json_file = dir.file("stats.json");
  opt.openmetrics_file = dir.file("stats.om");
  opt.retry.max_attempts = 2;
  opt.retry.base_delay_ms = 0;
  SnapshotPublisher pub(opt, reg);
  EXPECT_FALSE(pub.publish_now());
  EXPECT_EQ(pub.failed(), 1u);
  EXPECT_EQ(pub.published(), 0u);
  // The failure is observable: a counter and a warn event, no exception.
  const MetricsExport ex = reg.export_all();
  const auto failures = ex.counters.find("obs.snapshot.failures");
  ASSERT_NE(failures, ex.counters.end());
  EXPECT_EQ(failures->second, 1);
  bool warned = false;
  for (const Event& ev : EventLog::global().recent())
    if (ev.severity == Severity::kWarn && ev.component == "obs" &&
        ev.message.find("snapshot publish failed") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned);
}

// -------------------------------------------------------------- event log

TEST(EventLogTest, RingKeepsEventsInOrderWithMonotonicSeq) {
  EventLogGuard guard;
  log_event(Severity::kInfo, "svc", "request shed", 17, "client-3");
  log_event(Severity::kWarn, "fi", "fault injected");
  const std::vector<Event> events = EventLog::global().recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq + 1, events[1].seq);
  EXPECT_EQ(events[0].component, "svc");
  EXPECT_EQ(events[0].request_seq, 17u);
  EXPECT_EQ(events[0].request_id, "client-3");
  EXPECT_EQ(events[1].severity, Severity::kWarn);
  EXPECT_EQ(events[1].request_seq, 0u);
}

TEST(EventLogTest, JsonLineShape) {
  Event ev;
  ev.seq = 5;
  ev.t_s = 0.25;
  ev.severity = Severity::kWarn;
  ev.component = "svc";
  ev.message = "queue \"full\"";
  const std::string bare = to_json_line(ev);
  EXPECT_EQ(bare.find("{\"schema_version\":"), 0u);
  EXPECT_NE(bare.find("\"seq\":5"), std::string::npos);
  EXPECT_NE(bare.find("\"severity\":\"warn\""), std::string::npos);
  EXPECT_NE(bare.find("\"message\":\"queue \\\"full\\\"\""),
            std::string::npos);
  // Request tags appear only when scoped.
  EXPECT_EQ(bare.find("request_seq"), std::string::npos);
  ev.request_seq = 9;
  ev.request_id = "abc";
  const std::string scoped = to_json_line(ev);
  EXPECT_NE(scoped.find("\"request_seq\":9"), std::string::npos);
  EXPECT_NE(scoped.find("\"request_id\":\"abc\""), std::string::npos);
}

TEST(EventLogTest, FileSinkRotatesAtSizeThreshold) {
  TempDir dir;
  EventLogGuard guard;
  const std::string path = dir.file("events.jsonl");
  EventLog::global().set_sink(path, /*rotate_bytes=*/512);
  for (int i = 0; i < 32; ++i)
    log_event(Severity::kInfo, "cli",
              "padding message to force a rotation " + std::to_string(i));
  EXPECT_GE(EventLog::global().rotations(), 1u);
  EXPECT_EQ(EventLog::global().sink_errors(), 0u);
  ASSERT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(std::filesystem::exists(path + ".1"));
  // Every line in both generations is one JSON object.
  for (const std::string& p : {path, path + ".1"}) {
    const std::string text = util::read_text_file(p);
    ASSERT_FALSE(text.empty());
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      ASSERT_NE(end, std::string::npos) << "unterminated line in " << p;
      const std::string line = text.substr(start, end - start);
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
      start = end + 1;
    }
  }
}

TEST(EventLogTest, DisabledLogIsANoop) {
  EventLog::global().set_enabled(false);
  const std::uint64_t before = EventLog::global().total_logged();
  log_event(Severity::kError, "svc", "must not be recorded");
  EXPECT_EQ(EventLog::global().total_logged(), before);
}

// -------------------------------------------------------------- heartbeat

TEST(ProgressHeartbeat, LogsEtaAndCheckpointAgeThroughEventLog) {
  if (::isatty(STDERR_FILENO) != 0)
    GTEST_SKIP() << "heartbeat mode requires a non-TTY stderr";
  EventLogGuard guard;
  ProgressReporter::set_heartbeat_interval_ms(1);
  {
    ProgressReporter progress("hb-test", 100);
    for (int i = 0; i < 10; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      progress.note_checkpoint();
      progress.tick(10);
    }
    progress.finish();
  }
  ProgressReporter::set_heartbeat_interval_ms(5000);
  bool saw_progress = false;
  bool saw_checkpoint_age = false;
  bool saw_done = false;
  for (const Event& ev : EventLog::global().recent()) {
    if (ev.component != "obs") continue;
    if (ev.message.find("hb-test") == std::string::npos) continue;
    saw_progress = true;
    if (ev.message.find("last checkpoint") != std::string::npos)
      saw_checkpoint_age = true;
    if (ev.message.find("done") != std::string::npos) saw_done = true;
  }
  EXPECT_TRUE(saw_progress);
  EXPECT_TRUE(saw_checkpoint_age);
  EXPECT_TRUE(saw_done);
}

}  // namespace
}  // namespace rota::obs
