#include "obs/snapshot.hpp"

#include <functional>
#include <sstream>
#include <utility>

#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"
#include "util/io.hpp"

namespace rota::obs {

double process_uptime_seconds() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  const auto elapsed = std::chrono::steady_clock::now() - anchor;
  return std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
      .count();
}

MetricsSnapshot capture_snapshot(const MetricsRegistry& registry,
                                 std::uint64_t seq) {
  MetricsSnapshot snap;
  snap.seq = seq;
  snap.uptime_seconds = process_uptime_seconds();
  snap.metrics = registry.export_all();
  return snap;
}

std::string snapshot_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"schema_version\":" << kSchemaVersion
     << ",\"kind\":\"metrics_snapshot\",\"seq\":" << snapshot.seq
     << ",\"uptime_seconds\":" << json_number(snapshot.uptime_seconds);
  if (snapshot.manifest) os << ",\"manifest\":" << snapshot.manifest->to_json();
  os << ",\"metrics\":";
  write_metrics_json(os, snapshot.metrics);
  os << "}\n";
  return os.str();
}

std::string openmetrics_name(std::string_view name) {
  std::string out = "rota_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string snapshot_openmetrics(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  // Envelope fields as gauges so a scrape is self-describing without the
  // JSON twin.
  os << "# TYPE rota_snapshot_schema_version gauge\n"
     << "rota_snapshot_schema_version " << kSchemaVersion << '\n'
     << "# TYPE rota_snapshot_seq gauge\n"
     << "rota_snapshot_seq " << snapshot.seq << '\n'
     << "# TYPE rota_uptime_seconds gauge\n"
     << "rota_uptime_seconds " << json_number(snapshot.uptime_seconds) << '\n';
  for (const auto& [name, value] : snapshot.metrics.counters) {
    const std::string om = openmetrics_name(name);
    os << "# TYPE " << om << " counter\n" << om << "_total " << value << '\n';
  }
  for (const auto& [name, value] : snapshot.metrics.gauges) {
    const std::string om = openmetrics_name(name);
    os << "# TYPE " << om << " gauge\n" << om << ' ' << json_number(value)
       << '\n';
  }
  for (const auto& [name, s] : snapshot.metrics.histograms) {
    const std::string om = openmetrics_name(name);
    os << "# TYPE " << om << " summary\n"
       << om << "{quantile=\"0.5\"} " << json_number(s.p50) << '\n'
       << om << "{quantile=\"0.95\"} " << json_number(s.p95) << '\n'
       << om << "{quantile=\"0.99\"} " << json_number(s.p99) << '\n'
       << om << "_sum " << json_number(s.sum) << '\n'
       << om << "_count " << s.count << '\n';
  }
  os << "# EOF\n";
  return os.str();
}

SnapshotPublisher::SnapshotPublisher(Options options,
                                     MetricsRegistry& registry)
    : options_(std::move(options)), registry_(registry) {
  ROTA_REQUIRE(!options_.json_file.empty(),
               "SnapshotPublisher needs a JSON path");
  ROTA_REQUIRE(!options_.openmetrics_file.empty(),
               "SnapshotPublisher needs an OpenMetrics path");
  ROTA_REQUIRE(options_.interval.count() > 0,
               "snapshot interval must be positive");
}

SnapshotPublisher::~SnapshotPublisher() { stop(); }

void SnapshotPublisher::start() {
  {
    const util::MutexLock lock(mu_);
    if (stopped_) return;
  }
  if (thread_.joinable()) return;
  thread_ = std::thread([this] { run(); });
}

void SnapshotPublisher::stop() {
  {
    const util::MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    thread_ = std::thread();
  }
  // The final snapshot: the exit state is always on disk, even when the
  // publisher ran in exit-only mode (start() never called) or the
  // interval never elapsed.
  publish_now();
}

void SnapshotPublisher::run() {
  util::MutexLock lock(mu_);
  while (!stop_requested_) {
    // A spurious or notify-driven early wakeup just re-checks the stop
    // flag; an extra sample is harmless, a missed stop is not.
    cv_.wait_for(lock, mu_, options_.interval);
    if (stop_requested_) break;
    lock.unlock();
    publish_now();
    lock.lock();
  }
}

bool SnapshotPublisher::publish_now() {
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  MetricsSnapshot snap = capture_snapshot(registry_, seq);
  if (options_.manifest) {
    snap.manifest = options_.manifest;
    snap.manifest->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
  }
  const std::string json = snapshot_json(snap);
  const std::string om = snapshot_openmetrics(snap);
  const auto write_one = [&](const std::string& path,
                             const std::string& body) {
    util::retry_io(
        options_.retry, std::hash<std::string>{}(path),
        [&] { util::write_file_atomic(path, body); },
        [&](int, const util::io_error&) {
          registry_.add("obs.snapshot.retries");
        });
  };
  try {
    write_one(options_.json_file, json);
    write_one(options_.openmetrics_file, om);
  } catch (const util::io_error& e) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    registry_.add("obs.snapshot.failures");
    log_event(Severity::kWarn, "obs",
              std::string("snapshot publish failed: ") + e.what());
    return false;
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  registry_.add("obs.snapshot.published");
  return true;
}

}  // namespace rota::obs
