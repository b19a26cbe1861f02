#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/retry.hpp"
#include "util/thread_annotations.hpp"

/// \file snapshot.hpp
/// Live metrics snapshots: a consistent capture of the whole
/// MetricsRegistry rendered as (a) a schema_version-stamped JSON envelope
/// and (b) OpenMetrics text exposition — both from the same MetricsExport,
/// so the two forms agree by construction — plus a SnapshotPublisher that
/// samples the registry on a timer thread and atomically publishes both
/// files (temp + fsync + rename via util::write_file_atomic, transient
/// faults absorbed by util::retry_io). This is the CLI's one metrics
/// envelope (`--stats-out`, periodic with `--stats-interval`) and what the
/// svc `{"op":"stats"}` verb returns in-band.

namespace rota::obs {

/// One captured instant of the registry.
struct MetricsSnapshot {
  std::uint64_t seq = 0;        ///< Publisher sequence (0 for ad-hoc captures).
  double uptime_seconds = 0.0;  ///< Steady-clock seconds since process anchor.
  /// The run this snapshot belongs to; absent for the svc `stats` reply.
  std::optional<RunManifest> manifest;
  MetricsExport metrics;
};

/// Steady-clock seconds since the first call in this process (the anchor
/// is a function-local static, so "uptime" means time since observability
/// first looked, which for armed runs is process start for all practical
/// purposes).
[[nodiscard]] double process_uptime_seconds();

/// Capture the registry now (single lock acquisition; see
/// MetricsRegistry::export_all). `seq` is stamped by the caller.
[[nodiscard]] MetricsSnapshot capture_snapshot(
    const MetricsRegistry& registry = MetricsRegistry::global(),
    std::uint64_t seq = 0);

/// The snapshot as a JSON envelope:
/// {"schema_version":N,"kind":"metrics_snapshot","seq":...,
///  "uptime_seconds":...,"manifest":{...},"metrics":{...}} where
/// "manifest" is RunManifest::to_json() (omitted when the snapshot has no
/// manifest) and "metrics" is the exact object MetricsRegistry::write_json
/// emits.
[[nodiscard]] std::string snapshot_json(const MetricsSnapshot& snapshot);

/// The snapshot in OpenMetrics text exposition format, `# EOF`-terminated.
/// Registry names are mangled to the OpenMetrics charset by
/// openmetrics_name(); counters additionally get the spec's `_total`
/// sample suffix; histograms render as summaries with quantile labels
/// 0.5 / 0.95 / 0.99 plus `_sum`/`_count`. The envelope fields ride along
/// as `rota_snapshot_seq` / `rota_uptime_seconds` /
/// `rota_snapshot_schema_version` gauges so a scrape is self-describing.
[[nodiscard]] std::string snapshot_openmetrics(const MetricsSnapshot& snapshot);

/// Registry metric name mangled for OpenMetrics: characters outside
/// [a-zA-Z0-9_:] become '_' and the result is prefixed with "rota_"
/// (e.g. "svc.queue_wait_ms" -> "rota_svc_queue_wait_ms").
[[nodiscard]] std::string openmetrics_name(std::string_view name);

/// Samples the registry every `interval` on a dedicated thread and
/// publishes the snapshot to `json_file` + `openmetrics_file`, each write
/// atomic (temp + fsync + rename) and retried on transient util::io_error.
/// stop() (and the destructor) joins the thread and publishes one final
/// snapshot so the exit state is always on disk. Publish outcomes are
/// visible in the registry itself as obs.snapshot.published /
/// obs.snapshot.retries / obs.snapshot.failures (each lagging one
/// snapshot, since a capture precedes its own write).
class SnapshotPublisher {
 public:
  struct Options {
    std::string json_file;         ///< Required.
    std::string openmetrics_file;  ///< Required.
    std::chrono::milliseconds interval{1000};
    util::RetryOptions retry;  ///< Transient-fault policy for file writes.
    /// Stamped into every JSON publish, with wall_seconds set to the
    /// steady-clock time since the publisher was constructed.
    std::optional<RunManifest> manifest;
  };

  explicit SnapshotPublisher(
      Options options, MetricsRegistry& registry = MetricsRegistry::global());
  ~SnapshotPublisher();
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Spawn the sampler thread (no-op if already running or stopped).
  void start() ROTA_EXCLUDES(mu_);

  /// Signal, join, then publish the final snapshot — even when start()
  /// was never called, so an exit-only publisher still leaves the final
  /// state on disk. Idempotent: only the first call publishes.
  void stop() ROTA_EXCLUDES(mu_);

  /// Capture + write both files now (also called by the sampler loop).
  /// Returns false when the write still failed after the retry budget;
  /// the failure is recorded in the registry and the EventLog, never
  /// thrown — telemetry must not take down the serving path.
  bool publish_now();

  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

 private:
  void run() ROTA_EXCLUDES(mu_);

  Options options_;
  MetricsRegistry& registry_;
  /// Origin of the manifest's wall_seconds.
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::thread thread_;
  util::Mutex mu_;
  util::CondVar cv_;
  bool stop_requested_ ROTA_GUARDED_BY(mu_) = false;
  bool stopped_ ROTA_GUARDED_BY(mu_) = false;  ///< stop() already ran
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> failed_{0};
};

}  // namespace rota::obs
