#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "nn/network.hpp"
#include "sched/mapper.hpp"
#include "sched/schedule.hpp"
#include "util/result.hpp"
#include "util/retry.hpp"
#include "util/thread_annotations.hpp"

/// \file cache.hpp
/// The two-tier schedule cache at the heart of `rota::svc`. A layer's
/// energy-optimal schedule is a pure function of (accelerator geometry,
/// layer shape, mapper version/options) — nothing else — so once computed
/// it can be replayed forever. Tier 1 is an in-memory sharded LRU shared
/// by every request the engine executes; tier 2 is an optional on-disk
/// directory that survives process restarts. Entries round-trip every
/// LayerSchedule field bit-exactly (doubles are stored as hexfloats), so
/// a cache hit is indistinguishable from a fresh mapper search.
///
/// Corruption policy: a damaged, truncated or stale cache file is treated
/// as a miss (counted in `svc.cache.disk_corrupt`) and the schedule is
/// recomputed — the cache can lose work, never invent it, and never
/// crashes the service.
///
/// Durability policy: disk writes are crash-safe (temp file + fsync +
/// rename via util::write_file_atomic, so a reader never observes a torn
/// entry) and transient I/O errors on either direction are retried with
/// capped exponential backoff (util::retry_io). Temp files orphaned by a
/// crash mid-write are deleted when the cache opens the directory.

namespace rota::svc {

/// The canonical cache key. `fingerprint` is the full human-readable
/// derivation (mapper version and options, the objective id + weights,
/// the array-state digest, every scheduling-relevant AcceleratorConfig
/// field, every LayerShapeKey field); `hash` is a stable FNV-1a of the
/// fingerprint used for shard selection and file naming. Disk entries
/// embed the fingerprint and verify it on load, so a hash collision
/// degrades to a miss instead of returning a wrong schedule. Objective
/// and array state are part of the key so schedules never alias across
/// objectives or degraded-array states (DESIGN.md §15).
struct ScheduleCacheKey {
  std::string fingerprint;
  std::uint64_t hash = 0;

  [[nodiscard]] static ScheduleCacheKey of(
      const arch::AcceleratorConfig& accel, const sched::LayerShapeKey& shape,
      const sched::MapperOptions& options,
      const sched::ObjectiveSpec& objective = {},
      std::string_view array_digest = "live",
      int mapper_version = sched::kMapperVersion);
};

struct ScheduleCacheOptions {
  /// In-memory entries across all shards (minimum one per shard).
  std::size_t capacity = 4096;
  /// On-disk tier directory; empty disables the disk tier. Created on
  /// first insert if missing.
  std::string disk_dir;
  /// Backoff schedule for transient disk-tier I/O errors.
  util::RetryOptions retry{};
};

/// Monotonic counters mirrored into the global MetricsRegistry under
/// `svc.cache.*` when it is enabled.
struct ScheduleCacheStats {
  std::int64_t hits_memory = 0;
  std::int64_t hits_disk = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t disk_corrupt = 0;        ///< unreadable/stale files seen
  std::int64_t disk_write_failures = 0; ///< best-effort writes that failed
  std::int64_t disk_read_retries = 0;   ///< transient read errors retried
  std::int64_t disk_write_retries = 0;  ///< transient write errors retried
  std::int64_t orphans_removed = 0;     ///< crash-orphaned .tmp files deleted
};

class ScheduleCache {
 public:
  explicit ScheduleCache(ScheduleCacheOptions options = {});
  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  [[nodiscard]] const ScheduleCacheOptions& options() const {
    return options_;
  }

  /// Probe both tiers. A disk hit is promoted into memory. The returned
  /// schedule carries an empty layer_name (names are per-call site, not
  /// part of the cached value).
  [[nodiscard]] std::optional<sched::LayerSchedule> lookup(
      const ScheduleCacheKey& key);

  /// Insert into memory (evicting the shard's least-recently-used entry
  /// beyond capacity) and, when a disk tier is configured, write the
  /// entry best-effort (failures are counted, never thrown).
  void insert(const ScheduleCacheKey& key, const sched::LayerSchedule& value);

  [[nodiscard]] ScheduleCacheStats stats() const ROTA_EXCLUDES(stats_mu_);
  [[nodiscard]] std::size_t size() const;

  /// The file a key would live at on disk ("" when no disk tier).
  [[nodiscard]] std::string disk_path(const ScheduleCacheKey& key) const;

 private:
  struct Entry {
    sched::LayerSchedule value;
    std::list<std::string>::iterator lru_pos;
  };
  struct Shard {
    mutable util::Mutex mu;
    /// fingerprint -> entry
    std::unordered_map<std::string, Entry> map ROTA_GUARDED_BY(mu);
    /// MRU at front
    std::list<std::string> lru ROTA_GUARDED_BY(mu);
  };
  static constexpr std::size_t kShards = 8;

  Shard& shard_of(const ScheduleCacheKey& key);
  [[nodiscard]] std::size_t shard_capacity() const;

  /// Memory-tier insert/promote (no disk write).
  void insert_memory_only(const ScheduleCacheKey& key,
                          const sched::LayerSchedule& value);

  /// Try the disk tier; counts corruption internally.
  [[nodiscard]] std::optional<sched::LayerSchedule> load_from_disk(
      const ScheduleCacheKey& key);
  void store_to_disk(const ScheduleCacheKey& key,
                     const sched::LayerSchedule& value);

  /// Add `n` to the registry counter `metric` and to `stats_.*field`.
  void count(const char* metric, std::int64_t ScheduleCacheStats::*field,
             std::int64_t n = 1) ROTA_EXCLUDES(stats_mu_);

  ScheduleCacheOptions options_;
  std::array<Shard, kShards> shards_;

  mutable util::Mutex stats_mu_;
  ScheduleCacheStats stats_ ROTA_GUARDED_BY(stats_mu_);
};

/// Serialize one cache entry as a fi::Checkpoint record (DESIGN.md §10):
/// kind "schedule-cache", the key's fingerprint, progress 0, and one field
/// per LayerSchedule member in decimal or hexfloat (`layer_name` is not
/// stored).
[[nodiscard]] std::string encode_cache_entry(const ScheduleCacheKey& key,
                                             const sched::LayerSchedule& value);

/// Parse a cache entry, verifying the record envelope (version, digest)
/// and that the stored fingerprint matches `key`. Any mismatch, truncation
/// or garbage yields an error — callers treat it as a miss.
[[nodiscard]] util::Result<sched::LayerSchedule> decode_cache_entry(
    std::string_view text, const ScheduleCacheKey& key);

/// Schedule `net` like Mapper::schedule_network, but with every layer
/// routed through `cache` first. Produces bit-identical schedules to the
/// uncached path (the cache stores exact copies); on a warm cache the
/// mapper search is skipped entirely. Thread-safe (cache and mapper both
/// are).
[[nodiscard]] sched::NetworkSchedule cached_schedule_network(
    sched::Mapper& mapper, const nn::Network& net, ScheduleCache& cache);

}  // namespace rota::svc
