#include "svc/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "fi/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"

namespace rota::svc {

ScheduleCacheKey ScheduleCacheKey::of(const arch::AcceleratorConfig& accel,
                                      const sched::LayerShapeKey& shape,
                                      const sched::MapperOptions& options,
                                      const sched::ObjectiveSpec& objective,
                                      std::string_view array_digest,
                                      int mapper_version) {
  // Every field that can change the search result, in a fixed order. The
  // topology is included defensively: it does not steer today's cost
  // model, but a future mapper version may consult it and the cost of the
  // extra misses is zero (topology is fixed per deployment). The
  // objective id already encodes the weights for weighted:...; the
  // canonical weight vector is appended anyway so the fingerprint stays
  // self-describing.
  ScheduleCacheKey key;
  std::string& fp = key.fingerprint;
  const auto put = [&fp](std::string_view label, std::int64_t value) {
    fp += label;
    fp += std::to_string(value);
  };
  put("v", mapper_version);
  put("|exact=", options.exact_factors_only ? 1 : 0);
  fp.append("|obj=").append(objective.id());
  fp.append("|ow=").append(objective.weights_csv());
  fp.append("|arr_state=").append(array_digest);
  put("|arr=", accel.array_width);
  put("x", accel.array_height);
  put("|topo=", static_cast<int>(accel.topology));
  put("|word=", accel.word_bytes);
  put("|lb=", accel.lb_input_bytes);
  put(",", accel.lb_weight_bytes);
  put(",", accel.lb_output_bytes);
  put("|glb=", accel.glb_bytes);
  put("|net=", accel.global_net_words_per_cycle);
  put("|shape=", shape.kind);
  for (const std::int64_t field :
       {shape.batch, shape.out_channels, shape.in_channels, shape.in_h,
        shape.in_w, shape.kernel_h, shape.kernel_w, shape.stride_h,
        shape.stride_w, shape.pad_h, shape.pad_w, shape.groups}) {
    put(",", field);
  }
  key.hash = util::fnv1a64(fp);
  return key;
}

// ------------------------------------------------------- entry encoding --

namespace {

/// The fi::Checkpoint kind of a cache entry record.
constexpr std::string_view kEntryKind = "schedule-cache";

/// Every integer member of a LayerSchedule, each under its record field
/// name (Schedule is LayerSchedule or const LayerSchedule).
template <typename Schedule>
auto int_fields(Schedule& s) {
  using Slot = decltype(&s.tiles);
  return std::array<std::pair<const char*, Slot>, 20>{{
      {"space.x", &s.space.x},
      {"space.y", &s.space.y},
      {"tiles", &s.tiles},
      {"output_tiles", &s.output_tiles},
      {"allocations_per_tile", &s.allocations_per_tile},
      {"reduction_steps", &s.reduction_steps},
      {"scatter_words", &s.scatter_words},
      {"compute_macs_per_pe", &s.compute_macs_per_pe},
      {"gather_words", &s.gather_words},
      {"macs", &s.macs},
      {"mapping.sx", &s.mapping.sx},
      {"mapping.sy", &s.mapping.sy},
      {"mapping.lb_c", &s.mapping.lb_c},
      {"mapping.lb_q", &s.mapping.lb_q},
      {"mapping.lb_s", &s.mapping.lb_s},
      {"accesses.macs", &s.accesses.macs},
      {"accesses.lb_accesses", &s.accesses.lb_accesses},
      {"accesses.inter_pe_hops", &s.accesses.inter_pe_hops},
      {"accesses.glb_accesses", &s.accesses.glb_accesses},
      {"accesses.dram_accesses", &s.accesses.dram_accesses},
  }};
}

}  // namespace

std::string encode_cache_entry(const ScheduleCacheKey& key,
                               const sched::LayerSchedule& value) {
  fi::Checkpoint record;
  record.kind = kEntryKind;
  record.fingerprint = key.fingerprint;
  record.fields["shape_key"] = value.shape_key;
  for (const auto& [name, slot] : int_fields(value))
    record.fields[name] = std::to_string(*slot);
  record.fields["mapping.dim_x"] =
      std::to_string(static_cast<int>(value.mapping.dim_x));
  record.fields["mapping.dim_y"] =
      std::to_string(static_cast<int>(value.mapping.dim_y));
  record.fields["energy"] = util::hexfloat(value.energy);
  record.fields["cycles"] = util::hexfloat(value.cycles);
  return fi::encode_checkpoint(record);
}

util::Result<sched::LayerSchedule> decode_cache_entry(
    std::string_view text, const ScheduleCacheKey& key) {
  const auto corrupt = [](const std::string& what) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "cache entry " + what};
  };
  auto record = fi::decode_checkpoint(std::string(text));
  if (!record.ok()) return corrupt("is unreadable: " + record.error().message);
  const fi::Checkpoint& cp = record.value();
  if (cp.kind != kEntryKind || cp.progress != 0)
    return corrupt("is not a schedule-cache record");
  if (cp.fingerprint != key.fingerprint)
    return corrupt("fingerprint does not match the requested key");

  const auto field = [&cp](const std::string& name) -> std::string_view {
    const auto found = cp.fields.find(name);
    return found == cp.fields.end() ? std::string_view{} : found->second;
  };
  sched::LayerSchedule out;
  out.shape_key = field("shape_key");
  for (const auto& [name, slot] : int_fields(out)) {
    const auto v = util::parse_i64(field(name));
    if (!v) return corrupt(std::string("has a malformed ") + name + " field");
    *slot = *v;
  }
  const auto dim_x = util::parse_i64(field("mapping.dim_x"));
  const auto dim_y = util::parse_i64(field("mapping.dim_y"));
  const auto energy = util::parse_f64(field("energy"));
  const auto cycles = util::parse_f64(field("cycles"));
  if (!dim_x || !dim_y || *dim_x < 0 || *dim_x > 1 || *dim_y < 0 ||
      *dim_y > 1 || !energy || !cycles)
    return corrupt("has a malformed mapping, energy or cycles field");
  if (out.tiles < 1 || out.space.x < 1 || out.space.y < 1)
    return corrupt("has a non-positive tile count or space");
  // shape_key, the integers, two dims, energy and cycles; nothing else.
  if (cp.fields.size() != int_fields(out).size() + 5 ||
      cp.fields.count("shape_key") == 0)
    return corrupt("has unexpected fields");
  out.mapping.dim_x = static_cast<sched::SpatialX>(*dim_x);
  out.mapping.dim_y = static_cast<sched::SpatialY>(*dim_y);
  out.energy = *energy;
  out.cycles = *cycles;
  return out;
}

// ------------------------------------------------------------ the cache --

ScheduleCache::ScheduleCache(ScheduleCacheOptions options)
    : options_(std::move(options)) {
  if (options_.capacity < kShards) options_.capacity = kShards;
  if (options_.disk_dir.empty()) return;
  // Sweep temp files orphaned by a crash between write and rename. Only
  // our own naming pattern (<hash>.rsc.tmp) is touched; sweep errors are
  // ignored (the directory may not exist yet).
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.disk_dir, ec);
  if (ec) return;
  std::int64_t removed = 0;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 8 || name.rfind(".rsc.tmp") != name.size() - 8)
      continue;
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec)) ++removed;
  }
  if (removed > 0) {
    count("svc.cache.orphans_removed", &ScheduleCacheStats::orphans_removed,
          removed);
  }
}

ScheduleCache::Shard& ScheduleCache::shard_of(const ScheduleCacheKey& key) {
  return shards_[static_cast<std::size_t>(key.hash) % kShards];
}

std::size_t ScheduleCache::shard_capacity() const {
  return options_.capacity / kShards;
}

std::string ScheduleCache::disk_path(const ScheduleCacheKey& key) const {
  if (options_.disk_dir.empty()) return {};
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.rsc",
                static_cast<unsigned long long>(key.hash));
  return (std::filesystem::path(options_.disk_dir) / name).string();
}

std::optional<sched::LayerSchedule> ScheduleCache::lookup(
    const ScheduleCacheKey& key) {
  Shard& shard = shard_of(key);
  {
    const util::MutexLock lock(shard.mu);
    const auto it = shard.map.find(key.fingerprint);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      count("svc.cache.hits_mem", &ScheduleCacheStats::hits_memory);
      return it->second.value;
    }
  }
  if (auto from_disk = load_from_disk(key)) {
    // Promote into memory so the next probe is lock-and-return.
    insert_memory_only(key, *from_disk);
    count("svc.cache.hits_disk", &ScheduleCacheStats::hits_disk);
    return from_disk;
  }
  count("svc.cache.misses", &ScheduleCacheStats::misses);
  return std::nullopt;
}

void ScheduleCache::insert(const ScheduleCacheKey& key,
                           const sched::LayerSchedule& value) {
  insert_memory_only(key, value);
  if (!options_.disk_dir.empty()) store_to_disk(key, value);
}

void ScheduleCache::insert_memory_only(const ScheduleCacheKey& key,
                                       const sched::LayerSchedule& value) {
  Shard& shard = shard_of(key);
  std::int64_t evicted = 0;
  {
    const util::MutexLock lock(shard.mu);
    auto it = shard.map.find(key.fingerprint);
    if (it != shard.map.end()) {
      // Refresh: identical by construction (schedules are pure functions
      // of the key), but move it to MRU anyway.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      return;
    }
    shard.lru.push_front(key.fingerprint);
    sched::LayerSchedule stored = value;
    stored.layer_name.clear();  // names are per-call site, not cached
    shard.map.emplace(key.fingerprint,
                      Entry{std::move(stored), shard.lru.begin()});
    while (shard.map.size() > shard_capacity() && !shard.lru.empty()) {
      shard.map.erase(shard.lru.back());
      shard.lru.pop_back();
      ++evicted;
    }
  }
  if (evicted > 0) {
    count("svc.cache.evictions", &ScheduleCacheStats::evictions, evicted);
  }
}

std::optional<sched::LayerSchedule> ScheduleCache::load_from_disk(
    const ScheduleCacheKey& key) {
  const std::string path = disk_path(key);
  if (path.empty()) return std::nullopt;
  std::optional<std::string> content;
  try {
    content = util::retry_io(
        options_.retry, key.hash,
        [&] { return util::read_text_file_if_exists(path); },
        [&](int /*attempt*/, const util::io_error&) {
          count("svc.cache.disk_read_retries",
                &ScheduleCacheStats::disk_read_retries);
        });
  } catch (const util::io_error&) {
    // Persistently unreadable: degrade to a miss and recompute.
    count("svc.cache.disk_corrupt", &ScheduleCacheStats::disk_corrupt);
    return std::nullopt;
  }
  if (!content.has_value())
    return std::nullopt;  // plain miss: the entry was never written
  auto decoded = decode_cache_entry(*content, key);
  if (!decoded.ok()) {
    count("svc.cache.disk_corrupt", &ScheduleCacheStats::disk_corrupt);
    return std::nullopt;
  }
  return std::move(decoded).take();
}

void ScheduleCache::store_to_disk(const ScheduleCacheKey& key,
                                  const sched::LayerSchedule& value) {
  try {
    std::filesystem::create_directories(options_.disk_dir);
    const std::string encoded = encode_cache_entry(key, value);
    const std::string path = disk_path(key);
    // Atomic commit: concurrent readers see the old entry or the new one,
    // never a torn file, and a crash leaves only a (swept) .tmp behind.
    util::retry_io(
        options_.retry, key.hash,
        [&] { util::write_file_atomic(path, encoded); },
        [&](int /*attempt*/, const util::io_error&) {
          count("svc.cache.disk_write_retries",
                &ScheduleCacheStats::disk_write_retries);
        });
  } catch (const std::exception&) {
    // Best-effort tier: a read-only or full disk degrades to memory-only.
    count("svc.cache.disk_write_failures",
          &ScheduleCacheStats::disk_write_failures);
  }
}

void ScheduleCache::count(const char* metric,
                          std::int64_t ScheduleCacheStats::*field,
                          std::int64_t n) {
  obs::MetricsRegistry::global().add(metric, n);
  const util::MutexLock stats_lock(stats_mu_);
  stats_.*field += n;
}

ScheduleCacheStats ScheduleCache::stats() const {
  const util::MutexLock lock(stats_mu_);
  return stats_;
}

std::size_t ScheduleCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const util::MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

// -------------------------------------------------- cached network path --

sched::NetworkSchedule cached_schedule_network(sched::Mapper& mapper,
                                               const nn::Network& net,
                                               ScheduleCache& cache) {
  const obs::ScopedTimer timer("svc.sched_seconds");
  sched::NetworkSchedule ns;
  ns.network_name = net.name();
  ns.network_abbr = net.abbr();
  ns.config = mapper.config();
  ns.layers.reserve(net.layer_count());
  for (const auto& layer : net.layers()) {
    const ScheduleCacheKey key = ScheduleCacheKey::of(
        mapper.config(), sched::LayerShapeKey::of(layer), mapper.options(),
        mapper.objective(), mapper.array_state().digest());
    if (auto cached = cache.lookup(key)) {
      cached->layer_name = layer.name;
      ns.layers.push_back(std::move(*cached));
      continue;
    }
    sched::LayerSchedule fresh = mapper.schedule_layer(layer);
    cache.insert(key, fresh);
    ns.layers.push_back(std::move(fresh));
  }
  return ns;
}

}  // namespace rota::svc
