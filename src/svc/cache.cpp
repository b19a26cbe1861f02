#include "svc/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"

namespace rota::svc {

namespace {

/// Entry format version. Bump on any layout change: readers reject
/// unknown versions (treated as a miss and recomputed).
constexpr int kCacheFormatVersion = 1;
constexpr const char* kMagic = "rota-schedule-cache";

}  // namespace

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

std::string encode_cache_entry(const ScheduleCacheKey& key,
                               const sched::LayerSchedule& value) {
  std::ostringstream os;
  os << kMagic << " v" << kCacheFormatVersion << '\n'
     << "fingerprint " << key.fingerprint << '\n'
     << "shape_key " << value.shape_key << '\n'
     << "space " << value.space.x << ' ' << value.space.y << '\n'
     << "tiles " << value.tiles << '\n'
     << "output_tiles " << value.output_tiles << '\n'
     << "allocations_per_tile " << value.allocations_per_tile << '\n'
     << "reduction_steps " << value.reduction_steps << '\n'
     << "scatter_words " << value.scatter_words << '\n'
     << "compute_macs_per_pe " << value.compute_macs_per_pe << '\n'
     << "gather_words " << value.gather_words << '\n'
     << "macs " << value.macs << '\n'
     << "mapping " << static_cast<int>(value.mapping.dim_x) << ' '
     << static_cast<int>(value.mapping.dim_y) << ' ' << value.mapping.sx
     << ' ' << value.mapping.sy << ' ' << value.mapping.lb_c << ' '
     << value.mapping.lb_q << ' ' << value.mapping.lb_s << '\n'
     << "accesses " << value.accesses.macs << ' ' << value.accesses.lb_accesses
     << ' ' << value.accesses.inter_pe_hops << ' '
     << value.accesses.glb_accesses << ' ' << value.accesses.dram_accesses
     << '\n'
     << "energy " << util::hexfloat(value.energy) << '\n'
     << "cycles " << util::hexfloat(value.cycles) << '\n'
     << "end\n";
  return os.str();
}

namespace {

/// Line-oriented reader: `take("tiles")` returns the payload of the next
/// line iff it starts with that tag, else flags corruption.
class EntryReader {
 public:
  explicit EntryReader(std::string_view text) : in_(std::string(text)) {}

  bool take(const std::string& tag, std::string& payload) {
    std::string line;
    if (!std::getline(in_, line)) return false;
    if (line.rfind(tag + " ", 0) != 0 && line != tag) return false;
    payload = line.size() > tag.size() ? line.substr(tag.size() + 1) : "";
    return true;
  }

  bool take_i64(const std::string& tag, std::int64_t& out) {
    std::string payload;
    if (!take(tag, payload)) return false;
    return parse_i64(payload, out);
  }

  static bool parse_i64(const std::string& text, std::int64_t& out) {
    if (text.empty()) return false;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    out = static_cast<std::int64_t>(v);
    return true;
  }

  static bool parse_double(const std::string& text, double& out) {
    if (text.empty()) return false;
    char* end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

 private:
  std::istringstream in_;
};

}  // namespace

util::Result<sched::LayerSchedule> decode_cache_entry(
    std::string_view text, const ScheduleCacheKey& key) {
  const auto corrupt = [](const std::string& what) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "cache entry " + what};
  };
  EntryReader reader(text);
  std::string payload;
  // Built with append rather than "v" + to_string(...): GCC 12 at -O3
  // raises a spurious -Wrestrict on operator+(const char*, string&&).
  std::string expected_version = "v";
  expected_version += std::to_string(kCacheFormatVersion);
  if (!reader.take(kMagic, payload) || payload != expected_version) {
    return corrupt("has a missing or unsupported format header");
  }
  if (!reader.take("fingerprint", payload) || payload != key.fingerprint) {
    return corrupt("fingerprint does not match the requested key");
  }

  sched::LayerSchedule out;
  if (!reader.take("shape_key", out.shape_key))
    return corrupt("is missing shape_key");

  std::string space;
  if (!reader.take("space", space)) return corrupt("is missing space");
  {
    std::istringstream ss(space);
    if (!(ss >> out.space.x >> out.space.y) || out.space.x < 1 ||
        out.space.y < 1) {
      return corrupt("has a malformed space line");
    }
  }

  struct Field {
    const char* tag;
    std::int64_t* slot;
  };
  const Field fields[] = {
      {"tiles", &out.tiles},
      {"output_tiles", &out.output_tiles},
      {"allocations_per_tile", &out.allocations_per_tile},
      {"reduction_steps", &out.reduction_steps},
      {"scatter_words", &out.scatter_words},
      {"compute_macs_per_pe", &out.compute_macs_per_pe},
      {"gather_words", &out.gather_words},
      {"macs", &out.macs},
  };
  for (const Field& f : fields) {
    if (!reader.take_i64(f.tag, *f.slot))
      return corrupt(std::string("has a malformed ") + f.tag + " line");
  }
  if (out.tiles < 1) return corrupt("has a non-positive tile count");

  if (!reader.take("mapping", payload))
    return corrupt("is missing the mapping line");
  {
    std::istringstream ss(payload);
    int dim_x = 0;
    int dim_y = 0;
    if (!(ss >> dim_x >> dim_y >> out.mapping.sx >> out.mapping.sy >>
          out.mapping.lb_c >> out.mapping.lb_q >> out.mapping.lb_s) ||
        dim_x < 0 || dim_x > 1 || dim_y < 0 || dim_y > 1) {
      return corrupt("has a malformed mapping line");
    }
    out.mapping.dim_x = static_cast<sched::SpatialX>(dim_x);
    out.mapping.dim_y = static_cast<sched::SpatialY>(dim_y);
  }

  if (!reader.take("accesses", payload))
    return corrupt("is missing the accesses line");
  {
    std::istringstream ss(payload);
    if (!(ss >> out.accesses.macs >> out.accesses.lb_accesses >>
          out.accesses.inter_pe_hops >> out.accesses.glb_accesses >>
          out.accesses.dram_accesses)) {
      return corrupt("has a malformed accesses line");
    }
  }

  if (!reader.take("energy", payload) ||
      !EntryReader::parse_double(payload, out.energy)) {
    return corrupt("has a malformed energy line");
  }
  if (!reader.take("cycles", payload) ||
      !EntryReader::parse_double(payload, out.cycles)) {
    return corrupt("has a malformed cycles line");
  }
  if (!reader.take("end", payload))
    return corrupt("is truncated (missing end marker)");
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
    obs::MetricsRegistry::global().add("svc.cache.orphans_removed", removed);
    // Construction is single-threaded, but the capability model has no
    // "not yet published" notion — take the lock like everyone else.
    const util::MutexLock stats_lock(stats_mu_);
    stats_.orphans_removed = removed;
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
      obs::MetricsRegistry::global().add("svc.cache.hits_mem");
      const util::MutexLock stats_lock(stats_mu_);
      ++stats_.hits_memory;
      return it->second.value;
    }
  }
  if (auto from_disk = load_from_disk(key)) {
    // Promote into memory so the next probe is lock-and-return.
    insert_memory_only(key, *from_disk);
    obs::MetricsRegistry::global().add("svc.cache.hits_disk");
    const util::MutexLock stats_lock(stats_mu_);
    ++stats_.hits_disk;
    return from_disk;
  }
  obs::MetricsRegistry::global().add("svc.cache.misses");
  const util::MutexLock stats_lock(stats_mu_);
  ++stats_.misses;
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
    obs::MetricsRegistry::global().add("svc.cache.evictions", evicted);
    const util::MutexLock stats_lock(stats_mu_);
    stats_.evictions += evicted;
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
          obs::MetricsRegistry::global().add("svc.cache.disk_read_retries");
          const util::MutexLock stats_lock(stats_mu_);
          ++stats_.disk_read_retries;
        });
  } catch (const util::io_error&) {
    // Persistently unreadable: degrade to a miss and recompute.
    obs::MetricsRegistry::global().add("svc.cache.disk_corrupt");
    const util::MutexLock stats_lock(stats_mu_);
    ++stats_.disk_corrupt;
    return std::nullopt;
  }
  if (!content.has_value())
    return std::nullopt;  // plain miss: the entry was never written
  auto decoded = decode_cache_entry(*content, key);
  if (!decoded.ok()) {
    obs::MetricsRegistry::global().add("svc.cache.disk_corrupt");
    const util::MutexLock stats_lock(stats_mu_);
    ++stats_.disk_corrupt;
    return std::nullopt;
  }
  return std::move(decoded).take();
}

void ScheduleCache::store_to_disk(const ScheduleCacheKey& key,
                                  const sched::LayerSchedule& value) {
  try {
    std::filesystem::create_directories(options_.disk_dir);
    sched::LayerSchedule stored = value;
    stored.layer_name.clear();
    const std::string encoded = encode_cache_entry(key, stored);
    const std::string path = disk_path(key);
    // Atomic commit: concurrent readers see the old entry or the new one,
    // never a torn file, and a crash leaves only a (swept) .tmp behind.
    util::retry_io(
        options_.retry, key.hash,
        [&] { util::write_file_atomic(path, encoded); },
        [&](int /*attempt*/, const util::io_error&) {
          obs::MetricsRegistry::global().add("svc.cache.disk_write_retries");
          const util::MutexLock stats_lock(stats_mu_);
          ++stats_.disk_write_retries;
        });
  } catch (const std::exception&) {
    // Best-effort tier: a read-only or full disk degrades to memory-only.
    obs::MetricsRegistry::global().add("svc.cache.disk_write_failures");
    const util::MutexLock stats_lock(stats_mu_);
    ++stats_.disk_write_failures;
  }
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
