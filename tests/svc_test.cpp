#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.hpp"
#include "core/experiment.hpp"
#include "nn/workloads.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sched/mapper.hpp"
#include "svc/cache.hpp"
#include "svc/engine.hpp"
#include "svc/jsonv.hpp"
#include "svc/request.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"
#include "util/result.hpp"

namespace rota::svc {
namespace {

using util::ErrorCode;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("rota_svc_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

sched::LayerSchedule sample_schedule(std::int64_t tiles) {
  sched::LayerSchedule s;
  s.layer_name = "conv1";  // must NOT survive caching
  s.shape_key = "k" + std::to_string(tiles);
  s.space = {4, 3};
  s.tiles = tiles;
  s.output_tiles = tiles * 2;
  s.allocations_per_tile = 2;
  s.reduction_steps = 3;
  s.scatter_words = 128;
  s.compute_macs_per_pe = 99;
  s.gather_words = 17;
  s.macs = 123456789;
  s.accesses.macs = 1;
  s.accesses.lb_accesses = 2;
  s.accesses.inter_pe_hops = 3;
  s.accesses.glb_accesses = 4;
  s.accesses.dram_accesses = 5;
  // Values with no short decimal representation: round-tripping them
  // exactly requires the hexfloat encoding.
  s.energy = 0.1 + 0.2;
  s.cycles = 1.0e17 / 3.0;
  return s;
}

ScheduleCacheKey key_of_shape(std::int64_t out_channels,
                              std::int64_t width = 14,
                              std::int64_t height = 12,
                              int mapper_version = sched::kMapperVersion) {
  arch::AcceleratorConfig accel = arch::rota_like();
  accel.array_width = width;
  accel.array_height = height;
  sched::LayerShapeKey shape;
  shape.kind = 1;
  shape.batch = 1;
  shape.out_channels = out_channels;
  shape.in_channels = 3;
  shape.in_h = 32;
  shape.in_w = 32;
  shape.kernel_h = 3;
  shape.kernel_w = 3;
  shape.stride_h = 1;
  shape.stride_w = 1;
  shape.groups = 1;
  return ScheduleCacheKey::of(accel, shape, sched::MapperOptions{},
                              sched::ObjectiveSpec{}, "live", mapper_version);
}

/// N distinct keys that all land in the same shard, so LRU ordering is
/// observable (kShards = 8; shard selection is hash % 8).
std::vector<ScheduleCacheKey> same_shard_keys(std::size_t n) {
  std::vector<ScheduleCacheKey> keys;
  const std::uint64_t want = key_of_shape(1).hash % 8;
  for (std::int64_t c = 1; keys.size() < n; ++c) {
    ScheduleCacheKey key = key_of_shape(c);
    if (key.hash % 8 == want) keys.push_back(std::move(key));
  }
  return keys;
}

// ------------------------------------------------------------- JSON reader

TEST(SvcJson, ParsesTheProtocolSubset) {
  auto doc = JsonValue::parse(
      R"({"schema_version":2,"id":"a\n\"b","n":-3.5,"t":true,)"
      R"("u":null,"arr":[1,2,3]})");
  ASSERT_TRUE(doc.ok());
  const JsonValue& v = doc.value();
  EXPECT_EQ(v.find("schema_version")->as_int64().value(), 2);
  EXPECT_EQ(v.find("id")->str(), "a\n\"b");
  EXPECT_DOUBLE_EQ(v.find("n")->number(), -3.5);
  EXPECT_TRUE(v.find("t")->boolean());
  EXPECT_TRUE(v.find("u")->is_null());
  ASSERT_TRUE(v.find("arr")->is_array());
  EXPECT_EQ(v.find("arr")->array().size(), 3u);
  EXPECT_EQ(v.find("absent"), nullptr);
  // Empty containers, whitespace between tokens and nested values.
  for (std::string_view text : {"{}", "[]", " [ ] "}) {
    EXPECT_TRUE(JsonValue::parse(text).ok()) << text;
  }
  auto nested = JsonValue::parse(
      R"({"a": [1, 2.5, -3e4], "b": {"c": null}, "d": "x\ny", "e": true})");
  ASSERT_TRUE(nested.ok());
  EXPECT_DOUBLE_EQ(nested.value().find("a")->array()[2].number(), -3e4);
  EXPECT_TRUE(nested.value().find("b")->find("c")->is_null());
  EXPECT_EQ(nested.value().find("d")->str(), "x\ny");
}

TEST(SvcJson, RejectsGarbageWithoutThrowing) {
  EXPECT_FALSE(JsonValue::parse("").ok());
  EXPECT_FALSE(JsonValue::parse("{").ok());
  EXPECT_FALSE(JsonValue::parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::parse("{'a':1}").ok());
  EXPECT_FALSE(JsonValue::parse("{\"a\":01}").ok());
  for (std::string_view text :
       {"{} trailing", "{'single': 1}", "[1,]", "{\"a\":}", "nan"}) {
    EXPECT_FALSE(JsonValue::parse(text).ok()) << text;
  }
  // Nesting past max_depth is refused, not stack-overflowed.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::parse(deep, 32).ok());
}

// -------------------------------------------------------- request parsing

TEST(SvcRequest, ParsesFullRequest) {
  auto parsed = parse_request(
      R"({"schema_version":2,"id":"r1","op":"wear","workload":"Sqz",)"
      R"("array":"8x6","iters":25,"seed":7,"policy":"RWL",)"
      R"("metric":"cycles","deadline_ms":5000})",
      1 << 20);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Request& req = parsed.value();
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.op, RequestOp::kWear);
  EXPECT_EQ(req.workload, "Sqz");
  EXPECT_EQ(req.array_width, 8);
  EXPECT_EQ(req.array_height, 6);
  EXPECT_EQ(req.iterations, 25);
  EXPECT_EQ(req.seed, 7u);
  EXPECT_EQ(req.policy, wear::PolicyKind::kRwl);
  EXPECT_EQ(req.metric, wear::WearMetric::kActiveCycles);
  EXPECT_EQ(req.deadline_ms, 5000);
}

TEST(SvcRequest, StructuredRejections) {
  const auto code_of = [](std::string_view line) {
    auto parsed = parse_request(line, 1 << 20);
    EXPECT_FALSE(parsed.ok()) << line;
    return parsed.ok() ? ErrorCode::kInternal : parsed.error().code;
  };
  // Version gate: missing, wrong, and non-integer versions all refuse.
  EXPECT_EQ(code_of(R"({"op":"ping"})"), ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(R"({"schema_version":1,"op":"ping"})"),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(R"({"schema_version":"2","op":"ping"})"),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of("not json at all"), ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(R"([1,2,3])"), ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(R"({"schema_version":2,"op":"explode"})"),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(R"({"schema_version":2,"op":"schedule"})"),
            ErrorCode::kInvalidArgument);  // needs workload
  for (const char* array :
       {"0x9", " 14x12", "+14x12", "14x 12", "14x+12", "14x12 ", "14x12x1",
        "99999999999999999999x12"}) {
    EXPECT_EQ(code_of(std::string(R"({"schema_version":2,"op":"wear",)") +
                      R"("workload":"Sqz","array":")" + array + "\"}"),
              ErrorCode::kInvalidArgument)
        << array;
  }
  EXPECT_EQ(code_of(R"({"schema_version":2,"op":"wear","workload":"Sqz",)"
                    R"("iters":0})"),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(R"({"schema_version":2,"op":"wear","workload":"Sqz",)"
                    R"("deadline_ms":-5})"),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(R"({"schema_version":2,"op":"wear","workload":"Sqz",)"
                    R"("policy":"Nope"})"),
            ErrorCode::kInvalidArgument);

  // The byte budget maps to resource_exhausted.
  std::string oversized = R"({"schema_version":2,"op":"ping","pad":")" +
                          std::string(600, 'x') + "\"}";
  auto parsed = parse_request(oversized, 256);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kResourceExhausted);
}

TEST(SvcRequest, SalvagesIdFromBrokenRequests) {
  // Valid JSON but invalid request: the id is still recoverable.
  EXPECT_EQ(salvage_request_id(R"({"id":"r9","op":"explode"})"), "r9");
  EXPECT_EQ(salvage_request_id("{{{"), "");
  EXPECT_EQ(salvage_request_id(R"({"id":7})"), "");
}

TEST(SvcRequest, ResponseJsonRoundTrips) {
  Response ok;
  ok.id = "a";
  ok.ok = true;
  ok.payload_json = "{\"pong\":true}";
  ok.wall_seconds = 0.5;
  const std::string line = to_json(ok);
  auto doc = JsonValue::parse(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(doc.value().find("schema_version")->as_int64().value(),
            obs::kSchemaVersion);
  EXPECT_TRUE(doc.value().find("ok")->boolean());
  EXPECT_TRUE(doc.value().find("result")->find("pong")->boolean());

  Response err;
  err.error = {ErrorCode::kDeadlineExceeded, "too \"slow\""};
  auto edoc = JsonValue::parse(to_json(err));
  ASSERT_TRUE(edoc.ok());
  EXPECT_TRUE(edoc.value().find("id")->is_null());
  EXPECT_FALSE(edoc.value().find("ok")->boolean());
  EXPECT_EQ(edoc.value().find("error")->find("code")->str(),
            "deadline_exceeded");
  EXPECT_EQ(edoc.value().find("error")->find("message")->str(),
            "too \"slow\"");
}

// ------------------------------------------------------------- cache keys

TEST(ScheduleCacheKeyTest, SensitiveToEveryKeyedInput) {
  const ScheduleCacheKey base = key_of_shape(64);
  EXPECT_EQ(base.fingerprint, key_of_shape(64).fingerprint);
  EXPECT_EQ(base.hash, key_of_shape(64).hash);

  // Layer shape.
  EXPECT_NE(base.fingerprint, key_of_shape(65).fingerprint);
  // Array geometry — both dimensions independently.
  EXPECT_NE(base.fingerprint, key_of_shape(64, 16, 12).fingerprint);
  EXPECT_NE(base.fingerprint, key_of_shape(64, 14, 16).fingerprint);
  // 14x12 and 12x14 must not alias.
  EXPECT_NE(key_of_shape(64, 14, 12).fingerprint,
            key_of_shape(64, 12, 14).fingerprint);
  // Mapper version: a new search algorithm invalidates old entries.
  EXPECT_NE(base.fingerprint,
            key_of_shape(64, 14, 12, sched::kMapperVersion + 1).fingerprint);

  // Mapper options steer the search too.
  arch::AcceleratorConfig accel = arch::rota_like();
  sched::LayerShapeKey shape;
  shape.out_channels = 64;
  sched::MapperOptions exact;
  sched::MapperOptions generalized;
  generalized.exact_factors_only = false;
  EXPECT_NE(ScheduleCacheKey::of(accel, shape, exact).fingerprint,
            ScheduleCacheKey::of(accel, shape, generalized).fingerprint);
  // Thread count is NOT part of the key (results are lane-invariant).
  sched::MapperOptions threaded;
  threaded.threads = 8;
  EXPECT_EQ(ScheduleCacheKey::of(accel, shape, exact).fingerprint,
            ScheduleCacheKey::of(accel, shape, threaded).fingerprint);
}

TEST(ScheduleCacheKeyTest, ObjectiveAndArrayStateNeverAlias) {
  arch::AcceleratorConfig accel = arch::rota_like();
  sched::LayerShapeKey shape;
  shape.out_channels = 64;
  const sched::MapperOptions options;
  const ScheduleCacheKey base = ScheduleCacheKey::of(accel, shape, options);
  // The defaults ARE the energy objective on an intact array: existing
  // call sites and existing disk caches stay valid.
  EXPECT_EQ(base.fingerprint,
            ScheduleCacheKey::of(accel, shape, options,
                                 sched::ObjectiveSpec::energy(), "live")
                .fingerprint);
  // A different objective changes the key…
  const ScheduleCacheKey lifetime = ScheduleCacheKey::of(
      accel, shape, options, sched::ObjectiveSpec::lifetime());
  EXPECT_NE(base.fingerprint, lifetime.fingerprint);
  EXPECT_NE(base.hash, lifetime.hash);
  // …as do weighted scalarization weights, not just the kind…
  EXPECT_NE(ScheduleCacheKey::of(accel, shape, options,
                                 sched::ObjectiveSpec::weighted(1, 1, 0))
                .fingerprint,
            ScheduleCacheKey::of(accel, shape, options,
                                 sched::ObjectiveSpec::weighted(1, 1, 1))
                .fingerprint);
  // …and so does a degraded-array digest.
  const ScheduleCacheKey degraded =
      ScheduleCacheKey::of(accel, shape, options, sched::ObjectiveSpec{},
                           "fnv1a:00000000deadbeef");
  EXPECT_NE(base.fingerprint, degraded.fingerprint);
  EXPECT_NE(base.hash, degraded.hash);
}

TEST(ScheduleCacheKeyTest, FingerprintBytesArePinned) {
  // Recorded from the stream-built derivation the string appends replaced.
  // Disk entries embed these bytes and are named by the hash, so a one-byte
  // change in the derivation orphans every cache directory.
  // kind, batch, K, C, H, W, R, S, strides, pads, groups.
  const sched::LayerShapeKey shape{0, 1, 64, 3, 224, 224, 3, 3, 2, 2, 1, 1, 1};
  const ScheduleCacheKey weighted = ScheduleCacheKey::of(
      arch::rota_like(), shape, sched::MapperOptions{},
      sched::ObjectiveSpec::weighted(0.2, 0.7, 0.1), "fnv1a:00000000deadbeef",
      4);
  EXPECT_EQ(weighted.fingerprint,
            "v4|exact=1|obj=weighted:0.2,0.7,0.1|ow=0.2,0.7,0.1"
            "|arr_state=fnv1a:00000000deadbeef|arr=14x12|topo=1|word=2"
            "|lb=24,448,48|glb=110592|net=4"
            "|shape=0,1,64,3,224,224,3,3,2,2,1,1,1");
  EXPECT_EQ(weighted.hash, 0xc1cd968838f68e9dULL);
}

TEST(ScheduleCacheKeyTest, StableHashIsFixedForever) {
  // The disk file name derives from this hash; changing the function
  // orphans every cache directory in existence.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::fnv1a64("rota"), 0xa3aa001ff10cacddULL);
}

// -------------------------------------------------------- in-memory tier

TEST(ScheduleCacheTest, HitMissAndEvictionFollowLruOrder) {
  // capacity 16 over 8 shards = 2 entries per shard; use keys pinned to
  // one shard so the eviction order is deterministic.
  ScheduleCache cache({.capacity = 16, .disk_dir = ""});
  const auto keys = same_shard_keys(3);

  EXPECT_FALSE(cache.lookup(keys[0]).has_value());  // cold miss
  cache.insert(keys[0], sample_schedule(10));
  cache.insert(keys[1], sample_schedule(20));
  ASSERT_TRUE(cache.lookup(keys[0]).has_value());  // promotes 0 to MRU
  EXPECT_EQ(cache.lookup(keys[0])->tiles, 10);
  EXPECT_TRUE(cache.lookup(keys[0])->layer_name.empty());

  cache.insert(keys[2], sample_schedule(30));  // shard full: evicts LRU = 1
  EXPECT_TRUE(cache.lookup(keys[0]).has_value());
  EXPECT_FALSE(cache.lookup(keys[1]).has_value());
  EXPECT_TRUE(cache.lookup(keys[2]).has_value());

  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.misses, 2);       // cold probe + evicted probe
  EXPECT_EQ(stats.hits_memory, 5);
  EXPECT_EQ(stats.hits_disk, 0);
  EXPECT_EQ(cache.size(), 2u);

  // Reinserting an existing key refreshes instead of duplicating.
  cache.insert(keys[0], sample_schedule(10));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ScheduleCacheTest, CapacityFloorIsOneEntryPerShard) {
  ScheduleCache cache({.capacity = 0, .disk_dir = ""});
  EXPECT_EQ(cache.options().capacity, 8u);  // clamped to kShards
  const auto keys = same_shard_keys(2);
  cache.insert(keys[0], sample_schedule(1));
  cache.insert(keys[1], sample_schedule(2));  // same shard: evicts keys[0]
  EXPECT_FALSE(cache.lookup(keys[0]).has_value());
  EXPECT_EQ(cache.lookup(keys[1])->tiles, 2);
}

// ------------------------------------------------------------- disk tier

TEST(ScheduleCacheTest, DiskRoundTripIsBitExact) {
  const TempDir dir;
  const ScheduleCacheKey key = key_of_shape(64);
  const sched::LayerSchedule original = sample_schedule(12);
  {
    ScheduleCache writer({.capacity = 64, .disk_dir = dir.path.string()});
    writer.insert(key, original);
    EXPECT_TRUE(std::filesystem::exists(writer.disk_path(key)));
  }
  // A fresh process (fresh cache object) finds the entry on disk.
  ScheduleCache reader({.capacity = 64, .disk_dir = dir.path.string()});
  const auto loaded = reader.lookup(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(reader.stats().hits_disk, 1);
  EXPECT_TRUE(loaded->layer_name.empty());
  EXPECT_EQ(loaded->shape_key, original.shape_key);
  EXPECT_EQ(loaded->space.x, original.space.x);
  EXPECT_EQ(loaded->space.y, original.space.y);
  EXPECT_EQ(loaded->tiles, original.tiles);
  EXPECT_EQ(loaded->output_tiles, original.output_tiles);
  EXPECT_EQ(loaded->allocations_per_tile, original.allocations_per_tile);
  EXPECT_EQ(loaded->reduction_steps, original.reduction_steps);
  EXPECT_EQ(loaded->scatter_words, original.scatter_words);
  EXPECT_EQ(loaded->compute_macs_per_pe, original.compute_macs_per_pe);
  EXPECT_EQ(loaded->gather_words, original.gather_words);
  EXPECT_EQ(loaded->macs, original.macs);
  EXPECT_EQ(loaded->accesses.dram_accesses, original.accesses.dram_accesses);
  // Bit-exact doubles (hexfloat encoding), not approximately equal.
  EXPECT_EQ(loaded->energy, original.energy);
  EXPECT_EQ(loaded->cycles, original.cycles);

  // A disk hit is promoted: the second probe is a memory hit.
  (void)reader.lookup(key);
  EXPECT_EQ(reader.stats().hits_memory, 1);
  EXPECT_EQ(reader.stats().hits_disk, 1);
}

TEST(ScheduleCacheTest, CorruptAndTruncatedFilesDegradeToMisses) {
  const TempDir dir;
  const ScheduleCacheKey key = key_of_shape(64);
  ScheduleCache cache({.capacity = 64, .disk_dir = dir.path.string()});
  cache.insert(key, sample_schedule(12));
  const std::string path = cache.disk_path(key);
  std::string good;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    good = buf.str();
  }

  const auto overwrite = [&](const std::string& content) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
  };
  const auto probe_fresh = [&] {
    // Fresh cache each time so the memory tier cannot mask the disk read.
    ScheduleCache fresh({.capacity = 64, .disk_dir = dir.path.string()});
    const auto got = fresh.lookup(key);
    return std::make_pair(got.has_value(), fresh.stats());
  };

  overwrite("complete garbage\n");
  auto [hit1, stats1] = probe_fresh();
  EXPECT_FALSE(hit1);
  EXPECT_EQ(stats1.disk_corrupt, 1);
  EXPECT_EQ(stats1.misses, 1);

  overwrite(good.substr(0, good.size() / 2));  // truncated mid-entry
  auto [hit2, stats2] = probe_fresh();
  EXPECT_FALSE(hit2);
  EXPECT_EQ(stats2.disk_corrupt, 1);

  // Entry written under a *different* key (hash collision / stale file):
  // the embedded fingerprint mismatches and the load degrades to a miss.
  overwrite(encode_cache_entry(key_of_shape(65), sample_schedule(12)));
  auto [hit3, stats3] = probe_fresh();
  EXPECT_FALSE(hit3);
  EXPECT_EQ(stats3.disk_corrupt, 1);

  // Recovery: recompute-and-insert rewrites the file and serves again.
  cache.insert(key, sample_schedule(12));
  ScheduleCache healed({.capacity = 64, .disk_dir = dir.path.string()});
  EXPECT_TRUE(healed.lookup(key).has_value());
}

TEST(ScheduleCacheTest, UnwritableDiskDirDegradesToMemoryOnly) {
  // A file where the directory should be: create_directories fails, the
  // write is counted, and the memory tier still works.
  const TempDir dir;
  const std::string blocked = (dir.path / "not_a_dir").string();
  { std::ofstream out(blocked); out << "x"; }
  ScheduleCache cache({.capacity = 64, .disk_dir = blocked});
  const ScheduleCacheKey key = key_of_shape(64);
  cache.insert(key, sample_schedule(12));
  EXPECT_EQ(cache.stats().disk_write_failures, 1);
  EXPECT_TRUE(cache.lookup(key).has_value());
}

// ------------------------------------------------- cached network path

TEST(CachedScheduleNetwork, BitIdenticalToMapperAndSkipsSearchWhenWarm) {
  const nn::Network net = nn::make_squeezenet();
  arch::AcceleratorConfig accel = arch::rota_like();
  sched::Mapper mapper(accel, sched::ObjectiveSpec{});
  const sched::NetworkSchedule direct = mapper.schedule_network(net);

  ScheduleCache cache({.capacity = 4096, .disk_dir = ""});
  sched::Mapper cold_mapper(accel, sched::ObjectiveSpec{});
  const sched::NetworkSchedule first =
      cached_schedule_network(cold_mapper, net, cache);
  const auto after_first = cache.stats();
  EXPECT_GT(after_first.misses, 0);

  // Second pass: every layer must come from the cache, no mapper search.
  sched::Mapper unused_mapper(accel, sched::ObjectiveSpec{});
  const sched::NetworkSchedule second =
      cached_schedule_network(unused_mapper, net, cache);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.hits_memory - after_first.hits_memory,
            static_cast<std::int64_t>(net.layer_count()));

  ASSERT_EQ(direct.layers.size(), first.layers.size());
  ASSERT_EQ(direct.layers.size(), second.layers.size());
  for (std::size_t i = 0; i < direct.layers.size(); ++i) {
    const ScheduleCacheKey probe = key_of_shape(1);  // any key: encoding only
    // encode_cache_entry covers every cached field with hexfloat doubles,
    // so string equality == bit-identical schedules.
    EXPECT_EQ(encode_cache_entry(probe, direct.layers[i]),
              encode_cache_entry(probe, first.layers[i]))
        << "layer " << i << " diverged on the cold pass";
    EXPECT_EQ(encode_cache_entry(probe, direct.layers[i]),
              encode_cache_entry(probe, second.layers[i]))
        << "layer " << i << " diverged on the warm pass";
    EXPECT_EQ(direct.layers[i].layer_name, second.layers[i].layer_name);
  }
  EXPECT_EQ(direct.total_tiles(), second.total_tiles());
  EXPECT_EQ(direct.total_energy(), second.total_energy());
  EXPECT_EQ(direct.total_cycles(), second.total_cycles());
}

// ---------------------------------------------------------------- engine

Request quick_request(std::string id, RequestOp op) {
  Request req;
  req.id = std::move(id);
  req.op = op;
  req.workload = "Sqz";
  req.array_width = 8;
  req.array_height = 8;
  req.iterations = 20;
  return req;
}

TEST(EngineTest, RepeatedBatchesAreCachedAndBitIdentical) {
  EngineOptions options;
  options.threads = 4;
  Engine engine(options);

  const auto run_batch = [&] {
    std::vector<std::future<Response>> futures;
    for (const char* id : {"b0", "b1", "b2"}) {
      futures.push_back(
          engine.submit(quick_request(id, RequestOp::kLifetime)));
    }
    std::vector<Response> replies;
    for (auto& f : futures) replies.push_back(f.get());
    return replies;
  };

  const auto pass1 = run_batch();
  const auto warm = engine.cache_stats();
  EXPECT_GT(warm.misses, 0);
  const auto pass2 = run_batch();
  const auto after = engine.cache_stats();
  EXPECT_EQ(after.misses, warm.misses) << "second pass must not re-search";
  EXPECT_GT(after.hits_memory, warm.hits_memory);

  ASSERT_EQ(pass1.size(), 3u);
  for (const Response& r : pass1) {
    EXPECT_TRUE(r.ok) << r.error.message;
    // Identical requests (bar id) are bit-identical across lanes...
    EXPECT_EQ(r.payload_json, pass1.front().payload_json);
  }
  // ...and across cold/warm passes.
  for (std::size_t i = 0; i < pass1.size(); ++i) {
    EXPECT_EQ(pass1[i].payload_json, pass2[i].payload_json);
    // Built with append rather than "b" + to_string(i): GCC 12 at -O3
    // raises a spurious -Wrestrict on operator+(const char*, string&&).
    std::string expected_id = "b";
    expected_id += std::to_string(i);
    EXPECT_EQ(pass2[i].id, expected_id);
  }
}

TEST(EngineTest, EngineMatchesSerialExperimentNumbers) {
  Engine engine(EngineOptions{});
  Request req = quick_request("x", RequestOp::kWear);
  req.policy = wear::PolicyKind::kRwlRo;
  const Response resp = engine.execute(req);
  ASSERT_TRUE(resp.ok) << resp.error.message;

  // Reproduce the serial CLI path by hand and compare the statistics.
  arch::AcceleratorConfig accel = arch::rota_like();
  accel.array_width = 8;
  accel.array_height = 8;
  sched::Mapper mapper(accel, sched::ObjectiveSpec{});
  const sched::NetworkSchedule ns =
      mapper.schedule_network(nn::make_squeezenet());
  auto policy = wear::make_policy(wear::PolicyKind::kRwlRo, 8, 8, req.seed);
  wear::WearSimulator sim(accel, {true, req.metric});
  sim.run_iterations(ns, *policy, req.iterations);
  const wear::UsageStats expect = sim.tracker().stats();

  auto doc = JsonValue::parse(resp.payload_json);
  ASSERT_TRUE(doc.ok()) << resp.payload_json;
  const JsonValue* stats = doc.value().find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("min")->as_int64().value(), expect.min);
  EXPECT_EQ(stats->find("max")->as_int64().value(), expect.max);
  EXPECT_EQ(stats->find("d_max")->as_int64().value(), expect.max_diff);

  // The lifetime op: each reply's improvement (%.17g, which round-trips)
  // equals Experiment's Eq. 4 ratio on the same request, bit for bit.
  const Request life = quick_request("l", RequestOp::kLifetime);
  const Response life_resp = engine.execute(life);
  ASSERT_TRUE(life_resp.ok) << life_resp.error.message;
  ExperimentConfig cfg;
  cfg.accel = accel;
  cfg.iterations = life.iterations;
  cfg.metric = life.metric;
  cfg.seed = life.seed;
  Experiment exp(cfg);
  const std::vector<wear::PolicyKind> kinds{wear::PolicyKind::kBaseline,
                                            wear::PolicyKind::kRwl,
                                            wear::PolicyKind::kRwlRo};
  const ExperimentResult res = exp.run(nn::make_squeezenet(), kinds);
  auto life_doc = JsonValue::parse(life_resp.payload_json);
  ASSERT_TRUE(life_doc.ok()) << life_resp.payload_json;
  const JsonValue* runs = life_doc.value().find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->array().size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const JsonValue& run = runs->array()[i];
    EXPECT_EQ(run.find("policy")->str(), res.runs[i].policy_name);
    EXPECT_EQ(run.find("improvement")->number(),
              res.improvement_over_baseline(kinds[i]))
        << run.find("policy")->str();
  }
}

TEST(EngineTest, StructuredErrorsNeverUnwindTheEngine) {
  Engine engine(EngineOptions{});
  Request unknown = quick_request("u", RequestOp::kSchedule);
  unknown.workload = "Zzz";
  const Response bad = engine.execute(unknown);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(bad.id, "u");

  Request bad_geometry = quick_request("g", RequestOp::kSchedule);
  bad_geometry.array_width = -3;
  EXPECT_FALSE(engine.execute(bad_geometry).ok);

  // The engine still serves correctly after errors.
  EXPECT_TRUE(engine.execute(quick_request("p", RequestOp::kPing)).ok);
}

TEST(EngineTest, CancelledRequestsAnswerWithoutExecuting) {
  Engine engine(EngineOptions{});
  Request req = quick_request("c", RequestOp::kLifetime);
  req.cancel = std::make_shared<std::atomic<bool>>(true);  // pre-cancelled
  const Response resp = engine.submit(std::move(req)).get();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error.code, ErrorCode::kCancelled);
  EXPECT_EQ(engine.cache_stats().misses, 0) << "must not have scheduled";
}

TEST(EngineTest, QueuedDeadlineExpiryIsStructured) {
  // The doomed request must queue behind work the test holds: the first
  // request's disk-cache write blocks in the I/O hook until the test has
  // slept past the doomed request's deadline. A merely slow first request
  // is not enough: the submitting thread can be descheduled for the whole
  // few-ms schedule before it submits the second one.
  const TempDir dir;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> held{false};
  util::set_io_fault_hook(
      [&](util::IoOp op, const std::string& /*path*/, std::string* /*data*/) {
        if (op == util::IoOp::kWrite && !held.exchange(true)) released.wait();
      });
  struct HookReset {
    ~HookReset() { util::set_io_fault_hook(nullptr); }
  } hook_reset;
  EngineOptions options;
  options.threads = 1;  // serial lanes: the held job blocks the queue
  options.cache.disk_dir = dir.path.string();
  Engine engine(options);
  auto held_future = engine.submit(quick_request("h", RequestOp::kSchedule));
  Request doomed = quick_request("d", RequestOp::kLifetime);
  doomed.deadline_ms = 1;
  auto late_future = engine.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release.set_value();
  const Response late = late_future.get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.error.code, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(held_future.get().ok);
  EXPECT_TRUE(held.load()) << "the first request never reached the hook";
}

TEST(EngineTest, ShutdownDrainsThenRefuses) {
  Engine engine(EngineOptions{});
  auto accepted = engine.submit(quick_request("a", RequestOp::kPing));
  engine.shutdown();
  EXPECT_TRUE(accepted.get().ok) << "accepted work must be answered";
  const Response refused =
      engine.submit(quick_request("z", RequestOp::kPing)).get();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error.code, ErrorCode::kUnavailable);
  engine.shutdown();  // idempotent
}

// ------------------------------------------------------------ serve loop

std::vector<JsonValue> serve_lines(Engine& engine, const std::string& input,
                                   int* exit_code = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  const int code = engine.serve(in, out);
  if (exit_code != nullptr) *exit_code = code;
  std::vector<JsonValue> replies;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto doc = JsonValue::parse(line);
    EXPECT_TRUE(doc.ok()) << "reply is not valid JSON: " << line;
    if (doc.ok()) replies.push_back(std::move(doc).take());
  }
  return replies;
}

TEST(ServeTest, AnswersInInputOrderWithStructuredErrors) {
  EngineOptions options;
  options.threads = 2;
  options.max_request_bytes = 512;
  Engine engine(options);
  std::string batch;
  batch += R"({"schema_version":2,"id":"r1","op":"ping"})" "\n";
  batch += "\n";  // blank lines are skipped, not answered
  batch += "this is not json\n";
  batch += R"({"schema_version":1,"id":"r3","op":"ping"})" "\n";
  batch += R"({"schema_version":2,"id":"r4","op":"ping","pad":")" +
           std::string(600, 'x') + "\"}\n";
  batch += R"({"schema_version":2,"id":"r5","op":"schedule",)"
           R"("workload":"Sqz","array":"8x8"})" "\n";
  batch += R"({"schema_version":2,"id":"r6","op":"schedule",)"
           R"("workload":"Zzz"})" "\n";

  int code = -1;
  const auto replies = serve_lines(engine, batch, &code);
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), 6u);

  const auto id_of = [&](std::size_t i) {
    const JsonValue* id = replies[i].find("id");
    return id->is_string() ? id->str() : std::string("<null>");
  };
  const auto code_of = [&](std::size_t i) {
    return replies[i].find("error")->find("code")->str();
  };
  EXPECT_EQ(id_of(0), "r1");
  EXPECT_TRUE(replies[0].find("ok")->boolean());
  EXPECT_EQ(id_of(1), "<null>");  // unparseable: no id to salvage
  EXPECT_EQ(code_of(1), "invalid_argument");
  EXPECT_EQ(id_of(2), "r3");  // wrong version, id still salvaged
  EXPECT_EQ(code_of(2), "invalid_argument");
  EXPECT_EQ(id_of(3), "r4");
  EXPECT_EQ(code_of(3), "resource_exhausted");
  EXPECT_EQ(id_of(4), "r5");
  EXPECT_TRUE(replies[4].find("ok")->boolean());
  EXPECT_GT(replies[4].find("result")->find("layers")->number(), 0.0);
  EXPECT_EQ(id_of(5), "r6");
  EXPECT_EQ(code_of(5), "invalid_argument");

  for (const JsonValue& reply : replies) {
    EXPECT_EQ(reply.find("schema_version")->as_int64().value(),
              obs::kSchemaVersion);
  }
}

TEST(ServeTest, ShutdownOpDrainsAndStopsTheLoop) {
  Engine engine(EngineOptions{});
  std::string batch;
  batch += R"({"schema_version":2,"id":"s1","op":"ping"})" "\n";
  batch += R"({"schema_version":2,"id":"s2","op":"shutdown"})" "\n";
  batch += R"({"schema_version":2,"id":"s3","op":"ping"})" "\n";  // unread

  const auto replies = serve_lines(engine, batch);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].find("id")->str(), "s1");
  EXPECT_EQ(replies[1].find("id")->str(), "s2");
  EXPECT_TRUE(replies[1].find("result")->find("stopping")->boolean());
  // The engine is drained: later submissions are refused.
  const Response refused =
      engine.submit(quick_request("z", RequestOp::kPing)).get();
  EXPECT_EQ(refused.error.code, ErrorCode::kUnavailable);
}

TEST(ServeTest, WarmCacheServesRepeatedWorkloadWithoutResearch) {
  Engine engine(EngineOptions{});
  const std::string line =
      R"({"schema_version":2,"id":"w","op":"schedule",)"
      R"("workload":"Sqz","array":"8x8"})" "\n";
  std::istringstream in(line + line + line);
  std::ostringstream out;
  EXPECT_EQ(engine.serve(in, out), 0);
  const auto stats = engine.cache_stats();
  // Exactly one cold pass: misses == unique shapes, hits cover the rest.
  EXPECT_GT(stats.hits_memory, 0);
  EXPECT_GE(stats.hits_memory, stats.misses);
}

// ------------------------------------------------- malformed corpus ----

// --------------------------------------------------------- live telemetry

/// The request-scoped telemetry writes to the global registry; tests that
/// enable it must restore the disabled default.
struct MetricsGuard {
  MetricsGuard() {
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::global().set_enabled(true);
  }
  ~MetricsGuard() {
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::global().set_enabled(false);
  }
};

TEST(EngineTest, ResponsesCarryEngineAssignedRequestSeq) {
  Engine engine(EngineOptions{});
  const Response first = engine.submit(quick_request("a", RequestOp::kPing)).get();
  const Response second =
      engine.submit(quick_request("b", RequestOp::kPing)).get();
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(second.seq, 2u);
}

TEST(EngineTest, StatsOpReturnsLiveSnapshotInBand) {
  MetricsGuard metrics;
  Engine engine(EngineOptions{});
  ASSERT_TRUE(engine.execute(quick_request("warm", RequestOp::kPing)).ok);

  const Response resp =
      engine.execute(quick_request("s1", RequestOp::kStats));
  ASSERT_TRUE(resp.ok) << resp.error.message;
  auto doc = JsonValue::parse(resp.payload_json);
  ASSERT_TRUE(doc.ok()) << resp.payload_json;
  EXPECT_EQ(doc.value().find("schema_version")->as_int64().value(),
            obs::kSchemaVersion);
  EXPECT_EQ(doc.value().find("kind")->str(),
            "metrics_snapshot");
  EXPECT_EQ(doc.value().find("seq")->as_int64().value(), 1);
  ASSERT_NE(doc.value().find("metrics"), nullptr);

  // The snapshot seq is per-engine and monotonic.
  const Response again =
      engine.execute(quick_request("s2", RequestOp::kStats));
  auto doc2 = JsonValue::parse(again.payload_json);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2.value().find("seq")->as_int64().value(), 2);
}

TEST(ServeTest, RequestPhasesLandInLatencyHistograms) {
  MetricsGuard metrics;
  EngineOptions options;
  options.threads = 2;
  Engine engine(options);
  std::string batch;
  for (int i = 0; i < 4; ++i)
    batch += R"({"schema_version":2,"id":"p)" + std::to_string(i) +
             R"(","op":"ping"})" "\n";
  const std::vector<JsonValue> replies = serve_lines(engine, batch);
  ASSERT_EQ(replies.size(), 4u);

  const obs::MetricsExport ex = obs::MetricsRegistry::global().export_all();
  for (const char* name :
       {"svc.queue_wait_ms", "svc.compute_ms", "svc.reply_ms"}) {
    const auto it = ex.histograms.find(name);
    ASSERT_NE(it, ex.histograms.end()) << name;
    EXPECT_GE(it->second.count, 4) << name;
    EXPECT_GE(it->second.p99, it->second.p50) << name;
  }
  // The depth/inflight gauges were exercised and settled back to idle.
  const auto depth = ex.gauges.find("svc.queue_depth");
  ASSERT_NE(depth, ex.gauges.end());
  EXPECT_DOUBLE_EQ(depth->second, 0.0);
  ASSERT_NE(ex.gauges.find("svc.inflight"), ex.gauges.end());
}

/// Every file in tests/corpus/jsonv is a hand-written malformed (or
/// pathological) payload: truncations, deep nesting, non-finite numbers,
/// raw control characters, stray bytes.  The parser must reject them with
/// a structured error — never crash, hang, or throw — and the request
/// layer must refuse all of them (none carries a valid schema_version).
TEST(JsonTest, MalformedCorpusIsRejectedWithoutCrashing) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(ROTA_TEST_CORPUS_DIR) / "jsonv";
  ASSERT_TRUE(fs::is_directory(dir)) << dir;

  int files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in.is_open()) << entry.path();
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const auto parsed = JsonValue::parse(text);
    // jsonv deliberately passes non-control bytes through without UTF-8
    // validation, so the invalid-UTF-8 sample parses at this level; every
    // other corpus entry must fail with a diagnostic.
    if (entry.path().filename() != "invalid_utf8.json") {
      EXPECT_FALSE(parsed.ok()) << entry.path();
      if (!parsed.ok()) {
        EXPECT_FALSE(parsed.error().message.empty()) << entry.path();
      }
    }

    const auto request = parse_request(text, 1 << 20);
    EXPECT_FALSE(request.ok()) << entry.path();
  }
  // Guard against the corpus silently disappearing from the tree.
  EXPECT_GE(files, 20) << "corpus directory lost files: " << dir;
}

}  // namespace
}  // namespace rota::svc
