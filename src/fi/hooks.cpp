#include "fi/hooks.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace rota::fi {

namespace {

/// All mutable hook state. The counters are atomics (the hooks fire from
/// pool workers); plan and armed flag only change under arm()/disarm(),
/// which tests serialize externally.
struct HookState {
  util::Mutex mu;  ///< guards plan against concurrent arm/disarm
  SoftwarePlan plan ROTA_GUARDED_BY(mu);
  std::atomic<bool> armed{false};
  std::atomic<std::uint64_t> read_seq{0};
  std::atomic<std::uint64_t> write_seq{0};
  std::atomic<std::uint64_t> stall_seq{0};
  std::atomic<std::uint64_t> alloc_seq{0};
  std::atomic<std::int64_t> read_faults{0};
  std::atomic<std::int64_t> write_faults{0};
  std::atomic<std::int64_t> corruptions{0};
  std::atomic<std::int64_t> stalls{0};
  std::atomic<std::int64_t> alloc_faults{0};
};

HookState& state() {
  static HookState s;
  return s;
}

/// Category tags decorrelate the per-category decision streams.
constexpr std::uint64_t kReadTag = 0x66692d7265616421;   // "fi-read!"
constexpr std::uint64_t kWriteTag = 0x66692d7772697465;  // "fi-write"
constexpr std::uint64_t kCorruptTag = 0x66692d636f7272;  // "fi-corr"
constexpr std::uint64_t kStallTag = 0x66692d7374616c6c;  // "fi-stall"
constexpr std::uint64_t kAllocTag = 0x66692d616c6c6f63;  // "fi-alloc"

/// One deterministic Bernoulli draw for (seed, tag, sequence number).
bool decide(std::uint64_t seed, std::uint64_t tag, std::uint64_t seq,
            double rate) {
  if (rate <= 0.0) return false;
  util::SplitMix64 rng(seed ^ tag ^ (seq * 0x9e3779b97f4a7c15ULL));
  return rng.next_double() < rate;
}

bool path_matches(const SoftwarePlan& plan, const std::string& path) {
  return plan.path_match.empty() ||
         path.find(plan.path_match) != std::string::npos;
}

/// The util file-I/O hook: fails reads/writes with util::io_error and
/// corrupts read payloads in place.
void io_hook(util::IoOp op, const std::string& path, std::string* data) {
  HookState& s = state();
  SoftwarePlan plan;
  {
    const util::MutexLock lock(s.mu);
    plan = s.plan;
  }
  if (!path_matches(plan, path)) return;
  auto& reg = obs::MetricsRegistry::global();
  if (op == util::IoOp::kWrite) {
    const std::uint64_t seq =
        s.write_seq.fetch_add(1, std::memory_order_relaxed);
    if (decide(plan.seed, kWriteTag, seq, plan.write_fail_rate)) {
      s.write_faults.fetch_add(1, std::memory_order_relaxed);
      reg.add("fi.write_faults");
      throw util::io_error("injected write fault for " + path);
    }
    return;
  }
  const std::uint64_t seq = s.read_seq.fetch_add(1, std::memory_order_relaxed);
  if (decide(plan.seed, kReadTag, seq, plan.read_fail_rate)) {
    s.read_faults.fetch_add(1, std::memory_order_relaxed);
    reg.add("fi.read_faults");
    throw util::io_error("injected read fault for " + path);
  }
  if (data != nullptr && !data->empty() &&
      decide(plan.seed, kCorruptTag, seq, plan.corrupt_rate)) {
    // Flip one deterministic byte — enough to break any checksum or
    // format magic without changing the payload size.
    util::SplitMix64 rng(plan.seed ^ kCorruptTag ^ seq);
    const std::size_t pos = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(data->size())));
    (*data)[pos] = static_cast<char>((*data)[pos] ^ 0x5a);
    s.corruptions.fetch_add(1, std::memory_order_relaxed);
    reg.add("fi.corruptions");
  }
}

/// The par worker hook: stalls a fraction of pool tasks.
void worker_hook() {
  HookState& s = state();
  SoftwarePlan plan;
  {
    const util::MutexLock lock(s.mu);
    plan = s.plan;
  }
  const std::uint64_t seq = s.stall_seq.fetch_add(1, std::memory_order_relaxed);
  if (!decide(plan.seed, kStallTag, seq, plan.stall_rate)) return;
  s.stalls.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().add("fi.stalls");
  if (plan.stall_ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(plan.stall_ms));
}

}  // namespace

void Hooks::arm(const SoftwarePlan& plan) {
  if (!plan.any()) {
    disarm();
    return;
  }
  HookState& s = state();
  {
    const util::MutexLock lock(s.mu);
    s.plan = plan;
  }
  reset_counters();
  s.armed.store(true, std::memory_order_relaxed);
  if (plan.read_fail_rate > 0.0 || plan.write_fail_rate > 0.0 ||
      plan.corrupt_rate > 0.0) {
    util::set_io_fault_hook(io_hook);
  } else {
    util::set_io_fault_hook({});
  }
  if (plan.stall_rate > 0.0) {
    par::set_worker_fault_hook(worker_hook);
  } else {
    par::set_worker_fault_hook({});
  }
}

void Hooks::disarm() {
  HookState& s = state();
  util::set_io_fault_hook({});
  par::set_worker_fault_hook({});
  s.armed.store(false, std::memory_order_relaxed);
  const util::MutexLock lock(s.mu);
  s.plan = SoftwarePlan{};
}

bool Hooks::armed() { return state().armed.load(std::memory_order_relaxed); }

SoftwarePlan Hooks::plan() {
  HookState& s = state();
  const util::MutexLock lock(s.mu);
  return s.plan;
}

HookCounters Hooks::counters() {
  HookState& s = state();
  HookCounters c;
  c.read_faults = s.read_faults.load(std::memory_order_relaxed);
  c.write_faults = s.write_faults.load(std::memory_order_relaxed);
  c.corruptions = s.corruptions.load(std::memory_order_relaxed);
  c.stalls = s.stalls.load(std::memory_order_relaxed);
  c.alloc_faults = s.alloc_faults.load(std::memory_order_relaxed);
  return c;
}

void Hooks::reset_counters() {
  HookState& s = state();
  s.read_seq.store(0, std::memory_order_relaxed);
  s.write_seq.store(0, std::memory_order_relaxed);
  s.stall_seq.store(0, std::memory_order_relaxed);
  s.alloc_seq.store(0, std::memory_order_relaxed);
  s.read_faults.store(0, std::memory_order_relaxed);
  s.write_faults.store(0, std::memory_order_relaxed);
  s.corruptions.store(0, std::memory_order_relaxed);
  s.stalls.store(0, std::memory_order_relaxed);
  s.alloc_faults.store(0, std::memory_order_relaxed);
}

bool Hooks::should_fail_alloc(std::string_view site) {
  HookState& s = state();
  if (!s.armed.load(std::memory_order_relaxed)) return false;
  SoftwarePlan plan;
  {
    const util::MutexLock lock(s.mu);
    plan = s.plan;
  }
  if (plan.alloc_fail_rate <= 0.0) return false;
  // The site label shifts the stream so distinct sites fail independently.
  const std::uint64_t site_hash = util::fnv1a64(site);
  const std::uint64_t seq = s.alloc_seq.fetch_add(1, std::memory_order_relaxed);
  if (!decide(plan.seed ^ site_hash, kAllocTag, seq, plan.alloc_fail_rate))
    return false;
  s.alloc_faults.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().add("fi.alloc_faults");
  return true;
}

bool Hooks::arm_from_env() {
  const char* spec = std::getenv("ROTA_FI");
  if (spec == nullptr || spec[0] == '\0') return false;
  auto plan = parse_software_plan(spec);
  ROTA_REQUIRE(plan.ok(), "ROTA_FI: " + plan.error().message);
  arm(plan.value());
  return true;
}

}  // namespace rota::fi
