// perf_e2e — the end-to-end benchmark program (see NOTES.md).
//
// One process runs one workload. A seeded set-up phase generates the
// inputs, builds the long-lived objects and makes one untimed warm-up pass
// over the op list, recording each op's reference output. The timed
// window then replays whole passes of the same ops, and every op's
// simulated output is digested and compared with its reference (and, where
// one is recorded, with the pinned digest in pins.txt). Ops call the
// library's public layer functions in the order the CLI verbs call them,
// so spans recorded around those calls give each layer's share of an op
// without tracing inside the library.
//
//   perf_e2e --workload W --seed N --seconds S --trace 0|1 --pins FILE
//            [--perturb]           flip every reference (self-check)
//   perf_e2e --record-pins         print pins.txt for the default seed
//
// Prints one JSON object: correctness counts, the host/run stamp and
// either the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "fi/degrade.hpp"
#include "fi/inject.hpp"
#include "kern/kern.hpp"
#include "nn/workloads.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "reliability/array_reliability.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/spares.hpp"
#include "sched/mapper.hpp"
#include "svc/engine.hpp"
#include "util/rng.hpp"
#include "wear/policy.hpp"
#include "wear/simulator.hpp"

namespace {

using namespace rota;

constexpr std::uint64_t kDefaultSeed = 1;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Linear-interpolated quantile (numpy's default), q in [0, 1]; 0 for
/// no samples.
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median_of(std::vector<double> v) {
  return quantile_of(std::move(v), 0.5);
}

/// FNV-1a over everything fed to it; the digest compared per op.
class Digest {
 public:
  Digest& add(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(0xff);  // field separator
    return *this;
  }
  Digest& add(std::int64_t v) { return add(std::to_string(v)); }
  Digest& add(double v) { return add(hexfloat(v)); }
  Digest& add(const std::vector<std::int64_t>& cells) {
    for (const std::int64_t v : cells) add(v);
    return *this;
  }
  Digest& add(const std::vector<double>& cells) {
    for (const double v : cells) add(v);
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ----------------------------------------------------------------- tracing

/// One recorded span. `parent` indexes the enclosing span (-1 for an op's
/// root span); every span of one op carries the op's id.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::int64_t op = -1;
};

/// Spans kept in memory while `enabled`; all recording happens on the
/// benchmark's thread, around the library calls it makes.
struct Tracer {
  bool enabled = false;
  std::vector<Span> spans;
  int open = -1;
  std::int64_t op = -1;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
    if (!tracer_.enabled) return;
    index_ = static_cast<int>(tracer_.spans.size());
    tracer_.spans.push_back({name, 0, 0, tracer_.open, tracer_.op});
    tracer_.open = index_;
    tracer_.spans.back().start = now_ns();
  }
  ~Scope() {
    if (index_ < 0) return;
    Span& span = tracer_.spans[static_cast<std::size_t>(index_)];
    span.end = now_ns();
    tracer_.open = span.parent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_ = -1;
};

// --------------------------------------------------------------- workloads

/// What verify() learned about the last executed op.
struct OpCheck {
  std::string key;     ///< reference key (same input => same key)
  std::string digest;  ///< digest of the simulated output
  std::string error;   ///< non-empty: an invariant check failed
  std::string kind;    ///< op kind (serve-replay request op)
  double work = 0.0;   ///< simulated work units completed
};

/// Per-op counters, summed over the traced window's ops.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Seeded inputs plus every long-lived object the ops use.
  virtual void build(std::uint64_t seed) = 0;
  /// Inputs that cover every pinned key (the default seed's op list; for
  /// serve-replay one request per distinct request).
  virtual void build_pin_universe() { build(kDefaultSeed); }
  /// Ops per pass; the warm-up runs ops [0, warmup_ops()).
  [[nodiscard]] virtual std::size_t pass_length() const = 0;
  [[nodiscard]] virtual std::size_t warmup_ops() const {
    return pass_length();
  }
  /// Switch from warm-up to timed-window settings.
  virtual void begin_timed() {}
  /// Library threads of the timed window.
  [[nodiscard]] virtual int threads() const { return 1; }
  /// The timed part of op `k`: calls into the layers only.
  virtual void execute(std::size_t k) = 0;
  /// Digest and check the last executed op (untimed).
  virtual OpCheck verify(std::size_t k, Counts& counts) = 0;

  Tracer tracer;
};

const arch::AcceleratorConfig& accel_14x12() {
  static const arch::AcceleratorConfig accel = [] {
    arch::AcceleratorConfig cfg = arch::rota_like();
    cfg.validate();
    return cfg;
  }();
  return accel;
}

void digest_schedule(Digest& d, const sched::NetworkSchedule& ns) {
  for (const auto& layer : ns.layers) {
    d.add(layer.layer_name)
        .add(layer.space.x)
        .add(layer.space.y)
        .add(layer.tiles)
        .add(layer.mapping.str());
  }
}

std::vector<double> alphas_of(const util::Grid<std::int64_t>& usage,
                              double scale = 1.0) {
  std::vector<double> a;
  a.reserve(usage.size());
  for (const std::int64_t v : usage.cells())
    a.push_back(static_cast<double>(v) / scale);
  return a;
}

// zoo-lifetime: `rota lifetime <net> --spares 2` per op — a cold schedule,
// Baseline / RWL / RWL+RO x 1000 iterations, Eq. 4 and a 2-spare MTTF.
class ZooLifetime final : public Workload {
 public:
  void build(std::uint64_t seed) override {
    nets_ = nn::all_workloads();
    // Copies of each network per pass. Sorted by op time, the 20 ops put
    // p50 inside the close Mb/YL/Eff cluster and p90 in the middle of
    // Inc's band; LM, the slowest op and the one host noise moves most,
    // stays in the top 5% (NOTES.md).
    static constexpr std::array<std::pair<std::string_view, int>, 9> kCopies =
        {{{"Sqz", 2}, {"Res", 2}, {"VT", 2}, {"Mb", 3}, {"YL", 3}, {"Eff", 3},
          {"MVT", 2}, {"Inc", 2}, {"LM", 1}}};
    std::vector<std::size_t> pass;
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      const auto copies = std::find_if(
          kCopies.begin(), kCopies.end(),
          [&](const auto& c) { return c.first == nets_[i].abbr(); });
      if (copies == kCopies.end())
        throw std::runtime_error("no pass weight for " + nets_[i].abbr());
      pass.insert(pass.end(), static_cast<std::size_t>(copies->second), i);
    }
    util::SplitMix64 rng(seed);
    for (std::size_t i = pass.size(); i > 1; --i)
      std::swap(pass[i - 1], pass[rng.next_below(i)]);
    order_ = std::move(pass);
  }
  [[nodiscard]] std::size_t pass_length() const override {
    return order_.size();
  }

  void execute(std::size_t k) override {
    const nn::Network& net = nets_[order_[k % order_.size()]];
    const arch::AcceleratorConfig& accel = accel_14x12();
    {
      const Scope s(tracer, "sched.schedule_network");
      sched::Mapper mapper(accel, sched::ObjectiveSpec{}, {},
                           sched::MapperOptions{true, 1});
      schedule_ = mapper.schedule_network(net);
    }
    static constexpr const char* kSpan[3] = {
        "wear.run_iterations.baseline", "wear.run_iterations.rwl",
        "wear.run_iterations.rwl_ro"};
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const Scope s(tracer, kSpan[p]);
      auto policy = wear::make_policy(kPolicies[p], accel.array_width,
                                      accel.array_height, kPolicySeed);
      wear::WearSimulator sim(accel, {true, wear::WearMetric::kAllocations});
      sim.run_iterations(schedule_, *policy, kIterations);
      usage_[p] = sim.tracker().usage();
      stats_[p] = sim.tracker().stats();
    }
    {
      const Scope s(tracer, "reliability.lifetime_improvement");
      const std::vector<double> base = alphas_of(usage_[0]);
      improvement_[0] = rel::lifetime_improvement(base, alphas_of(usage_[1]));
      improvement_[1] = rel::lifetime_improvement(base, alphas_of(usage_[2]));
    }
    {
      const Scope s(tracer, "reliability.spare_array_mttf");
      // Shared activity scale, as `rota lifetime --spares` uses.
      double peak = 1.0;
      for (const std::int64_t v : usage_[0].cells())
        peak = std::max(peak, static_cast<double>(v));
      mttf_[0] = rel::spare_array_mttf(alphas_of(usage_[0], peak), kSpares);
      mttf_[1] = rel::spare_array_mttf(alphas_of(usage_[2], peak), kSpares);
    }
  }

  OpCheck verify(std::size_t k, Counts& counts) override {
    const nn::Network& net = nets_[order_[k % order_.size()]];
    OpCheck c;
    c.key = net.abbr();
    Digest d;
    digest_schedule(d, schedule_);
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      d.add(usage_[p].cells())
          .add(stats_[p].min)
          .add(stats_[p].max)
          .add(stats_[p].max_diff)
          .add(stats_[p].r_diff)
          .add(stats_[p].mean);
    }
    d.add(improvement_[0]).add(improvement_[1]).add(mttf_[0]).add(mttf_[1]);
    c.digest = d.hex();
    // The repository's pinned behaviour check (README / verify notes).
    if (net.abbr() == "YL" && stats_[2].max_diff != 62) {
      c.error = "wear YL RWL+RO x1000 D_max = " +
                std::to_string(stats_[2].max_diff) + ", expected 62";
    }
    const double tiles = static_cast<double>(schedule_.total_tiles()) *
                         static_cast<double>(kIterations) *
                         static_cast<double>(kPolicies.size());
    c.work = tiles;
    counts["wear.tiles_placed"] += tiles;
    counts["sched.layers_scheduled"] +=
        static_cast<double>(schedule_.layers.size());
    return c;
  }

 private:
  static constexpr std::int64_t kIterations = 1000;
  static constexpr std::int64_t kSpares = 2;
  static constexpr std::uint64_t kPolicySeed = 0x526f5441;  // Experiment
  static constexpr std::array<wear::PolicyKind, 3> kPolicies = {
      wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
      wear::PolicyKind::kRwlRo};

  std::vector<nn::Network> nets_;
  std::vector<std::size_t> order_;
  sched::NetworkSchedule schedule_;
  std::array<util::Grid<std::int64_t>, 3> usage_;
  std::array<wear::UsageStats, 3> stats_;
  std::array<double, 2> improvement_{};
  std::array<double, 2> mttf_{};
};

// pareto-faulted: `rota pareto` over the whole zoo per op, under the
// lifetime or weighted objective, on an intact array or one with 1-6 dead
// PEs folded in through fi::array_state_from_faults. Warm-up at 1 thread,
// timed window at 2; the fronts must match bit for bit.
class ParetoFaulted final : public Workload {
 public:
  void build(std::uint64_t seed) override {
    nets_ = nn::all_workloads();
    util::SplitMix64 rng(seed ^ 0x70617265746fULL);
    std::vector<std::int64_t> dead_counts = {0, 1, 2, 3, 4, 5, 6};
    for (std::size_t i = dead_counts.size(); i > 1; --i)
      std::swap(dead_counts[i - 1], dead_counts[rng.next_below(i)]);
    const arch::AcceleratorConfig& accel = accel_14x12();
    states_.clear();
    for (std::size_t i = 0; i < dead_counts.size(); ++i) {
      State st;
      st.objective = i % 2 ? kWeighted : kLifetime;
      st.key = st.objective + "/";
      std::vector<std::pair<std::int64_t, std::int64_t>> dead;
      while (static_cast<std::int64_t>(dead.size()) < dead_counts[i]) {
        const auto u = static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(accel.array_width)));
        const auto v = static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(accel.array_height)));
        if (std::find(dead.begin(), dead.end(), std::pair{u, v}) !=
            dead.end())
          continue;
        dead.emplace_back(u, v);
        const std::string pe = std::to_string(u) + "," + std::to_string(v);
        st.faults.push_back(fi::parse_hardware_fault("pe=" + pe + "@1").take());
        st.key += (dead.size() > 1 ? ";pe" : "pe") + pe;
      }
      if (dead.empty()) st.key += "intact";
      states_.push_back(std::move(st));
    }
    threads_ = 1;
  }
  /// The default seed's states plus the intact array under both
  /// objectives: intact states recur in every seed's list, so their fronts
  /// are checked against pins in every run.
  void build_pin_universe() override {
    build(kDefaultSeed);
    for (const char* objective : {kLifetime, kWeighted})
      states_.push_back({objective, std::string(objective) + "/intact", {}});
  }
  [[nodiscard]] std::size_t pass_length() const override {
    return states_.size();
  }
  void begin_timed() override { threads_ = 2; }
  [[nodiscard]] int threads() const override { return 2; }

  void execute(std::size_t k) override {
    const State& st = states_[k % states_.size()];
    const arch::AcceleratorConfig& accel = accel_14x12();
    sched::ArrayState array;
    if (!st.faults.empty()) {
      const Scope s(tracer, "fi.array_state_from_faults");
      auto state = fi::array_state_from_faults(
          accel.array_width, accel.array_height, st.faults, 0);
      if (!state.ok()) throw std::runtime_error(state.error().message);
      array = std::move(state).take();
    }
    const auto objective = sched::parse_objective(st.objective);
    if (!objective.ok()) throw std::runtime_error(objective.error().message);
    const sched::Mapper mapper(accel, objective.value(), {},
                               sched::MapperOptions{true, threads_}, array);
    const char* span = st.faults.empty() ? "sched.pareto_network.intact"
                                         : "sched.pareto_network.degraded";
    fronts_.clear();
    for (const nn::Network& net : nets_) {
      const Scope s(tracer, span);
      fronts_.push_back(mapper.pareto_network(net));
    }
  }

  OpCheck verify(std::size_t k, Counts& counts) override {
    OpCheck c;
    c.key = states_[k % states_.size()].key;
    Digest d;
    double layers = 0;
    double points = 0;
    for (const auto& front : fronts_) {
      d.add(front.network_abbr).add(front.array_digest).add(front.live_pes);
      for (const auto& layer : front.layers) {
        d.add(layer.layer_name);
        for (const auto& p : layer.points) {
          d.add(p.mapping.str())
              .add(p.energy)
              .add(p.cycles)
              .add(p.mttf)
              .add(p.tiles)
              .add(p.pe_allocations)
              .add(p.anchor_u)
              .add(p.anchor_v)
              .add(std::int64_t{p.selected ? 1 : 0});
        }
        points += static_cast<double>(layer.points.size());
      }
      layers += static_cast<double>(front.layers.size());
    }
    c.digest = d.hex();
    c.work = layers;
    counts["sched.layers_searched"] += layers;
    counts["sched.front_points"] += points;
    return c;
  }

 private:
  struct State {
    std::string objective;
    std::string key;  ///< objective and dead set: same key, same input
    std::vector<fi::HardwareFault> faults;
  };
  static constexpr const char* kLifetime = "lifetime";
  static constexpr const char* kWeighted = "weighted:0.2,0.7,0.1";

  std::vector<nn::Network> nets_;
  std::vector<State> states_;
  std::vector<sched::NetworkParetoFront> fronts_;
  int threads_ = 1;
};

// degrade-long: the EXPERIMENTS.md AlexNet plan (spares 2, retire 0.8,
// pe= / rank= / weibull=4) with seeded coordinates and stamps over a
// 16384-iteration horizon: the fault-aware run, a Monte-Carlo cross-check
// of its residual MTTF, and the fault-oblivious run on the same plan. No
// checkpoints, so no fsync'd I/O reaches the timed window.
class DegradeLong final : public Workload {
 public:
  void build(std::uint64_t seed) override {
    net_ = nn::workload_by_abbr("AN");
    util::SplitMix64 rng(seed ^ 0x64656772616465ULL);
    const arch::AcceleratorConfig& accel = accel_14x12();
    plans_.clear();
    keys_.clear();
    mc_seeds_.clear();
    for (std::size_t i = 0; i < kPlans; ++i) {
      fi::DegradeOptions o;
      o.iterations = kHorizon;
      o.spares = 2;
      // Weibull arrivals follow the EXPERIMENTS.md seed, so every plan
      // ages through a similar fault count; coordinates and stamps vary.
      o.seed = 7;
      o.retire_live_fraction = 0.8;
      o.threads = 1;
      o.workload_tag = net_.abbr();
      // Plan 0 is the EXPERIMENTS.md plan itself, so every run checks
      // one op against a pinned timeline whatever its seed.
      std::vector<std::string> specs = {"pe=5,5@64", "rank=0@192",
                                        "weibull=4"};
      std::uint64_t mc_seed = 7;
      if (i > 0) {
        const auto u =
            rng.next_below(static_cast<std::uint64_t>(accel.array_width));
        const auto v =
            rng.next_below(static_cast<std::uint64_t>(accel.array_height));
        const auto pe_at = 1 + rng.next_below(kHorizon / 4);
        const auto rank = rng.next_below(4);
        const auto rank_at = 1 + rng.next_below(kHorizon / 2);
        specs[0] = "pe=" + std::to_string(u) + "," + std::to_string(v) +
                   "@" + std::to_string(pe_at);
        specs[1] = "rank=" + std::to_string(rank) + "@" +
                   std::to_string(rank_at);
        mc_seed = rng.next();
      }
      std::string key;
      for (const std::string& spec : specs) {
        auto fault = fi::parse_hardware_fault(spec);
        if (!fault.ok()) throw std::runtime_error(fault.error().message);
        o.faults.push_back(std::move(fault).take());
        key += (key.empty() ? "" : "/") + spec;
      }
      plans_.push_back(std::move(o));
      keys_.push_back(std::move(key));
      mc_seeds_.push_back(mc_seed);
    }
  }
  [[nodiscard]] std::size_t pass_length() const override {
    return plans_.size();
  }

  void execute(std::size_t k) override {
    fi::DegradeOptions o = plans_[k % plans_.size()];
    const arch::AcceleratorConfig& accel = accel_14x12();
    {
      const Scope s(tracer, "fi.run_degraded_lifetime.aware");
      o.mode = fi::DegradeMode::kFaultAware;
      aware_ = fi::run_degraded_lifetime(accel, net_, o);
    }
    mc_.reset();
    {
      const Scope s(tracer, "reliability.monte_carlo_spare_mttf");
      // The `rota degrade --mc` cross-check, under the same guard.
      std::int64_t active = 0;
      for (const double a : aware_.live_alphas) active += a > 0.0 ? 1 : 0;
      if (aware_.mttf_final > 0.0 && aware_.mttf_tolerance < active) {
        mc_ = rel::monte_carlo_spare_mttf(aware_.live_alphas,
                                          aware_.mttf_tolerance,
                                          rel::kJedecShape, 1.0, kMcTrials,
                                          mc_seeds_[k % plans_.size()], 1);
      }
    }
    {
      const Scope s(tracer, "fi.run_degraded_lifetime.oblivious");
      o.mode = fi::DegradeMode::kFaultOblivious;
      oblivious_ = fi::run_degraded_lifetime(accel, net_, o);
    }
  }

  OpCheck verify(std::size_t k, Counts& counts) override {
    OpCheck c;
    c.key = keys_[k % plans_.size()];
    // The simulated state only: timelines, counts and observed live wear
    // rates — not the residual-MTTF framing derived from them.
    Digest d;
    for (const fi::DegradeReport* r : {&aware_, &oblivious_}) {
      d.add(r->timeline_csv)
          .add(r->iterations_run)
          .add(r->retired_at)
          .add(r->faults_injected)
          .add(r->remaps)
          .add(r->unmapped_faults)
          .add(r->reschedules)
          .add(r->redirected_units)
          .add(r->lost_units)
          .add(r->live_alphas);
    }
    c.digest = d.hex();
    if (aware_.lost_units != 0) {
      c.error = "fault-aware run lost " + std::to_string(aware_.lost_units) +
                " work units";
    } else if (aware_.faults_injected != oblivious_.faults_injected) {
      c.error = "aware and oblivious runs injected " +
                std::to_string(aware_.faults_injected) + " vs " +
                std::to_string(oblivious_.faults_injected) + " faults";
    } else if (mc_ && std::abs(mc_->mttf - aware_.mttf_final) >
                          4.0 * mc_->stderr_) {
      c.error = "Monte-Carlo MTTF " + hexfloat(mc_->mttf) +
                " is more than 4 stderr from the closed form " +
                hexfloat(aware_.mttf_final);
    }
    const double iterations = static_cast<double>(aware_.iterations_run +
                                                  oblivious_.iterations_run);
    c.work = iterations;
    counts["fi.iterations"] += iterations;
    counts["fi.iterations.aware"] +=
        static_cast<double>(aware_.iterations_run);
    counts["fi.iterations.oblivious"] +=
        static_cast<double>(oblivious_.iterations_run);
    counts["fi.faults_injected"] +=
        static_cast<double>(aware_.faults_injected);
    counts["fi.remaps"] += static_cast<double>(aware_.remaps);
    counts["fi.reschedules"] += static_cast<double>(aware_.reschedules);
    counts["fi.retired_runs"] +=
        (aware_.retired ? 1.0 : 0.0) + (oblivious_.retired ? 1.0 : 0.0);
    counts["reliability.mc_trials"] +=
        mc_ ? static_cast<double>(mc_->trials) : 0.0;
    return c;
  }

 private:
  static constexpr std::size_t kPlans = 3;
  static constexpr std::uint64_t kHorizon = 16384;
  static constexpr std::int64_t kMcTrials = 20000;

  nn::Network net_ = nn::workload_by_abbr("AN");
  std::vector<fi::DegradeOptions> plans_;
  std::vector<std::string> keys_;  ///< the plan's fault specs
  std::vector<std::uint64_t> mc_seeds_;
  fi::DegradeReport aware_;
  fi::DegradeReport oblivious_;
  std::optional<rel::MonteCarloResult> mc_;
};

// serve-replay: one closed-loop client replaying a seeded, Zipf-popular
// request stream through svc::Engine (parse_request -> submit().get() ->
// to_json), with the global metrics registry on as under
// `serve --stats-out` and a memory-only schedule cache smaller than the
// stream's distinct-layer working set.
class ServeReplay final : public Workload {
 public:
  void build(std::uint64_t seed) override {
    build_items();
    // Zipf(1) popularity over the items in one fixed, scrambled rank order.
    std::vector<std::size_t> rank(items_.size());
    for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
    util::SplitMix64 ranking(0x7a697066ULL);
    for (std::size_t i = rank.size(); i > 1; --i)
      std::swap(rank[i - 1], rank[ranking.next_below(i)]);
    double harmonic = 0.0;
    for (std::size_t r = 0; r < rank.size(); ++r)
      harmonic += 1.0 / static_cast<double>(r + 1);
    // Every block of kBlock requests holds each (op, item) pair in its
    // exact share of op weight x Zipf popularity (largest remainder), and
    // the seed shuffles each block. Seeds thus differ in request order and
    // cache history, not in how much of each kind of work a window holds.
    struct Quota {
      std::size_t op;
      std::size_t item;
      double share;
    };
    std::vector<Quota> quotas;
    for (std::size_t op = 0; op < kOps.size(); ++op) {
      const double w = kOpWeights[op] / 100.0;
      if (kOps[op] == "stats") {
        quotas.push_back({op, 0, w});
        continue;
      }
      for (std::size_t r = 0; r < rank.size(); ++r)
        quotas.push_back(
            {op, rank[r], w / static_cast<double>(r + 1) / harmonic});
    }
    std::vector<std::pair<std::size_t, std::size_t>> block;
    std::vector<std::pair<double, std::size_t>> remainders;
    for (std::size_t q = 0; q < quotas.size(); ++q) {
      const double exact = quotas[q].share * static_cast<double>(kBlock);
      const auto whole = static_cast<std::size_t>(exact);
      for (std::size_t n = 0; n < whole; ++n)
        block.emplace_back(quotas[q].op, quotas[q].item);
      remainders.emplace_back(exact - static_cast<double>(whole), q);
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t n = 0; block.size() < kBlock; ++n)
      block.emplace_back(quotas[remainders[n].second].op,
                         quotas[remainders[n].second].item);

    util::SplitMix64 rng(seed ^ 0x7365727665ULL);
    clear_stream();
    for (std::size_t b = 0; b < kStream / kBlock; ++b) {
      for (std::size_t i = block.size(); i > 1; --i)
        std::swap(block[i - 1], block[rng.next_below(i)]);
      for (const auto& [op, item] : block)
        push_request(kOps[op], items_[item]);
    }
    restart_engine();
  }

  void build_pin_universe() override {
    build_items();
    clear_stream();
    for (const Item& item : items_)
      for (std::size_t op = 0; op + 1 < kOps.size(); ++op)
        push_request(kOps[op], item);
    restart_engine();
  }

  /// The window ends on a whole 50-request segment; work_per_s is the
  /// median segment rate.
  [[nodiscard]] std::size_t pass_length() const override { return 50; }
  [[nodiscard]] std::size_t warmup_ops() const override {
    return std::min(kWarmup, stream_.size());
  }

  void execute(std::size_t k) override {
    if (k >= stream_.size())
      throw std::runtime_error("request stream exhausted");
    util::Result<svc::Request> request = [&] {
      const Scope s(tracer, "svc.parse_request");
      return svc::parse_request(stream_[k], kMaxRequestBytes);
    }();
    if (!request.ok()) throw std::runtime_error(request.error().message);
    {
      const Scope s(tracer, "svc.submit");
      response_ = engine_->submit(std::move(request).take()).get();
    }
    {
      const Scope s(tracer, "svc.to_json");
      reply_ = svc::to_json(response_);
    }
  }

  OpCheck verify(std::size_t k, Counts& counts) override {
    OpCheck c;
    c.kind = kinds_[k];
    c.work = 1.0;
    const std::string id = "r" + std::to_string(k);
    if (!response_.ok) {
      c.error = "request " + id + " failed: " + response_.error.message;
    } else if (response_.id != id || reply_.find("\"id\":\"" + id + "\"") ==
                                         std::string::npos) {
      c.error = "reply id " + response_.id + " out of order (expected " +
                id + ")";
    } else if (c.kind == "stats") {
      if (response_.payload_json.empty() ||
          response_.payload_json.front() != '{')
        c.error = "stats reply " + id + " carries no snapshot object";
    } else {
      // Payloads are pure functions of the request; live telemetry
      // (stats) and reply timing are not compared.
      c.key = keys_[k];
      c.digest = Digest{}.add(response_.payload_json).hex();
    }
    const svc::ScheduleCacheStats now = engine_->cache_stats();
    counts["svc.cache.hits_memory"] +=
        static_cast<double>(now.hits_memory - last_.hits_memory);
    counts["svc.cache.misses"] +=
        static_cast<double>(now.misses - last_.misses);
    counts["svc.cache.evictions"] +=
        static_cast<double>(now.evictions - last_.evictions);
    last_ = now;
    return c;
  }

 private:
  struct Item {
    std::string workload;
    std::string objective;
    std::string array;
  };
  static constexpr std::array<std::string_view, 4> kOps = {
      "schedule", "wear", "lifetime", "stats"};
  // Percent of requests per op.
  static constexpr std::array<double, 4> kOpWeights = {35, 35, 25, 5};
  static constexpr std::size_t kBlock = 250;
  static constexpr std::size_t kStream = 160 * kBlock;
  static constexpr std::size_t kWarmup = kBlock;  // the first block
  static constexpr std::size_t kCacheCapacity = 256;
  static constexpr std::size_t kMaxRequestBytes = 1 << 20;
  static constexpr std::int64_t kIters = 200;

  void build_items() {
    items_.clear();
    for (const nn::Network& net : nn::all_workloads())
      for (const char* objective : {"energy", "lifetime"})
        for (const char* array : {"14x12", "16x16", "12x14"})
          items_.push_back({net.abbr(), objective, array});
  }

  void clear_stream() {
    stream_.clear();
    kinds_.clear();
    keys_.clear();
  }

  void push_request(std::string_view op, const Item& item) {
    std::string line = "{\"schema_version\":2,\"id\":\"r" +
                       std::to_string(stream_.size()) + "\",\"op\":\"" +
                       std::string(op) + "\"";
    std::string key(op);
    if (op != "stats") {
      line += ",\"workload\":\"" + item.workload + "\",\"array\":\"" +
              item.array + "\",\"objective\":\"" + item.objective +
              "\",\"iters\":" + std::to_string(kIters);
      key += "/" + item.workload + "/" + item.objective + "/" + item.array;
    }
    stream_.push_back(line + "}");
    kinds_.emplace_back(op);
    keys_.push_back(std::move(key));
  }

  void restart_engine() {
    engine_.reset();
    obs::MetricsRegistry::global().reset();
    obs::MetricsRegistry::global().set_enabled(true);
    svc::EngineOptions eo;
    eo.threads = 1;
    eo.cache.capacity = kCacheCapacity;  // memory tier only: no disk_dir
    engine_ = std::make_unique<svc::Engine>(eo);
    last_ = {};
  }

  std::vector<Item> items_;
  std::vector<std::string> stream_;
  std::vector<std::string> kinds_;
  std::vector<std::string> keys_;
  std::unique_ptr<svc::Engine> engine_;
  svc::Response response_;
  std::string reply_;
  svc::ScheduleCacheStats last_;
};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "zoo-lifetime") return std::make_unique<ZooLifetime>();
  if (name == "pareto-faulted") return std::make_unique<ParetoFaulted>();
  if (name == "degrade-long") return std::make_unique<DegradeLong>();
  if (name == "serve-replay") return std::make_unique<ServeReplay>();
  return nullptr;
}

constexpr std::array<std::string_view, 4> kWorkloadNames = {
    "zoo-lifetime", "pareto-faulted", "degrade-long", "serve-replay"};

// -------------------------------------------------------------- main loop

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool perturb = false;
  bool record_pins = false;
  std::string pins_path;
};

using Pins = std::map<std::string, std::string>;  // "workload key" -> digest

Pins load_pins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string workload, key, digest;
  while (in >> workload >> key >> digest) pins[workload + " " + key] = digest;
  return pins;
}

/// Per-key expected outputs: the first output seen (the warm-up's) and
/// the digest pinned at this commit, where one is recorded.
class References {
 public:
  References(std::string workload, Pins pins)
      : workload_(std::move(workload)), pins_(std::move(pins)) {}

  /// The failure {category, reason}, or an empty reason when the digest
  /// matches both the first output seen for the key and its pin, if any.
  std::pair<const char*, std::string> check(const std::string& key,
                                            const std::string& digest) {
    if (key.empty()) return {"", ""};
    const auto [seen, first] = refs_.emplace(key, digest);
    if (!first && seen->second != digest) {
      return {"reference",
              "output of " + key + " differs from its warm-up reference"};
    }
    const auto pin = pins_.find(workload_ + " " + key);
    if (pin != pins_.end() && pin->second != digest) {
      return {"pin", "output of " + key + " differs from its pinned digest " +
                         pin->second + " (got " + digest + ")"};
    }
    return {"", ""};
  }

  /// Self-check: corrupt every pin (before set-up) or every reference
  /// the warm-up recorded (after it); the gate must then fail ops.
  void perturb_pins() { flip(pins_); }
  void perturb_references() { flip(refs_); }

 private:
  static void flip(std::map<std::string, std::string>& table) {
    for (auto& entry : table)
      entry.second[0] = entry.second[0] == '0' ? '1' : '0';
  }

  std::string workload_;
  Pins pins_;
  std::map<std::string, std::string> refs_;
};

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failed_by;  ///< by category
  std::vector<std::string> reasons;  ///< the first of each category, then a few

  void record(const std::string& category, const std::string& reason) {
    ++attempted;
    if (reason.empty()) return;
    ++failed;
    if (failed_by[category]++ == 0 || reasons.size() < 8)
      reasons.push_back(reason);
  }
};

/// Executes op k and checks it; returns the op's host time in ns (or -1
/// when it threw). All failures land in `tally`.
std::int64_t run_op(Workload& w, std::size_t k, References& refs,
                    Counts& counts, Tally& tally, OpCheck& out) {
  Tracer& tr = w.tracer;
  tr.op = static_cast<std::int64_t>(k);
  std::int64_t elapsed = -1;
  try {
    const std::int64_t start = now_ns();
    {
      const Scope root(tr, "op");
      w.execute(k);
    }
    elapsed = now_ns() - start;
    out = w.verify(k, counts);
  } catch (const std::exception& e) {
    tally.record("threw", "op " + std::to_string(k) + " threw: " + e.what());
    return -1;
  }
  if (!out.error.empty()) {
    tally.record("check", out.error);
  } else {
    const auto [category, reason] = refs.check(out.key, out.digest);
    tally.record(category, reason);
  }
  return elapsed;
}

struct Window {
  std::vector<double> op_ms;
  std::vector<std::string> kinds;
  std::vector<std::int64_t> op_ids;
  std::vector<double> pass_rates;  ///< work / op host time, per pass
  Counts counts;
  /// Median pass rate: a burst of host noise moves one pass, not the
  /// metric.
  [[nodiscard]] double work_per_s() const { return median_of(pass_rates); }
};

/// Whole passes of ops from `next` on, until `seconds` have passed.
Window timed_window(Workload& w, std::size_t& next, double seconds,
                    References& refs, Tally& tally) {
  Window win;
  const std::size_t pass = w.pass_length();
  const std::size_t first = next;
  const std::int64_t start = now_ns();
  double pass_work = 0.0;
  std::int64_t pass_ns = 0;
  while (static_cast<double>(now_ns() - start) * 1e-9 < seconds ||
         (next - first) % pass != 0) {
    OpCheck out;
    const std::size_t k = next++;
    const std::int64_t ns = run_op(w, k, refs, win.counts, tally, out);
    if (ns >= 0) {
      win.op_ms.push_back(static_cast<double>(ns) * 1e-6);
      win.kinds.push_back(out.kind);
      win.op_ids.push_back(static_cast<std::int64_t>(k));
      pass_work += out.work;
      pass_ns += ns;
    }
    if ((next - first) % pass == 0 && pass_ns > 0) {
      win.pass_rates.push_back(pass_work /
                               (static_cast<double>(pass_ns) * 1e-9));
      pass_work = 0.0;
      pass_ns = 0;
    }
  }
  return win;
}

/// Self time per span name, plus the op roots' own (unattributed) time.
/// Checks the tree: every child lies inside its parent, siblings do not
/// overlap, parents precede children and share their op id.
struct TreeSummary {
  std::map<std::string, double> self_s;  ///< by span name, summed
  double op_s = 0.0;
  double unattributed_s = 0.0;
  std::vector<std::string> errors;
};

TreeSummary summarize(const std::vector<Span>& spans) {
  TreeSummary t;
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::int64_t> last_child_end(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < s.start)
      t.errors.push_back(std::string("span ") + s.name + " ends too early");
    if (s.parent < 0) {
      if (std::strcmp(s.name, "op") != 0)
        t.errors.push_back(std::string("orphan span ") + s.name);
      continue;
    }
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= i || spans[p].op != s.op) {
      t.errors.push_back(std::string("span ") + s.name +
                         " has a foreign parent");
      continue;
    }
    if (s.start < spans[p].start || s.end > spans[p].end ||
        s.start < last_child_end[p]) {
      t.errors.push_back(std::string("span ") + s.name + " escapes its parent");
    }
    last_child_end[p] = s.end;
    child_ns[p] += s.end - s.start;
  }
  std::int64_t op_ns = 0;
  std::int64_t self_total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t self = (s.end - s.start) - child_ns[i];
    self_total += self;
    if (s.parent < 0) {
      op_ns += s.end - s.start;
      t.unattributed_s += static_cast<double>(self) * 1e-9;
    } else {
      t.self_s[s.name] += static_cast<double>(self) * 1e-9;
    }
  }
  t.op_s = static_cast<double>(op_ns) * 1e-9;
  if (self_total != op_ns)
    t.errors.push_back("span self times do not add up to op time");
  return t;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// CPU brand string from CPUID (no file reads), "unknown" elsewhere.
std::string host_cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  const unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    std::array<unsigned int, 12> regs{};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs.data(), 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    while (!model.empty() && model.back() == ' ') model.pop_back();
    if (!model.empty()) return model;
  }
#endif
  return "unknown";
}

/// Peak resident set of this process in MB. VmHWM, unlike getrusage's
/// ru_maxrss, does not carry the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_report(const Args& args, const Workload& w, const Tally& tally,
                  bool tree_ok, std::size_t timed_ops,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\":" << (tally.failed == 0 && tree_ok ? "true" : "false")
     << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
     << ",\"failed_by\":{";
  for (auto it = tally.failed_by.begin(); it != tally.failed_by.end(); ++it)
    os << (it == tally.failed_by.begin() ? "" : ",")
       << obs::json_quote(it->first) << ':' << it->second;
  os << "},\"reasons\":[";
  for (std::size_t i = 0; i < tally.reasons.size(); ++i)
    os << (i ? "," : "") << obs::json_quote(tally.reasons[i]);
  os << "],\"stamp\":{\"workload\":" << obs::json_quote(args.workload)
     << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
     << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":" << obs::json_quote(host_cpu_model())
     << ",\"threads\":" << w.threads()
     << ",\"kern.simd_compiled\":" << obs::json_quote(kern::compiled_simd())
     << ",\"kern.simd_active\":"
     << obs::json_quote(kern::isa_name(kern::active_isa()))
     << ",\"git_sha\":" << obs::json_quote(obs::git_sha())
     << ",\"timed_ops\":" << timed_ops << "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << obs::json_quote(metrics[i].name)
       << ":{\"value\":" << obs::json_number(metrics[i].value)
       << ",\"unit\":" << obs::json_quote(metrics[i].unit) << '}';
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
}

std::vector<Metric> per_layer_metrics(const std::string& workload,
                                      const Window& win,
                                      const std::vector<Span>& spans,
                                      const TreeSummary& tree,
                                      double warmup_pareto_busy_per_op,
                                      double untraced_wps) {
  // Every per-layer metric, in BENCHMARK.json order; a layer the workload
  // does not exercise reads 0.
  const double ops =
      std::max<double>(1.0, static_cast<double>(win.op_ms.size()));
  auto self = [&](const char* name) {
    const auto it = tree.self_s.find(name);
    return it == tree.self_s.end() ? 0.0 : it->second / ops;
  };
  auto count = [&](const char* name) {
    const auto it = win.counts.find(name);
    return it == win.counts.end() ? 0.0 : it->second / ops;
  };
  auto kind_p50 = [&](const char* kind) {
    std::vector<double> v;
    for (std::size_t i = 0; i < win.kinds.size(); ++i)
      if (win.kinds[i] == kind) v.push_back(win.op_ms[i]);
    return median_of(v);
  };
  const double wear_b = self("wear.run_iterations.baseline");
  const double wear_r = self("wear.run_iterations.rwl");
  const double wear_ro = self("wear.run_iterations.rwl_ro");
  const double pareto_busy = self("sched.pareto_network.intact") +
                             self("sched.pareto_network.degraded");
  const double aware_s = self("fi.run_degraded_lifetime.aware");
  const double obl_s = self("fi.run_degraded_lifetime.oblivious");
  const double aware_it = count("fi.iterations.aware");
  const double obl_it = count("fi.iterations.oblivious");
  const double hits = count("svc.cache.hits_memory");
  const double misses = count("svc.cache.misses");
  // obs read cost: the engine part of each stats request.
  std::set<std::int64_t> stats_ops;
  for (std::size_t i = 0; i < win.kinds.size(); ++i)
    if (win.kinds[i] == "stats") stats_ops.insert(win.op_ids[i]);
  std::vector<double> stats_engine_ms;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "svc.submit") == 0 && stats_ops.count(s.op))
      stats_engine_ms.push_back(static_cast<double>(s.end - s.start) * 1e-6);
  }

  std::vector<Metric> m = {
      {"wear.run_iterations.busy_s", wear_b + wear_r + wear_ro, "s"},
      {"wear.run_iterations.baseline_s", wear_b, "s"},
      {"wear.run_iterations.rwl_s", wear_r, "s"},
      {"wear.run_iterations.rwl_ro_s", wear_ro, "s"},
      {"wear.tiles_placed", count("wear.tiles_placed"), "count"},
      {"sched.schedule_network.busy_s", self("sched.schedule_network"), "s"},
      {"sched.layers_scheduled", count("sched.layers_scheduled"), "count"},
      {"sched.pareto_network.intact_s", self("sched.pareto_network.intact"),
       "s"},
      {"sched.pareto_network.degraded_s",
       self("sched.pareto_network.degraded"), "s"},
      {"sched.front_points", count("sched.front_points"), "count"},
      {"sched.layers_searched", count("sched.layers_searched"), "count"},
      {"par.pareto_speedup_t2",
       pareto_busy > 0.0 ? warmup_pareto_busy_per_op / pareto_busy : 0.0, "x"},
      {"fi.run_degraded_lifetime.aware_s", aware_s, "s"},
      {"fi.run_degraded_lifetime.oblivious_s", obl_s, "s"},
      {"fi.host_ns_per_iteration.aware",
       aware_it > 0 ? aware_s * 1e9 / aware_it : 0.0, "ns"},
      {"fi.host_ns_per_iteration.oblivious",
       obl_it > 0 ? obl_s * 1e9 / obl_it : 0.0, "ns"},
      {"fi.iterations", count("fi.iterations"), "count"},
      {"fi.faults_injected", count("fi.faults_injected"), "count"},
      {"fi.remaps", count("fi.remaps"), "count"},
      {"fi.reschedules", count("fi.reschedules"), "count"},
      {"fi.retired_runs", count("fi.retired_runs"), "count"},
      {"fi.array_state_from_faults.busy_s",
       self("fi.array_state_from_faults"), "s"},
      {"reliability.monte_carlo_spare_mttf.busy_s",
       self("reliability.monte_carlo_spare_mttf"), "s"},
      {"reliability.mc_trials", count("reliability.mc_trials"), "count"},
      {"reliability.lifetime_improvement.busy_s",
       self("reliability.lifetime_improvement"), "s"},
      {"reliability.spare_array_mttf.busy_s",
       self("reliability.spare_array_mttf"), "s"},
      {"svc.parse_request.busy_s", self("svc.parse_request"), "s"},
      {"svc.submit.busy_s", self("svc.submit"), "s"},
      {"svc.to_json.busy_s", self("svc.to_json"), "s"},
      {"svc.request_ms_p50.schedule", kind_p50("schedule"), "ms"},
      {"svc.request_ms_p50.wear", kind_p50("wear"), "ms"},
      {"svc.request_ms_p50.lifetime", kind_p50("lifetime"), "ms"},
      {"svc.request_ms_p50.stats", kind_p50("stats"), "ms"},
      {"svc.cache.hits_memory", hits, "count"},
      {"svc.cache.misses", misses, "count"},
      {"svc.cache.evictions", count("svc.cache.evictions"), "count"},
      {"svc.cache.hit_ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"obs.stats_request_ms_p50", median_of(stats_engine_ms), "ms"},
  };
  const double share = tree.op_s > 0 ? tree.unattributed_s / tree.op_s : 0.0;
  const double overhead_pct =
      untraced_wps > 0
          ? (untraced_wps - win.work_per_s()) / untraced_wps * 100.0
          : 0.0;
  for (const std::string_view name : kWorkloadNames) {
    const bool mine = name == workload;
    m.push_back({std::string(name) + ".unattributed_share",
                 mine ? share : 0.0, "ratio"});
    m.push_back({std::string(name) + ".trace_overhead_pct",
                 mine ? overhead_pct : 0.0, "%"});
  }
  return m;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--pins" && has_value) {
      a.pins_path = argv[++i];
    } else if (arg == "--perturb") {
      a.perturb = true;
    } else if (arg == "--record-pins") {
      a.record_pins = true;
    } else {
      return false;
    }
  }
  return a.record_pins || (!a.workload.empty() && a.seconds > 0.0);
}

int record_pins() {
  for (const std::string_view name : kWorkloadNames) {
    auto w = make_workload(name);
    w->build_pin_universe();
    References refs(std::string(name), {});
    Counts counts;
    Tally tally;
    std::map<std::string, std::string> pins;
    for (std::size_t k = 0; k < w->warmup_ops(); ++k) {
      OpCheck out;
      run_op(*w, k, refs, counts, tally, out);
      if (!out.key.empty()) pins[out.key] = out.digest;
    }
    if (tally.failed != 0) {
      std::cerr << "perf_e2e: " << name << ": " << tally.reasons.front()
                << '\n';
      return 1;
    }
    for (const auto& [key, digest] : pins)
      std::cout << name << ' ' << key << ' ' << digest << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: perf_e2e --workload W --seed N --seconds S "
                   "--trace 0|1 --pins FILE [--perturb] | --record-pins\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "perf_e2e: malformed number in arguments\n";
    return 2;
  }
  if (args.record_pins) return record_pins();
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::cerr << "perf_e2e: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Pins pins = load_pins(args.pins_path);
  if (pins.empty()) {
    std::cerr << "perf_e2e: no pinned digests in '" << args.pins_path << "'\n";
    return 2;
  }
  References refs(args.workload, std::move(pins));
  if (args.perturb) refs.perturb_pins();
  Tally tally;

  // Set-up, timed as a whole: inputs, long-lived objects, warm-up pass.
  // The end-to-end run sets up three times and reports the median; every
  // set-up's warm-up is checked against the first one's references.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  Counts warmup_counts;
  TreeSummary warmup_tree;
  std::size_t warmup_ops = 0;
  for (int s = 0; s < setups; ++s) {
    const std::int64_t start = now_ns();
    w->tracer.spans.clear();
    w->tracer.enabled = args.trace;
    try {
      w->build(args.seed);
    } catch (const std::exception& e) {
      std::cerr << "perf_e2e: set-up failed: " << e.what() << '\n';
      return 1;
    }
    warmup_ops = w->warmup_ops();
    for (std::size_t k = 0; k < warmup_ops; ++k) {
      OpCheck out;
      run_op(*w, k, refs, warmup_counts, tally, out);
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  if (args.trace) warmup_tree = summarize(w->tracer.spans);
  w->tracer.enabled = false;
  w->tracer.spans.clear();
  if (args.perturb) refs.perturb_references();

  w->begin_timed();
  std::size_t next = warmup_ops;
  std::vector<Metric> metrics;
  bool tree_ok = true;
  std::size_t timed_ops = 0;
  if (!args.trace) {
    const Window win = timed_window(*w, next, args.seconds, refs, tally);
    timed_ops = win.op_ms.size();
    metrics = {
        {"setup_s", median_of(setup_s), "s"},
        {"work_per_s", win.work_per_s(), "1/s"},
        {"op_ms_p50", quantile_of(win.op_ms, 0.5), "ms"},
        {"op_ms_p90", quantile_of(win.op_ms, 0.9), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Half the window untraced, half traced: the difference in work per
    // second is the tracing overhead. One pass at the timed settings
    // first, so a cold 2-thread pool does not land in either half.
    Counts discarded;
    for (std::size_t end = next + w->pass_length(); next < end; ++next) {
      OpCheck out;
      run_op(*w, next, refs, discarded, tally, out);
    }
    const Window plain = timed_window(*w, next, args.seconds / 2, refs, tally);
    w->tracer.enabled = true;
    const Window traced = timed_window(*w, next, args.seconds / 2, refs, tally);
    w->tracer.enabled = false;
    timed_ops = plain.op_ms.size() + traced.op_ms.size();
    const TreeSummary tree = summarize(w->tracer.spans);
    for (const TreeSummary* t :
         std::array<const TreeSummary*, 2>{&warmup_tree, &tree})
      for (const std::string& e : t->errors)
        std::cerr << "perf_e2e: trace: " << e << '\n';
    tree_ok = tree.errors.empty() && warmup_tree.errors.empty();
    double warmup_pareto = 0.0;
    for (const char* name :
         {"sched.pareto_network.intact", "sched.pareto_network.degraded"}) {
      const auto it = warmup_tree.self_s.find(name);
      if (it != warmup_tree.self_s.end()) warmup_pareto += it->second;
    }
    warmup_pareto /= static_cast<double>(std::max<std::size_t>(1, warmup_ops));
    metrics = per_layer_metrics(args.workload, traced, w->tracer.spans, tree,
                                warmup_pareto,
                                plain.work_per_s());
  }
  for (const std::string& reason : tally.reasons)
    std::cerr << "perf_e2e: failed op: " << reason << '\n';
  print_report(args, *w, tally, tree_ok, timed_ops, metrics);
  return 0;
}
