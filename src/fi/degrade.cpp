#include "fi/degrade.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "fi/inject.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sched/array_state.hpp"
#include "sched/mapper.hpp"
#include "util/check.hpp"
#include "util/encode.hpp"
#include "util/rng.hpp"
#include "wear/masked_policy.hpp"
#include "wear/simulator.hpp"

namespace rota::fi {

namespace {

constexpr std::uint64_t kWeibullSeedTag = 0x77656962756c6cULL;  // "weibull"
constexpr const char* kCsvHeader =
    "iteration,event,u,v,arg,live,spares_free,energy,cycles\n";

std::string pe_name(std::int64_t u, std::int64_t v) {
  std::ostringstream out;
  out << "pe=(" << u << "," << v << ")";
  return out.str();
}

/// The tolerance a spare MTTF of `alphas` is evaluated at: capped below
/// the number of active PEs (idle PEs never fail, so tolerating every
/// active one would make the MTTF infinite); 0 when none is active.
std::int64_t capped_tolerance(const std::vector<double>& alphas,
                              std::int64_t tolerance) {
  std::int64_t active = 0;
  for (const double a : alphas) active += a > 0.0 ? 1 : 0;
  return std::max<std::int64_t>(0, std::min(tolerance, active - 1));
}

/// spare_array_mttf at the capped tolerance, guarded against degenerate
/// inputs: a dead or inactive live set has no remaining lifetime.
double guarded_spare_mttf(const std::vector<double>& alphas,
                          std::int64_t tolerance, double beta) {
  if (std::none_of(alphas.begin(), alphas.end(),
                   [](double a) { return a > 0.0; })) {
    return 0.0;
  }
  return rel::spare_array_mttf(alphas, capped_tolerance(alphas, tolerance),
                               beta);
}

/// One scheduled boundary action: a declared fault, a resolved weibull
/// strike or a pending transient restore.
struct TimelineEvent {
  std::int64_t iteration = 1;
  bool is_restore = false;
  HardwareFaultKind kind = HardwareFaultKind::kCoordinate;
  std::int64_t u = -1;
  std::int64_t v = -1;
  std::int64_t rank = -1;
  std::int64_t restore_after = 0;
};

/// The rank-th most-worn live primary (ties toward lower index), clamping
/// past-the-end ranks; false when every primary is dead.
bool pick_by_rank(const std::vector<std::int64_t>& usage,
                  const rel::SpareRemapper& remapper, std::int64_t rank,
                  std::int64_t width, std::int64_t* u, std::int64_t* v) {
  std::vector<std::size_t> live;
  live.reserve(usage.size());
  for (std::size_t idx = 0; idx < usage.size(); ++idx) {
    const auto iu = static_cast<std::int64_t>(idx) % width;
    const auto iv = static_cast<std::int64_t>(idx) / width;
    if (!remapper.is_dead(iu, iv)) live.push_back(idx);
  }
  if (live.empty()) return false;
  std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
    if (usage[a] != usage[b]) return usage[a] > usage[b];
    return a < b;
  });
  const std::size_t pick =
      std::min<std::size_t>(static_cast<std::size_t>(rank), live.size() - 1);
  *u = static_cast<std::int64_t>(live[pick]) % width;
  *v = static_cast<std::int64_t>(live[pick]) / width;
  return true;
}

/// Weibull victim weights usage^β over the live primaries (dead cells
/// weigh zero).
std::vector<double> weibull_weights(const std::vector<std::int64_t>& usage,
                                    const rel::SpareRemapper& remapper,
                                    double beta, std::int64_t width) {
  std::vector<double> weight(usage.size(), 0.0);
  for (std::size_t idx = 0; idx < usage.size(); ++idx) {
    const auto u = static_cast<std::int64_t>(idx) % width;
    const auto v = static_cast<std::int64_t>(idx) / width;
    if (remapper.is_dead(u, v)) continue;
    weight[idx] = std::pow(static_cast<double>(usage[idx]), beta);
  }
  return weight;
}

/// One weibull victim, drawn ∝ weight without replacement (its weight
/// drops to zero) with one rng draw; false once every weight is zero.
bool draw_weibull_victim(std::vector<double>& weight, util::SplitMix64& rng,
                         std::size_t* victim) {
  double total = 0.0;
  for (const double w : weight) total += w;
  if (total <= 0.0) return false;
  double pick = rng.next_double() * total;
  std::size_t idx = 0;
  for (; idx + 1 < weight.size(); ++idx) {
    if (pick < weight[idx]) break;
    pick -= weight[idx];
  }
  weight[idx] = 0.0;
  *victim = idx;
  return true;
}

std::string join_i64(const std::vector<std::int64_t>& values) {
  std::ostringstream out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ' ';
    out << values[i];
  }
  return out.str();
}

std::vector<std::int64_t> split_i64(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::int64_t> values;
  std::int64_t v = 0;
  while (in >> v) values.push_back(v);
  return values;
}

std::string encode_events(const std::vector<TimelineEvent>& events) {
  std::ostringstream out;
  for (const TimelineEvent& e : events) {
    out << e.iteration << ' ' << (e.is_restore ? 1 : 0) << ' '
        << static_cast<int>(e.kind) << ' ' << e.u << ' ' << e.v << ' '
        << e.rank << ' ' << e.restore_after << '\n';
  }
  return out.str();
}

std::vector<TimelineEvent> decode_events(const std::string& text) {
  std::istringstream in(text);
  std::vector<TimelineEvent> events;
  TimelineEvent e;
  int restore = 0;
  int kind = 0;
  while (in >> e.iteration >> restore >> kind >> e.u >> e.v >> e.rank >>
         e.restore_after) {
    e.is_restore = restore != 0;
    ROTA_REQUIRE(kind >= 0 && kind <= 2, "corrupt degrade checkpoint event");
    e.kind = static_cast<HardwareFaultKind>(kind);
    events.push_back(e);
  }
  return events;
}

}  // namespace

std::string to_string(DegradeMode mode) {
  switch (mode) {
    case DegradeMode::kFaultAware: return "aware";
    case DegradeMode::kFaultOblivious: return "oblivious";
  }
  ROTA_UNREACHABLE("unhandled DegradeMode");
}

std::string degrade_fingerprint(const arch::AcceleratorConfig& config,
                                const DegradeOptions& options) {
  // Everything that defines the work: the workload, geometry, horizon,
  // randomness, objective/policy, retirement rule — and, per the
  // stale-resume gate, the canonical fault plan plus the remapper state
  // kind, so a checkpoint taken under one --fault set (or a future
  // remapper layout) can never silently resume another.
  std::ostringstream out;
  out << "degrade|net=" << options.workload_tag << "|array="
      << config.array_width << "x" << config.array_height
      << "|iters=" << options.iterations << "|spares=" << options.spares
      << "|seed=" << options.seed << "|beta=" << util::hexfloat(options.beta)
      << "|mode=" << to_string(options.mode)
      << "|objective=" << options.objective.id()
      << "|policy=" << wear::to_string(options.policy)
      << "|retire=" << util::hexfloat(options.retire_live_fraction)
      << "|mapper=v" << sched::kMapperVersion << "|faults=";
  for (std::size_t i = 0; i < options.faults.size(); ++i) {
    if (i > 0) out << ';';
    out << to_string(options.faults[i]);
  }
  out << "|remapper=lowest-free-v1";
  return out.str();
}

DegradeReport run_degraded_lifetime(const arch::AcceleratorConfig& config,
                                    const nn::Network& net,
                                    const DegradeOptions& options,
                                    const DegradeStopCheck& should_stop) {
  ROTA_REQUIRE(options.iterations >= 1, "need at least one iteration");
  ROTA_REQUIRE(options.spares >= 0, "spare count must be non-negative");
  ROTA_REQUIRE(options.retire_live_fraction > 0.0 &&
                   options.retire_live_fraction <= 1.0,
               "retire_live_fraction must be in (0, 1]");
  ROTA_REQUIRE(options.checkpoint_every >= 1,
               "checkpoint cadence must be positive");
  ROTA_REQUIRE(config.topology == arch::TopologyKind::kTorus2D,
               "the degraded-mode engine needs the torus array (masked "
               "rotation and fallback anchors wrap)");
  const std::int64_t width = config.array_width;
  const std::int64_t height = config.array_height;
  const std::int64_t cells = width * height;
  const bool aware = options.mode == DegradeMode::kFaultAware;
  const std::string fingerprint = degrade_fingerprint(config, options);
  // Retire when live primaries would drop below this count.
  const auto min_live = static_cast<std::int64_t>(
      std::ceil(options.retire_live_fraction * static_cast<double>(cells)));

  // Fault plan → pending timeline (weibull strikes resolve at it == 1).
  std::vector<TimelineEvent> pending;
  std::int64_t weibull_count = 0;
  for (const HardwareFault& fault : options.faults) {
    if (fault.kind == HardwareFaultKind::kWeibull) {
      weibull_count += fault.count;
      continue;
    }
    TimelineEvent event;
    event.iteration = fault.iteration;
    event.kind = fault.kind;
    event.u = fault.u;
    event.v = fault.v;
    event.rank = fault.rank;
    event.restore_after = fault.restore_after;
    if (fault.kind == HardwareFaultKind::kCoordinate) {
      ROTA_REQUIRE(fault.u >= 0 && fault.u < width && fault.v >= 0 &&
                       fault.v < height,
                   "coordinate fault " + to_string(fault) +
                       " lies outside the configured array");
    }
    pending.push_back(event);
  }

  rel::SpareRemapper remapper(width, height, options.spares);
  std::vector<std::string> oplog;  ///< remapper replay log ("F u v"/"R u v")
  DegradeReport report;
  wear::WearSimulator sim(config);
  auto inner = wear::make_policy(options.policy, width, height, options.seed);
  wear::MaskedPolicy policy(std::move(inner), sched::ArrayState(remapper));

  const auto make_schedule = [&](const sched::ArrayState& state) {
    sched::Mapper mapper(config, options.objective, {},
                         sched::MapperOptions{true, options.threads}, state);
    return mapper.schedule_network(net);
  };

  // The intact-array reference schedule (on resume this recomputes the
  // same deterministic result the fresh run saw).
  sched::NetworkSchedule schedule =
      make_schedule(sched::ArrayState(rel::SpareRemapper(width, height,
                                                         options.spares)));
  report.initial_energy = schedule.total_energy();
  report.initial_cycles = schedule.total_cycles();

  std::int64_t it = 0;  ///< completed iterations (global)
  std::vector<std::int64_t> prev(static_cast<std::size_t>(cells), 0);
  std::vector<std::int64_t> it1_usage;
  sched::ArrayState live_state(remapper);

  const auto live_primaries = [&]() {
    std::int64_t live = cells;
    for (std::int64_t v = 0; v < height; ++v) {
      for (std::int64_t u = 0; u < width; ++u) {
        if (remapper.is_dead(u, v) && remapper.spare_of(u, v) < 0) --live;
      }
    }
    return live;
  };

  const auto csv_row = [&](std::int64_t iter, const char* event,
                           std::int64_t u, std::int64_t v, std::int64_t arg) {
    std::ostringstream row;
    row << iter << ',' << event << ',' << u << ',' << v << ',' << arg << ','
        << live_primaries() << ',' << remapper.spares_free() << ','
        << util::hexfloat(schedule.total_energy()) << ','
        << util::hexfloat(schedule.total_cycles()) << '\n';
    report.timeline_csv += row.str();
  };

  // ---- resume --------------------------------------------------------
  if (options.resume != nullptr) {
    const Checkpoint& ck = *options.resume;
    ROTA_REQUIRE(ck.kind == "degrade",
                 "checkpoint kind '" + ck.kind + "' is not a degrade run");
    ROTA_REQUIRE(ck.fingerprint == fingerprint,
                 "stale degrade checkpoint: the fault plan, workload or "
                 "parameters changed since it was written");
    report.resumed = true;
    it = ck.progress;
    const auto field = [&ck](const std::string& name) -> const std::string& {
      const auto found = ck.fields.find(name);
      ROTA_REQUIRE(found != ck.fields.end(),
                   "degrade checkpoint is missing field '" + name + "'");
      return found->second;
    };
    sim.tracker().restore_cells(split_i64(field("usage")));
    prev = sim.tracker().usage().cells();
    it1_usage = split_i64(field("it1_usage"));
    const std::vector<std::int64_t> words = split_i64(field("policy_state"));
    policy.unpack_state(
        std::vector<std::uint64_t>(words.begin(), words.end()));
    {  // Replay the remapper operation log; stats replay with it.
      std::istringstream ops(field("oplog"));
      std::string op;
      std::int64_t u = 0;
      std::int64_t v = 0;
      while (ops >> op >> u >> v) {
        if (op == "F") {
          (void)remapper.fault_primary(u, v);
        } else if (op == "R") {
          remapper.restore_primary(u, v);
        } else {
          ROTA_REQUIRE(false, "corrupt degrade checkpoint oplog");
        }
        oplog.push_back(op + " " + std::to_string(u) + " " +
                        std::to_string(v));
      }
    }
    pending = decode_events(field("pending"));
    weibull_count = 0;  // resolved before the first checkpoint boundary
    const std::vector<std::int64_t> counters = split_i64(field("counters"));
    ROTA_REQUIRE(counters.size() == 8, "corrupt degrade checkpoint counters");
    report.faults_injected = counters[0];
    report.transient_restores = counters[1];
    report.remaps = counters[2];
    report.unmapped_faults = counters[3];
    report.reschedules = counters[4];
    report.redirected_units = counters[5];
    report.lost_units = counters[6];
    report.first_unspared_at = counters[7];
    report.timeline_csv = field("csv");
    {
      std::istringstream lines(field("events"));
      std::string line;
      while (std::getline(lines, line)) report.events.push_back(line);
    }
    // Rebuild the schedule from the live map it was *scheduled* with (the
    // remapper may have drifted past it at an un-rebuilt horizon
    // boundary); this reproduces the in-effect schedule byte-for-byte.
    {
      const std::vector<std::int64_t> flat = split_i64(field("sched_dead"));
      ROTA_REQUIRE(flat.size() % 2 == 0, "corrupt degrade checkpoint map");
      std::vector<std::pair<std::int64_t, std::int64_t>> dead;
      for (std::size_t i = 0; i + 1 < flat.size(); i += 2) {
        dead.emplace_back(flat[i], flat[i + 1]);
      }
      live_state = sched::ArrayState(width, height, dead);
      if (aware) policy.set_mask(live_state);
      if (live_state.dead_count() > 0) schedule = make_schedule(live_state);
    }
  } else {
    report.timeline_csv = kCsvHeader;
    csv_row(0, "start", -1, -1, -1);
  }

  // Per-call metric deltas (a resumed report carries prior counters).
  const DegradeReport base_counts = report;

  const auto save_checkpoint_at = [&](std::int64_t iteration) {
    if (options.checkpoint_path.empty()) return;
    Checkpoint ck;
    ck.kind = "degrade";
    ck.fingerprint = fingerprint;
    ck.progress = iteration;
    ck.fields["usage"] = join_i64(sim.tracker().usage().cells());
    ck.fields["it1_usage"] = join_i64(it1_usage);
    const std::vector<std::uint64_t> words = policy.pack_state();
    ck.fields["policy_state"] =
        join_i64(std::vector<std::int64_t>(words.begin(), words.end()));
    std::ostringstream ops;
    for (const std::string& op : oplog) ops << op << '\n';
    ck.fields["oplog"] = ops.str();
    ck.fields["pending"] = encode_events(pending);
    // The live map the in-effect schedule was built from (not necessarily
    // the current remapper state — a horizon-boundary fault never gets a
    // rebuild), so resume reproduces the schedule byte-for-byte.
    std::vector<std::int64_t> sched_dead;
    if (live_state.concrete() && live_state.dead_count() > 0) {
      for (std::int64_t v = 0; v < height; ++v) {
        for (std::int64_t u = 0; u < width; ++u) {
          if (live_state.dead(u, v)) {
            sched_dead.push_back(u);
            sched_dead.push_back(v);
          }
        }
      }
    }
    ck.fields["sched_dead"] = join_i64(sched_dead);
    ck.fields["counters"] = join_i64(
        {report.faults_injected, report.transient_restores, report.remaps,
         report.unmapped_faults, report.reschedules, report.redirected_units,
         report.lost_units, report.first_unspared_at});
    ck.fields["csv"] = report.timeline_csv;
    std::ostringstream lines;
    for (const std::string& line : report.events) lines << line << '\n';
    ck.fields["events"] = lines.str();
    save_checkpoint(options.checkpoint_path, ck);
  };

  const auto human = [&](const std::string& line) {
    report.events.push_back(line);
  };

  // ---- the repair-and-reschedule loop --------------------------------
  const auto apply_fault = [&](std::int64_t g, std::int64_t u, std::int64_t v,
                               const char* label, std::int64_t restore_after) {
    const rel::SpareRemapper::Outcome outcome = remapper.fault_primary(u, v);
    oplog.push_back("F " + std::to_string(u) + " " + std::to_string(v));
    ++report.faults_injected;
    std::ostringstream line;
    line << "it=" << g << " " << label << " " << pe_name(u, v);
    if (outcome.remapped) {
      ++report.remaps;
      line << " -> spare " << outcome.spare;
      csv_row(g, "fault", u, v, outcome.spare);
      obs::log_event(obs::Severity::kInfo, "degrade",
                     "remap " + pe_name(u, v) + " -> spare " +
                         std::to_string(outcome.spare) + " at it=" +
                         std::to_string(g));
    } else {
      ++report.unmapped_faults;
      if (report.first_unspared_at < 0) report.first_unspared_at = g;
      line << " -> unmapped (pool exhausted)";
      csv_row(g, "unmapped", u, v, -1);
      obs::log_event(obs::Severity::kWarn, "degrade",
                     "unmapped fault " + pe_name(u, v) +
                         " (pool exhausted) at it=" + std::to_string(g));
    }
    human(line.str());
    if (restore_after > 0) {
      TimelineEvent restore;
      restore.iteration = g + restore_after;
      restore.is_restore = true;
      restore.u = u;
      restore.v = v;
      pending.push_back(restore);
    }
  };

  const auto retire_at = [&](std::int64_t g, std::int64_t live,
                             const std::string& why,
                             const std::string& log_message) {
    report.retired = true;
    report.retired_at = g;
    csv_row(g, "retire", -1, -1, live);
    human("it=" + std::to_string(g) + " retire (" + why + ")");
    obs::log_event(obs::Severity::kWarn, "degrade",
                   log_message + " at it=" + std::to_string(g));
  };

  obs::ProgressReporter progress("degrade " + net.abbr(),
                                 options.iterations - it);
  while (it < options.iterations) {
    // The next boundary that needs a look: iteration 1 (the fault-free
    // profile and the Weibull draw), the next pending event, the next
    // autosave multiple, or the horizon. Nothing changes in between, so
    // the simulator runs the epoch in one call and may jump whole periods.
    std::int64_t g = it < 1 ? 1 : options.iterations;
    for (const TimelineEvent& event : pending) {
      if (event.iteration > it) g = std::min(g, event.iteration);
    }
    if (!options.checkpoint_path.empty()) {
      g = std::min(g, it + options.checkpoint_every -
                          it % options.checkpoint_every);
    }
    sim.run_iterations(schedule, policy, g - it);
    progress.tick(g - it);
    it = g;
    const std::vector<std::int64_t>& usage = sim.tracker().usage().cells();

    // Credit the epoch's work under the mapping it actually ran on: the
    // dead set only changes at boundaries, so one delta per epoch sums
    // exactly what per-iteration crediting would.
    for (std::size_t idx = 0; idx < usage.size(); ++idx) {
      const std::int64_t delta = usage[idx] - prev[idx];
      if (delta == 0) continue;
      const auto u = static_cast<std::int64_t>(idx) % width;
      const auto v = static_cast<std::int64_t>(idx) / width;
      if (!remapper.is_dead(u, v)) continue;
      if (remapper.spare_of(u, v) >= 0) {
        report.redirected_units += delta;
      } else {
        report.lost_units += delta;
      }
    }
    prev = usage;

    if (g == 1) {
      it1_usage = usage;  // the fault-free wear profile
      if (weibull_count > 0) {
        // Weibull arrivals from observed wear: PE ∝ usage^β without
        // replacement, strike time T·U^{1/β} — one SplitMix64 substream,
        // independent of thread count. No PE has died yet (iteration 1's
        // own events apply below), so every cell is a candidate.
        util::SplitMix64 rng(options.seed ^ kWeibullSeedTag);
        std::vector<double> weight =
            weibull_weights(usage, remapper, options.beta, width);
        std::size_t idx = 0;
        for (std::int64_t n = 0;
             n < weibull_count && draw_weibull_victim(weight, rng, &idx);
             ++n) {
          TimelineEvent event;
          const double frac = std::pow(rng.next_double(), 1.0 / options.beta);
          event.iteration = std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::ceil(
                  frac * static_cast<double>(options.iterations))),
              std::min<std::int64_t>(2, options.iterations),
              options.iterations);
          event.kind = HardwareFaultKind::kCoordinate;
          event.u = static_cast<std::int64_t>(idx) % width;
          event.v = static_cast<std::int64_t>(idx) / width;
          pending.push_back(event);
          csv_row(g, "weibull-scheduled", event.u, event.v, event.iteration);
          human("weibull scheduled " + pe_name(event.u, event.v) + "@" +
                std::to_string(event.iteration));
        }
        weibull_count = 0;
      }
    }

    // Apply this boundary's events in declaration order, keeping the rest.
    std::vector<TimelineEvent> due;
    std::vector<TimelineEvent> rest;
    for (const TimelineEvent& event : pending) {
      (event.iteration == g ? due : rest).push_back(event);
    }
    pending = std::move(rest);
    for (const TimelineEvent& event : due) {
      if (event.is_restore) {
        remapper.restore_primary(event.u, event.v);
        oplog.push_back("R " + std::to_string(event.u) + " " +
                        std::to_string(event.v));
        ++report.transient_restores;
        csv_row(g, "restore", event.u, event.v, -1);
        human("it=" + std::to_string(g) + " restore " +
              pe_name(event.u, event.v));
        obs::log_event(obs::Severity::kInfo, "degrade",
                       "restore " + pe_name(event.u, event.v) + " at it=" +
                           std::to_string(g));
      } else if (event.kind == HardwareFaultKind::kWearRank) {
        std::int64_t u = 0;
        std::int64_t v = 0;
        if (pick_by_rank(usage, remapper, event.rank, width, &u, &v)) {
          apply_fault(g, u, v, "fault rank", 0);
        }
      } else {
        apply_fault(g, event.u, event.v, "fault", event.restore_after);
      }
    }

    if (aware && !due.empty()) {
      const sched::ArrayState next(remapper);
      if (next.digest() != live_state.digest()) {
        // The live map changed (a fault the pool could not absorb, or a
        // restore): retire if below threshold, else repair-and-reschedule
        // — unless this is the horizon, where no rebuild is needed.
        const std::int64_t live = cells - next.dead_count();
        if (live < min_live) {
          retire_at(g, live,
                    "live " + std::to_string(live) + " < " +
                        std::to_string(min_live),
                    "retirement threshold reached");
          break;
        }
        if (g < options.iterations) {
          try {
            schedule = make_schedule(next);
          } catch (const util::invariant_error&) {
            retire_at(g, live, "no feasible schedule on the degraded array",
                      "retired: no feasible schedule");
            break;
          }
          live_state = next;
          policy.set_mask(live_state);
          ++report.reschedules;
          csv_row(g, "reschedule", -1, -1, live_state.dead_count());
          human("it=" + std::to_string(g) + " reschedule (dead=" +
                std::to_string(live_state.dead_count()) + ", energy=" +
                std::to_string(schedule.total_energy()) + ", cycles=" +
                std::to_string(schedule.total_cycles()) + ")");
          obs::log_event(obs::Severity::kInfo, "degrade",
                         "rescheduled on degraded array (dead=" +
                             std::to_string(live_state.dead_count()) +
                             ") at it=" + std::to_string(g));
        }
      }
    }

    if (should_stop && should_stop(g) && g < options.iterations) {
      report.interrupted = true;
      save_checkpoint_at(g);
      break;
    }
    if (!options.checkpoint_path.empty() &&
        g % options.checkpoint_every == 0) {
      save_checkpoint_at(g);
      progress.note_checkpoint();
    }
  }
  report.iterations_run = it;
  if (!report.interrupted) csv_row(it, "end", -1, -1, -1);

  // ---- residual lifetime ---------------------------------------------
  const std::vector<std::int64_t>& usage = sim.tracker().usage().cells();
  std::vector<double> initial_alphas;
  initial_alphas.reserve(it1_usage.size());
  for (const std::int64_t count : it1_usage) {
    initial_alphas.push_back(static_cast<double>(count));
  }
  report.mttf_initial =
      guarded_spare_mttf(initial_alphas, options.spares, options.beta);

  report.live_pes = live_primaries();
  report.retire_budget =
      aware ? std::max<std::int64_t>(0, report.live_pes - min_live) : 0;
  for (std::size_t idx = 0; idx < usage.size(); ++idx) {
    const auto u = static_cast<std::int64_t>(idx) % width;
    const auto v = static_cast<std::int64_t>(idx) / width;
    if (remapper.is_dead(u, v) && remapper.spare_of(u, v) < 0) continue;
    report.live_alphas.push_back(static_cast<double>(usage[idx]) /
                                 static_cast<double>(
                                     std::max<std::int64_t>(1, it)));
  }
  report.mttf_tolerance = capped_tolerance(
      report.live_alphas, remapper.spares_free() + report.retire_budget);
  if (report.retired ||
      (!aware && report.first_unspared_at >= 0)) {
    // Retired, or fail-stop service already ended: no correct service
    // lifetime remains.
    report.mttf_final = 0.0;
  } else {
    report.mttf_final = guarded_spare_mttf(
        report.live_alphas, report.mttf_tolerance, options.beta);
  }

  report.final_energy = schedule.total_energy();
  report.final_cycles = schedule.total_cycles();
  report.energy_overhead = report.initial_energy > 0.0
                               ? report.final_energy / report.initial_energy -
                                     1.0
                               : 0.0;
  report.throughput_derating =
      report.initial_cycles > 0.0
          ? report.final_cycles / report.initial_cycles - 1.0
          : 0.0;
  report.spare_stats = remapper.stats();

  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) {
    reg.add("degrade.faults",
            report.faults_injected - base_counts.faults_injected);
    reg.add("degrade.remaps", report.remaps - base_counts.remaps);
    reg.add("degrade.unmapped",
            report.unmapped_faults - base_counts.unmapped_faults);
    reg.add("degrade.reschedules",
            report.reschedules - base_counts.reschedules);
    reg.add("degrade.restores",
            report.transient_restores - base_counts.transient_restores);
    reg.add("degrade.redirected_units",
            report.redirected_units - base_counts.redirected_units);
    reg.add("degrade.lost_units",
            report.lost_units - base_counts.lost_units);
    if (report.retired) reg.add("degrade.retirements", 1);
  }
  return report;
}

namespace {

util::Result<sched::ArrayState> array_state_from_faults_impl(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares,
    const WearSnapshot* wear) {
  if (width < 1 || height < 1) {
    return {util::ErrorCode::kInvalidArgument,
            "array_state_from_faults: array must be at least 1x1, got " +
                std::to_string(width) + "x" + std::to_string(height)};
  }
  if (spares < 0) {
    return {util::ErrorCode::kInvalidArgument,
            "array_state_from_faults: spares must be >= 0, got " +
                std::to_string(spares)};
  }
  if (wear != nullptr) {
    if (wear->usage.size() !=
        static_cast<std::size_t>(width) * static_cast<std::size_t>(height)) {
      return {util::ErrorCode::kInvalidArgument,
              "array_state_from_faults: wear snapshot has " +
                  std::to_string(wear->usage.size()) + " cells but the " +
                  std::to_string(width) + "x" + std::to_string(height) +
                  " array needs " + std::to_string(width * height)};
    }
    if (!(wear->beta > 0.0)) {
      return {util::ErrorCode::kInvalidArgument,
              "array_state_from_faults: wear snapshot beta must be positive"};
    }
  }
  rel::SpareRemapper remapper(width, height, spares);
  const auto kill = [&remapper](std::int64_t u, std::int64_t v) {
    if (!remapper.is_dead(u, v)) (void)remapper.fault_primary(u, v);
  };
  for (const HardwareFault& fault : faults) {
    if (fault.restore_after > 0) {
      return {util::ErrorCode::kInvalidArgument,
              "array_state_from_faults: transient fault '" + to_string(fault) +
                  "' has no static dead-PE reading (it heals at runtime)"};
    }
    if (fault.kind != HardwareFaultKind::kCoordinate && wear == nullptr) {
      return {util::ErrorCode::kInvalidArgument,
              "array_state_from_faults: wear-dependent fault '" +
                  to_string(fault) +
                  "' needs a wear snapshot to get a static dead-PE reading"};
    }
    switch (fault.kind) {
      case HardwareFaultKind::kCoordinate: {
        if (fault.u < 0 || fault.u >= width || fault.v < 0 ||
            fault.v >= height) {
          return {util::ErrorCode::kInvalidArgument,
                  "array_state_from_faults: fault '" + to_string(fault) +
                      "' lies outside the " + std::to_string(width) + "x" +
                      std::to_string(height) + " array"};
        }
        kill(fault.u, fault.v);
        break;
      }
      case HardwareFaultKind::kWearRank: {
        std::int64_t u = 0;
        std::int64_t v = 0;
        if (pick_by_rank(wear->usage, remapper, fault.rank, width, &u, &v)) {
          kill(u, v);
        }
        break;
      }
      case HardwareFaultKind::kWeibull: {
        // The engine's victim draw without the strike times, each spec
        // from the seed's "weibull" substream.
        util::SplitMix64 rng(wear->seed ^ kWeibullSeedTag);
        std::vector<double> weight =
            weibull_weights(wear->usage, remapper, wear->beta, width);
        std::size_t idx = 0;
        for (std::int64_t n = 0;
             n < fault.count && draw_weibull_victim(weight, rng, &idx); ++n) {
          kill(static_cast<std::int64_t>(idx) % width,
               static_cast<std::int64_t>(idx) / width);
        }
        break;
      }
    }
  }
  return sched::ArrayState(remapper);
}

}  // namespace

util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares) {
  return array_state_from_faults_impl(width, height, faults, spares, nullptr);
}

util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares,
    const WearSnapshot& wear) {
  return array_state_from_faults_impl(width, height, faults, spares, &wear);
}

}  // namespace rota::fi
